// Package radix implements the stable MSD radix sorts the paper uses to sort
// each global bin of expanded tuples (Section III-D). Keys are packed
// (rowid, colid) pairs; values travel with their keys as payloads.
//
// Every sorter is an American-flag MSD radix (McIlroy/Bostic/McIlroy 1993)
// made stable: each splitting pass is a counting scatter that ping-pongs
// between the tuple planes and caller-provided scratch planes, so equal keys
// keep their arrival (expand) order at every level. There are two families,
// each with a plain sort, a partition/continue pair for bins split across
// workers, and a fused sort+fold:
//
//   - key+value (stable.go): a key plane plus a parallel value plane,
//     generic over the key width K (uint32 for the squeezed and narrow
//     layouts and ColumnESC's column ids, uint64 for the wide layout and
//     COO.Dedup's row<<32|col keys) and the value type V;
//   - key-only (stablepattern.go): the pattern layout's uint32 keys, whose
//     fold is deduplication.
//
// The paper's key-squeezing optimization — representing the in-bin local row
// id in ~10 bits so the combined key fits 4 bytes and needs only four passes —
// is realized by skipping digits that are uniform across the slice:
// PB-SpGEMM packs keys as localRow<<colBits|col, so small local row ids leave
// the high key bits zero and the sorters perform only the passes the
// occupied bits need. The digit plan starts from the highest occupied bit,
// so a 64-bit key whose high word is zero sorts in exactly the passes of
// the same key held in 32 bits.
//
// Fused sort→compress: the recursion visits buckets in ascending key order,
// and a bucket that reaches its last digit (or the insertion cutoff) is
// fully determined the moment the recursion leaves it. The fused variants
// fold runs of equal keys right there and compact the aggregated (key, Σval)
// tuples into the prefix of the same slice, so the separate compress pass —
// a full re-read of the sorted buffer plus an nnz-sized write — never runs.
// Because the sorts are stable, every fold accumulates values in arrival
// order — the same left-to-right chain sort-then-compress produces — so
// fused ≡ unfused ≡ split-across-workers holds bit-for-bit by construction,
// for any digit plan and any thread count.
package radix

import (
	"math"
	"math/bits"
)

// insertionCutoff is the sub-slice size below which insertion sort beats the
// bucket machinery.
const insertionCutoff = 32

// digitBits caps the American-flag digit width: 256 buckets keep each
// pass's counter and cursor arrays inside L1 and each recursion frame's
// state at a few KiB of stack.
const digitBits = 8

// maxBuckets sizes the per-pass counter arrays.
const maxBuckets = 1 << digitBits

// MaxPartitionBuckets is the most buckets PartitionTopScratch can emit;
// callers size its bounds slice to MaxPartitionBuckets+1.
const MaxPartitionBuckets = maxBuckets

// digitWidth picks the digit width of one splitting pass: ~2 expected
// tuples per bucket, capped by digitBits and the remaining key bits.
func digitWidth(n, hiBits int) int {
	w := bits.Len(uint(n) >> 1) // ≈ log2(n/2)
	if w < 4 {
		w = 4
	}
	if w > digitBits {
		w = digitBits
	}
	if w > hiBits {
		w = hiBits
	}
	return w
}

// Key is the packed-key constraint: uint32 keys for the squeezed, narrow
// and pattern layouts, uint64 for the wide layout. It matches simd.Key.
type Key interface {
	~uint32 | ~uint64
}

// keyBits returns the number of occupied bits of a key OR: the first digit
// plan's hiBits.
func keyBits[K Key](or K) int { return bits.Len64(uint64(or)) }

// Numeric is the value constraint of the fused fold: the engine's semiring
// fast paths fold with +, so the fused sorter needs addition — float64 (the
// squeezed and wide layouts), float32 and int32 (the narrow layout).
type Numeric interface {
	~float32 | ~float64 | ~int32
}

// negZero is the additive identity a fold accumulator starts from: −0.0 for
// the float types (so a run of −0.0 values folds to −0.0, as a left-to-right
// chain from the first value does) and 0 for int32.
func negZero[V Numeric]() V {
	return V(math.Copysign(0, -1))
}

// Grow returns (*buf)[:n], reallocating only when capacity is short;
// contents are unspecified. It sizes the key and value planes of the pooled
// workspaces in internal/core and internal/baseline.
func Grow[T any](buf *[]T, n int64) []T {
	if int64(cap(*buf)) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
