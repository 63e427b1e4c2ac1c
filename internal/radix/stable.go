package radix

import "pbspgemm/internal/simd"

// Stable out-of-place American-flag radix over a key plane and a parallel
// value plane, generic over the key width K and the value type V: the
// squeezed (uint32, float64), narrow (uint32, float32|int32) and wide
// (uint64, float64) layouts all run this one family, as do ColumnESC and
// COO.Dedup. The key-only variants in stablepattern.go serve the pattern
// layout.
//
// Each splitting pass ping-pongs between the tuple planes and
// caller-provided scratch planes with a STABLE counting scatter: equal keys
// keep their arrival (expand) order at every level. Stability is what makes
// the fused and unfused paths, the split-bin parallel path, and every
// thread count produce bit-identical arrays by construction — any stable
// sort of the same bin yields the same tuple sequence, and every fold over
// an equal-key group is the same left-to-right chain in arrival order.
//
// The counting, scatter and fold inner loops dispatch to internal/simd:
// batch=true selects the unsafe-batched kernels, batch=false the scalar
// references (the oracle). Both produce bit-identical results; the engine
// picks once per run (Options.DisableBatch) and reports it on Stats.Kernel.

// dispatch helpers: one branch per pass, hoisted out of the inner loops.

func orKeys[K Key](keys []K, batch bool) K {
	if batch {
		return simd.Or(keys)
	}
	return simd.OrScalar(keys)
}

func hist[K Key](keys []K, shift uint, mask uint32, count *[maxBuckets]int64, batch bool) {
	if batch {
		simd.Hist(keys, shift, mask, count)
	} else {
		simd.HistScalar(keys, shift, mask, count)
	}
}

func scatter[K Key, V any](srcK []K, srcV []V, dstK []K, dstV []V, shift uint, mask uint32, cursor *[maxBuckets]int64, batch bool) {
	if batch {
		simd.ScatterKV(srcK, srcV, dstK, dstV, shift, mask, cursor)
	} else {
		simd.ScatterKVScalar(srcK, srcV, dstK, dstV, shift, mask, cursor)
	}
}

func accum[K Key, V Numeric](keys []K, vals []V, mask uint32, acc *[maxBuckets]V, batch bool) {
	if batch {
		simd.AccumKV(keys, vals, mask, acc)
	} else {
		simd.AccumKVScalar(keys, vals, mask, acc)
	}
}

// SortScratch stably sorts keys and carries vals along. The sorter never
// inspects a value, only moves it with its key. vals must be as long as
// keys, and auxK/auxV are scratch planes of at least len(keys) whose
// contents are clobbered.
func SortScratch[K Key, V any](keys []K, vals []V, auxK []K, auxV []V, batch bool) {
	n := len(keys)
	if len(vals) != n {
		panic("radix: keys and vals length mismatch")
	}
	if n < 2 {
		return
	}
	o := orKeys(keys, batch)
	if o == 0 {
		return // every key zero: already sorted
	}
	stableSort(keys, vals, auxK[:n], auxV[:n], keyBits(o), true, batch)
}

// SortBitsScratch is SortScratch for a bucket whose keys are known to agree
// on all bits at or above hiBits (a PartitionTopScratch bucket continued on
// another worker's scratch).
func SortBitsScratch[K Key, V any](keys []K, vals []V, auxK []K, auxV []V, hiBits int, batch bool) {
	n := len(keys)
	if n < 2 || hiBits <= 0 {
		return
	}
	stableSort(keys, vals, auxK[:n], auxV[:n], hiBits, true, batch)
}

// stableSort sorts the segment whose live data is in srcK/srcV, using
// altK/altV as the other ping-pong plane. inOrig records which physical
// plane src is: true means src is the caller-visible buffer, so the sorted
// result must end up there; each splitting pass flips it. Digit widths
// follow digitWidth.
func stableSort[K Key, V any](srcK []K, srcV []V, altK []K, altV []V, hiBits int, inOrig, batch bool) {
	n := len(srcK)
	for {
		if n <= 1 {
			if n == 1 && !inOrig {
				altK[0], altV[0] = srcK[0], srcV[0]
			}
			return
		}
		if hiBits <= 0 {
			// Uniform keys: arrival order is the sorted order.
			if !inOrig {
				copy(altK, srcK)
				copy(altV, srcV)
			}
			return
		}
		if n <= insertionCutoff {
			if inOrig {
				insertionSortKV(srcK, srcV)
			} else {
				insertionIntoKV(srcK, srcV, altK, altV)
			}
			return
		}
		w := digitWidth(n, hiBits)
		shift := uint(hiBits - w)
		nb := 1 << w
		mask := uint32(nb - 1)
		var count [maxBuckets]int64
		hist(srcK, shift, mask, &count, batch)
		nonEmpty := 0
		var start [maxBuckets]int64
		sum := int64(0)
		for b := 0; b < nb; b++ {
			start[b] = sum
			sum += count[b]
			if count[b] > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 1 {
			hiBits = int(shift)
			continue // digit uniform: same data, next digit
		}
		cursor := start
		scatter(srcK, srcV, altK, altV, shift, mask, &cursor, batch)
		if shift == 0 {
			// Last digit: alt is fully sorted (stable within buckets).
			if inOrig {
				copy(srcK, altK)
				copy(srcV, altV)
			}
			return
		}
		for b := 0; b < nb; b++ {
			c := count[b]
			if c == 0 {
				continue
			}
			s := start[b]
			switch c {
			case 1:
				if inOrig {
					srcK[s], srcV[s] = altK[s], altV[s]
				}
			case 2:
				s2 := s + 1
				if altK[s] > altK[s2] {
					if inOrig {
						srcK[s], srcV[s] = altK[s2], altV[s2]
						srcK[s2], srcV[s2] = altK[s], altV[s]
					} else {
						altK[s], altK[s2] = altK[s2], altK[s]
						altV[s], altV[s2] = altV[s2], altV[s]
					}
				} else if inOrig {
					srcK[s], srcV[s] = altK[s], altV[s]
					srcK[s2], srcV[s2] = altK[s2], altV[s2]
				}
			default:
				stableSort(altK[s:s+c], altV[s:s+c], srcK[s:s+c], srcV[s:s+c], int(shift), !inOrig, batch)
			}
		}
		return
	}
}

func insertionSortKV[K Key, V any](keys []K, vals []V) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			vals[j+1] = vals[j]
			j--
		}
		keys[j+1] = k
		vals[j+1] = v
	}
}

// insertionIntoKV stably insertion-sorts src into dst (dst is the plane the
// result must land in; src is dead afterwards). Shifting only on strict
// key inequality keeps equal keys in arrival order.
func insertionIntoKV[K Key, V any](srcK []K, srcV []V, dstK []K, dstV []V) {
	for i := 0; i < len(srcK); i++ {
		k, v := srcK[i], srcV[i]
		j := i
		for j > 0 && dstK[j-1] > k {
			dstK[j] = dstK[j-1]
			dstV[j] = dstV[j-1]
			j--
		}
		dstK[j] = k
		dstV[j] = v
	}
}

// PartitionTopScratch runs the sort's first splitting pass over the whole
// bin as one stable scatter (through aux, copied back so bucket tasks can
// continue on their own workers' scratch), fills bounds with the bucket
// starts and returns (nbuckets, remaining bits). A zero nbuckets means the
// keys ended up fully sorted (trivially, or because the single splitting
// digit was the last one) and no bucket tasks are needed.
func PartitionTopScratch[K Key, V any](keys []K, vals []V, auxK []K, auxV []V, bounds []int64, batch bool) (nbuckets, restBits int) {
	n := len(keys)
	if n < 2 {
		return 0, 0
	}
	o := orKeys(keys, batch)
	if o == 0 {
		return 0, 0
	}
	hiBits := keyBits(o)
	auxK, auxV = auxK[:n], auxV[:n]
	for {
		if hiBits <= 0 {
			return 0, 0
		}
		w := digitWidth(n, hiBits)
		shift := uint(hiBits - w)
		nb := 1 << w
		mask := uint32(nb - 1)
		var count [maxBuckets]int64
		hist(keys, shift, mask, &count, batch)
		nonEmpty := 0
		var start [maxBuckets]int64
		sum := int64(0)
		for b := 0; b < nb; b++ {
			start[b] = sum
			sum += count[b]
			if count[b] > 0 {
				nonEmpty++
			}
		}
		if nonEmpty == 1 {
			hiBits = int(shift)
			continue
		}
		cursor := start
		scatter(keys, vals, auxK, auxV, shift, mask, &cursor, batch)
		copy(keys, auxK)
		copy(vals, auxV)
		for b := 0; b < nb; b++ {
			bounds[b] = start[b]
		}
		bounds[nb] = int64(n)
		if shift == 0 {
			return 0, 0 // buckets are uniform keys: fully sorted
		}
		return nb, int(shift)
	}
}

// fuseS is the stable fused sort+fold: tuples are emitted into the prefix
// of the original planes as each leaf resolves, folding equal keys with one
// sequential add chain in arrival order. The emit cursor f.n never passes
// the start of the segment currently being resolved, so emitting into the
// original planes is safe even while they double as a ping-pong side.
type fuseS[K Key, V Numeric] struct {
	keys  []K
	vals  []V
	n     int64
	batch bool
}

// SortFusedScratch stably sorts and folds keys/vals in one pass,
// returning the folded tuple count. auxK/auxV are scratch planes of at
// least len(keys); their contents are clobbered.
func SortFusedScratch[K Key, V Numeric](keys []K, vals []V, auxK []K, auxV []V, batch bool) int64 {
	n := len(keys)
	if n == 0 {
		return 0
	}
	o := orKeys(keys, batch)
	if o == 0 {
		v := vals[0]
		for i := 1; i < n; i++ {
			v += vals[i]
		}
		vals[0] = v
		return 1
	}
	f := fuseS[K, V]{keys: keys, vals: vals, batch: batch}
	f.sort(keys, vals, auxK[:n], auxV[:n], keyBits(o))
	return f.n
}

func (f *fuseS[K, V]) emitOne(k K, v V) {
	f.keys[f.n] = k
	f.vals[f.n] = v
	f.n++
}

func (f *fuseS[K, V]) sort(srcK []K, srcV []V, altK []K, altV []V, hiBits int) {
	n := len(srcK)
	if n == 0 {
		return
	}
	if n == 1 {
		f.emitOne(srcK[0], srcV[0])
		return
	}
	if hiBits <= 0 {
		// Uniform keys: fold the whole segment, arrival order.
		k := srcK[0]
		v := srcV[0]
		for i := 1; i < n; i++ {
			v += srcV[i]
		}
		f.emitOne(k, v)
		return
	}
	if n <= insertionCutoff {
		f.insertionFold(srcK, srcV)
		return
	}
	w := digitWidth(n, hiBits)
	shift := uint(hiBits - w)
	nb := 1 << w
	mask := uint32(nb - 1)
	var count [maxBuckets]int64
	hist(srcK, shift, mask, &count, f.batch)
	nonEmpty := 0
	var start [maxBuckets]int64
	sum := int64(0)
	for b := 0; b < nb; b++ {
		start[b] = sum
		sum += count[b]
		if count[b] > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 1 {
		f.sort(srcK, srcV, altK, altV, int(shift))
		return
	}
	if shift == 0 {
		// Last digit: one sequential accumulate in arrival order, then
		// emit per occupied bucket. Reads all of src before any emit.
		// Accumulators start at −0.0 so a bucket of −0.0 values keeps its
		// sign, exactly as a fold seeded with the first value does.
		var acc [maxBuckets]V
		nz := negZero[V]()
		for b := range nb {
			acc[b] = nz
		}
		accum(srcK, srcV, mask, &acc, f.batch)
		base := srcK[0] &^ K(mask)
		out := f.n
		for b := 0; b < nb; b++ {
			if count[b] > 0 {
				f.keys[out] = base | K(b)
				f.vals[out] = acc[b]
				out++
			}
		}
		f.n = out
		return
	}
	cursor := start
	scatter(srcK, srcV, altK, altV, shift, mask, &cursor, f.batch)
	for b := 0; b < nb; b++ {
		c := count[b]
		if c == 0 {
			continue
		}
		s := start[b]
		switch c {
		case 1:
			f.emitOne(altK[s], altV[s])
		case 2:
			k0, v0 := altK[s], altV[s]
			k1, v1 := altK[s+1], altV[s+1]
			switch {
			case k0 == k1:
				f.emitOne(k0, v0+v1)
			case k0 < k1:
				f.emitOne(k0, v0)
				f.emitOne(k1, v1)
			default:
				f.emitOne(k1, v1)
				f.emitOne(k0, v0)
			}
		default:
			f.sort(altK[s:s+c], altV[s:s+c], srcK[s:s+c], srcV[s:s+c], int(shift))
		}
	}
}

// insertionFold sorts a small segment by stable insertion directly into the
// emit prefix, folding on key equality. Writes never pass the segment's own
// read cursor, so src overlapping the emit region is safe.
func (f *fuseS[K, V]) insertionFold(srcK []K, srcV []V) {
	keys, vals := f.keys, f.vals
	base := f.n
	out := base
	for i := 0; i < len(srcK); i++ {
		k := srcK[i]
		v := srcV[i]
		j := out
		for j > base && keys[j-1] > k {
			j--
		}
		if j > base && keys[j-1] == k {
			vals[j-1] += v
			continue
		}
		for m := out; m > j; m-- {
			keys[m] = keys[m-1]
			vals[m] = vals[m-1]
		}
		keys[j] = k
		vals[j] = v
		out++
	}
	f.n = out
}
