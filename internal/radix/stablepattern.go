package radix

import (
	"math/bits"

	"pbspgemm/internal/simd"
)

// Key-only (pattern layout) twins of stable.go. Pattern tuples have no
// value plane — the fold is deduplication — but the sorts keep the same
// stable-scatter design so every layout shares one shape and the batched
// kernels apply uniformly.

func scatterK32(srcK []uint32, dstK []uint32, shift uint, mask uint32, cursor *[maxBuckets]int64, batch bool) {
	if batch {
		simd.ScatterK(srcK, dstK, shift, mask, cursor)
	} else {
		simd.ScatterKScalar(srcK, dstK, shift, mask, cursor)
	}
}

// SortKeys32PatternScratch stably sorts the key-only plane. aux must be at
// least len(keys); its contents are clobbered.
func SortKeys32PatternScratch(keys []uint32, aux []uint32, batch bool) {
	n := len(keys)
	if n < 2 {
		return
	}
	or := orKeys(keys, batch)
	if or == 0 {
		return
	}
	stableSortPattern(keys, aux[:n], bits.Len32(or), true, batch)
}

// SortKeys32BitsPatternScratch continues a partitioned bucket whose keys
// agree on all bits at or above hiBits.
func SortKeys32BitsPatternScratch(keys []uint32, aux []uint32, hiBits int, batch bool) {
	n := len(keys)
	if n < 2 || hiBits <= 0 {
		return
	}
	stableSortPattern(keys, aux[:n], hiBits, true, batch)
}

func stableSortPattern(srcK []uint32, altK []uint32, hiBits int, inOrig, batch bool) {
	n := len(srcK)
	for {
		if n <= 1 {
			if n == 1 && !inOrig {
				altK[0] = srcK[0]
			}
			return
		}
		if hiBits <= 0 {
			if !inOrig {
				copy(altK, srcK)
			}
			return
		}
		if n <= insertionCutoff {
			if inOrig {
				insertionSortKeys32Pattern(srcK)
			} else {
				insertionIntoPattern(srcK, altK)
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
			continue
		}
		cursor := start
		scatterK32(srcK, altK, shift, mask, &cursor, batch)
		if shift == 0 {
			if inOrig {
				copy(srcK, altK)
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
					srcK[s] = altK[s]
				}
			case 2:
				s2 := s + 1
				if altK[s] > altK[s2] {
					if inOrig {
						srcK[s], srcK[s2] = altK[s2], altK[s]
					} else {
						altK[s], altK[s2] = altK[s2], altK[s]
					}
				} else if inOrig {
					srcK[s], srcK[s2] = altK[s], altK[s2]
				}
			default:
				stableSortPattern(altK[s:s+c], srcK[s:s+c], int(shift), !inOrig, batch)
			}
		}
		return
	}
}

func insertionSortKeys32Pattern(keys []uint32) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = k
	}
}

func insertionIntoPattern(srcK []uint32, dstK []uint32) {
	for i := 0; i < len(srcK); i++ {
		k := srcK[i]
		j := i
		for j > 0 && dstK[j-1] > k {
			dstK[j] = dstK[j-1]
			j--
		}
		dstK[j] = k
	}
}

// PartitionTop32PatternScratch is PartitionTopScratch for the key-only
// plane: one stable scatter through aux with copy-back, bounds filled with
// bucket starts; zero nbuckets means fully sorted.
func PartitionTop32PatternScratch(keys []uint32, aux []uint32, bounds []int64, batch bool) (nbuckets, restBits int) {
	n := len(keys)
	if n < 2 {
		return 0, 0
	}
	or := orKeys(keys, batch)
	if or == 0 {
		return 0, 0
	}
	hiBits := bits.Len32(or)
	aux = aux[:n]
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
		scatterK32(keys, aux, shift, mask, &cursor, batch)
		copy(keys, aux)
		for b := 0; b < nb; b++ {
			bounds[b] = start[b]
		}
		bounds[nb] = int64(n)
		if shift == 0 {
			return 0, 0
		}
		return nb, int(shift)
	}
}

// fuseKeysS is the stable fused sort+dedup for the pattern plane: unique
// keys are emitted in order into the prefix of the original plane.
type fuseKeysS struct {
	keys  []uint32
	n     int64
	batch bool
}

// SortKeys32FusedPatternScratch stably sorts and deduplicates keys in one
// pass, returning the unique-key count. aux must be at least len(keys).
func SortKeys32FusedPatternScratch(keys []uint32, aux []uint32, batch bool) int64 {
	n := len(keys)
	if n == 0 {
		return 0
	}
	or := orKeys(keys, batch)
	if or == 0 {
		return 1 // keys[0] is already 0
	}
	f := fuseKeysS{keys: keys, batch: batch}
	f.sort(keys, aux[:n], bits.Len32(or))
	return f.n
}

func (f *fuseKeysS) emitOne(k uint32) {
	f.keys[f.n] = k
	f.n++
}

func (f *fuseKeysS) sort(srcK []uint32, altK []uint32, hiBits int) {
	n := len(srcK)
	if n == 0 {
		return
	}
	if n == 1 || hiBits <= 0 {
		f.emitOne(srcK[0])
		return
	}
	if n <= insertionCutoff {
		f.insertionDedup(srcK)
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
		f.sort(srcK, altK, int(shift))
		return
	}
	if shift == 0 {
		// Last digit: the histogram is the occupancy map — emit each
		// occupied bucket's key without materializing the permutation.
		base := srcK[0] &^ mask
		out := f.n
		for b := 0; b < nb; b++ {
			if count[b] > 0 {
				f.keys[out] = base | uint32(b)
				out++
			}
		}
		f.n = out
		return
	}
	cursor := start
	scatterK32(srcK, altK, shift, mask, &cursor, f.batch)
	for b := 0; b < nb; b++ {
		c := count[b]
		if c == 0 {
			continue
		}
		s := start[b]
		switch c {
		case 1:
			f.emitOne(altK[s])
		case 2:
			k0, k1 := altK[s], altK[s+1]
			switch {
			case k0 == k1:
				f.emitOne(k0)
			case k0 < k1:
				f.emitOne(k0)
				f.emitOne(k1)
			default:
				f.emitOne(k1)
				f.emitOne(k0)
			}
		default:
			f.sort(altK[s:s+c], srcK[s:s+c], int(shift))
		}
	}
}

func (f *fuseKeysS) insertionDedup(srcK []uint32) {
	keys := f.keys
	base := f.n
	out := base
	for i := 0; i < len(srcK); i++ {
		k := srcK[i]
		j := out
		for j > base && keys[j-1] > k {
			j--
		}
		if j > base && keys[j-1] == k {
			continue
		}
		for m := out; m > j; m-- {
			keys[m] = keys[m-1]
		}
		keys[j] = k
		out++
	}
	f.n = out
}
