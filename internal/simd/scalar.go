package simd

// Scalar reference kernels. These are compiled into every build and are the
// correctness oracle for the batched forms: for identical inputs the batched
// kernel must produce bit-identical outputs, including the order of
// floating-point additions (each accumulator is a single sequential chain in
// arrival order; no reassociation).
//
// Shared caller contract for the sort kernels: digit values (k>>shift)&mask
// index count/cursor/acc tables of 256 entries, so mask ≤ 255; cursor values
// must be valid indices into dst for every element scattered.

// OrScalar returns the bitwise OR of all keys (0 for an empty slice).
func OrScalar[K Key](keys []K) K {
	var or K
	for _, k := range keys {
		or |= k
	}
	return or
}

// HistScalar counts digit occurrences of (k>>shift)&mask into count.
func HistScalar[K Key](keys []K, shift uint, mask uint32, count *[256]int64) {
	m := K(mask)
	for _, k := range keys {
		count[(k>>shift)&m]++
	}
}

// ScatterKVScalar stably scatters src tuples to dst positions taken from the
// per-digit cursors, advancing each cursor. Equal-digit elements keep their
// relative (arrival) order.
func ScatterKVScalar[K Key, V any](srcK []K, srcV []V, dstK []K, dstV []V, shift uint, mask uint32, cursor *[256]int64) {
	m := K(mask)
	for i, k := range srcK {
		c := cursor[(k>>shift)&m]
		dstK[c] = k
		dstV[c] = srcV[i]
		cursor[(k>>shift)&m] = c + 1
	}
}

// ScatterKScalar is ScatterKVScalar for the key-only (pattern) plane.
func ScatterKScalar(srcK []uint32, dstK []uint32, shift uint, mask uint32, cursor *[256]int64) {
	for _, k := range srcK {
		c := cursor[(k>>shift)&mask]
		dstK[c] = k
		cursor[(k>>shift)&mask] = c + 1
	}
}

// AccumKVScalar folds values onto their last-digit accumulator slot in
// arrival order: acc[k&mask] += v, one sequential chain per slot.
func AccumKVScalar[K Key, V Value](keys []K, vals []V, mask uint32, acc *[256]V) {
	m := K(mask)
	for i, k := range keys {
		acc[k&m] += vals[i]
	}
}

// ExpandKVScalar computes one expand chunk: dstK[i] = localRow|cols[i],
// dstV[i] = av*bVals[i]. cols and bVals must be at least len(dstK) long.
func ExpandKVScalar[K Key, V Value](dstK []K, dstV []V, localRow K, cols []int32, bVals []V, av V) {
	for i := range dstK {
		dstK[i] = localRow | K(uint32(cols[i]))
		dstV[i] = av * bVals[i]
	}
}

// ExpandKScalar is the key-only (pattern) expand chunk.
func ExpandKScalar(dstK []uint32, localRow uint32, cols []int32) {
	for i := range dstK {
		dstK[i] = localRow | uint32(cols[i])
	}
}
