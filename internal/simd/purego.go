//go:build purego

package simd

// purego build: the batched entry points degrade to the scalar references.
// No unsafe loads/stores and no assembly execute under this tag (prefetch
// hints become no-ops).

const Enabled = false

const level = "purego"

func Or[K Key](keys []K) K { return OrScalar(keys) }

func Hist[K Key](keys []K, shift uint, mask uint32, count *[256]int64) {
	HistScalar(keys, shift, mask, count)
}

func ScatterKV[K Key, V any](srcK []K, srcV []V, dstK []K, dstV []V, shift uint, mask uint32, cursor *[256]int64) {
	ScatterKVScalar(srcK, srcV, dstK, dstV, shift, mask, cursor)
}

func ScatterK(srcK []uint32, dstK []uint32, shift uint, mask uint32, cursor *[256]int64) {
	ScatterKScalar(srcK, dstK, shift, mask, cursor)
}

func AccumKV[K Key, V Value](keys []K, vals []V, mask uint32, acc *[256]V) {
	AccumKVScalar(keys, vals, mask, acc)
}

func ExpandKV[K Key, V Value](dstK []K, dstV []V, localRow K, cols []int32, bVals []V, av V) {
	ExpandKVScalar(dstK, dstV, localRow, cols, bVals, av)
}

func ExpandK(dstK []uint32, localRow uint32, cols []int32) {
	ExpandKScalar(dstK, localRow, cols)
}
