package simd

import (
	"math/rand/v2"
	"testing"
	"unsafe"
)

func genKV(n int, keyBits uint, seed uint64) ([]uint32, []float64) {
	r := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
	keys := make([]uint32, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = r.Uint32() & (1<<keyBits - 1)
		vals[i] = r.Float64()*200 - 100
	}
	return keys, vals
}

// genKV64 draws 64-bit keys spanning both halves of the word, the wide
// layout's key plane.
func genKV64(n int, seed uint64) ([]uint64, []float64) {
	r := rand.New(rand.NewPCG(seed, seed^0x51ed2701))
	keys := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = r.Uint64() >> 8
		vals[i] = r.Float64()*200 - 100
	}
	return keys, vals
}

// TestBatchedMatchesScalarKernels pins bit-identity of every batched kernel
// against its scalar twin, across sizes that exercise both the unrolled body
// and the remainder loop.
func TestBatchedMatchesScalarKernels(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, 8, 9, 63, 64, 65, 1000} {
		keys, vals := genKV(n, 23, uint64(n)+1)
		keys64, vals64 := genKV64(n, uint64(n)+2)
		const shift, mask = 7, uint32(0xff)
		const shift64 = 41 // a digit above bit 32

		if got, want := Or(keys), OrScalar(keys); got != want {
			t.Fatalf("n=%d Or: %x vs %x", n, got, want)
		}
		if got, want := Or(keys64), OrScalar(keys64); got != want {
			t.Fatalf("n=%d Or[uint64]: %x vs %x", n, got, want)
		}

		var h1, h2 [256]int64
		Hist(keys, shift, mask, &h1)
		HistScalar(keys, shift, mask, &h2)
		if h1 != h2 {
			t.Fatalf("n=%d Hist mismatch", n)
		}
		var hp1, hp2 [256]int64
		Hist(keys64, shift64, mask, &hp1)
		HistScalar(keys64, shift64, mask, &hp2)
		if hp1 != hp2 {
			t.Fatalf("n=%d Hist[uint64] mismatch", n)
		}

		// Scatter: build cursors from the histogram, run both, compare.
		mkCursor := func(h *[256]int64) [256]int64 {
			var c [256]int64
			sum := int64(0)
			for b := range h {
				c[b] = sum
				sum += h[b]
			}
			return c
		}
		c1, c2 := mkCursor(&h1), mkCursor(&h1)
		dk1, dv1 := make([]uint32, n), make([]float64, n)
		dk2, dv2 := make([]uint32, n), make([]float64, n)
		ScatterKV(keys, vals, dk1, dv1, shift, mask, &c1)
		ScatterKVScalar(keys, vals, dk2, dv2, shift, mask, &c2)
		if c1 != c2 {
			t.Fatalf("n=%d ScatterKV cursors mismatch", n)
		}
		for i := range dk1 {
			if dk1[i] != dk2[i] || dv1[i] != dv2[i] {
				t.Fatalf("n=%d ScatterKV[%d]: (%d,%v) vs (%d,%v)", n, i, dk1[i], dv1[i], dk2[i], dv2[i])
			}
		}
		c1, c2 = mkCursor(&h1), mkCursor(&h1)
		ScatterK(keys, dk1, shift, mask, &c1)
		ScatterKScalar(keys, dk2, shift, mask, &c2)
		for i := range dk1 {
			if dk1[i] != dk2[i] {
				t.Fatalf("n=%d ScatterK[%d]: %d vs %d", n, i, dk1[i], dk2[i])
			}
		}
		cp1, cp2 := mkCursor(&hp1), mkCursor(&hp1)
		dpk1, dpv1 := make([]uint64, n), make([]float64, n)
		dpk2, dpv2 := make([]uint64, n), make([]float64, n)
		ScatterKV(keys64, vals64, dpk1, dpv1, shift64, mask, &cp1)
		ScatterKVScalar(keys64, vals64, dpk2, dpv2, shift64, mask, &cp2)
		if cp1 != cp2 {
			t.Fatalf("n=%d ScatterKV[uint64] cursors mismatch", n)
		}
		for i := range dpk1 {
			if dpk1[i] != dpk2[i] || dpv1[i] != dpv2[i] {
				t.Fatalf("n=%d ScatterKV[uint64][%d]: (%d,%v) vs (%d,%v)", n, i, dpk1[i], dpv1[i], dpk2[i], dpv2[i])
			}
		}

		var a1, a2 [256]float64
		AccumKV(keys, vals, mask, &a1)
		AccumKVScalar(keys, vals, mask, &a2)
		if a1 != a2 {
			t.Fatalf("n=%d AccumKV mismatch", n)
		}
		var ap1, ap2 [256]float64
		AccumKV(keys64, vals64, mask, &ap1)
		AccumKVScalar(keys64, vals64, mask, &ap2)
		if ap1 != ap2 {
			t.Fatalf("n=%d AccumKV[uint64] mismatch", n)
		}

		cols := make([]int32, n)
		for i := range cols {
			cols[i] = int32(keys[i] & 0x3ff)
		}
		const localRow = uint32(0x1234) << 10
		ek1, ev1 := make([]uint32, n), make([]float64, n)
		ek2, ev2 := make([]uint32, n), make([]float64, n)
		ExpandKV(ek1, ev1, localRow, cols, vals, 3.25)
		ExpandKVScalar(ek2, ev2, localRow, cols, vals, 3.25)
		for i := range ek1 {
			if ek1[i] != ek2[i] || ev1[i] != ev2[i] {
				t.Fatalf("n=%d ExpandKV[%d] mismatch", n, i)
			}
		}
		ExpandK(ek1, localRow, cols)
		ExpandKScalar(ek2, localRow, cols)
		for i := range ek1 {
			if ek1[i] != ek2[i] {
				t.Fatalf("n=%d ExpandK[%d] mismatch", n, i)
			}
		}
		epk1, epv1 := make([]uint64, n), make([]float64, n)
		epk2, epv2 := make([]uint64, n), make([]float64, n)
		ExpandKV(epk1, epv1, uint64(localRow)<<20, cols, vals, 3.25)
		ExpandKVScalar(epk2, epv2, uint64(localRow)<<20, cols, vals, 3.25)
		for i := range epk1 {
			if epk1[i] != epk2[i] || epv1[i] != epv2[i] {
				t.Fatalf("n=%d ExpandKV[uint64][%d] mismatch", n, i)
			}
		}
	}
}

func TestBatchedMatchesScalarNarrow(t *testing.T) {
	const n = 777
	keys, f64s := genKV(n, 16, 9)
	vals := make([]float32, n)
	ints := make([]int32, n)
	for i := range vals {
		vals[i] = float32(f64s[i])
		ints[i] = int32(i * 3)
	}
	var a1, a2 [256]float32
	AccumKV(keys, vals, 0xff, &a1)
	AccumKVScalar(keys, vals, 0xff, &a2)
	if a1 != a2 {
		t.Fatal("AccumKV float32 mismatch")
	}
	var i1, i2 [256]int32
	AccumKV(keys, ints, 0xff, &i1)
	AccumKVScalar(keys, ints, 0xff, &i2)
	if i1 != i2 {
		t.Fatal("AccumKV int32 mismatch")
	}
}

func TestPrefetchSafe(t *testing.T) {
	buf := make([]byte, 4096)
	PrefetchT0(unsafe.Pointer(&buf[0]))
	PrefetchNTA(unsafe.Pointer(&buf[0]))
	PrefetchRangeT0(unsafe.Pointer(&buf[0]), len(buf))
	PrefetchRangeT0(unsafe.Pointer(&buf[0]), 0)
}

func TestLevel(t *testing.T) {
	lv := Level()
	if Enabled && lv == "purego" {
		t.Fatalf("Enabled but level=%q", lv)
	}
	if !Enabled && lv != "purego" {
		t.Fatalf("disabled but level=%q", lv)
	}
}
