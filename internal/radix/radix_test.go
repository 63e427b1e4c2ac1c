package radix

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// The K=uint64 runs of the key+value tables (stable_test.go): the wide
// layout's 8-byte key plane, ColumnESC and COO.Dedup. Keys span both halves
// of the word, so every table meets keys ≥ 2^32.

// checkSortWide sorts copies of (keys, vals) with SortScratch in both kernel
// modes and requires the exact stable oracle order.
func checkSortWide(t *testing.T, name string, keys []uint64, vals []float64) {
	t.Helper()
	wantK, wantV := stableRef(keys, vals, false)
	for _, batch := range []bool{false, true} {
		k, v := slices.Clone(keys), slices.Clone(vals)
		SortScratch(k, v, make([]uint64, len(k)), make([]float64, len(v)), batch)
		checkKV(t, name, k, wantK, v, wantV)
	}
}

func TestSortPairsRandom(t *testing.T) {
	var cases []sortCase[uint64]
	for _, n := range []int{0, 1, 2, 3, 15, 16, 31, 32, 33, 100, 1000, 10000} {
		cases = append(cases, sortCase[uint64]{n, ^uint64(0)})
	}
	testSortTable(t, cases)
}

// TestSortPairsSmallKeys: keys confined to a few low bits — the squeezed-key
// case PB-SpGEMM produces — up to keys just past 2^32 and 2^40, including
// duplicate-heavy ranges where stability shows.
func TestSortPairsSmallKeys(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{31, 32, 33, 500, 20000} {
		for _, maxKey := range []uint64{2, 256, 65535, 1 << 20, 1 << 32, 1<<32 + 3, 1 << 40} {
			keys, vals := randKV(n, ^uint64(0), r.Int63())
			for i := range keys {
				keys[i] %= maxKey
			}
			checkSortWide(t, "small keys", keys, vals)
		}
	}
}

func TestSortPairsEdgeCases(t *testing.T) {
	// All equal keys above 2^32: a stable sort keeps payloads in arrival order.
	keys := make([]uint64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i], vals[i] = 42<<32, float64(i)
	}
	checkSortWide(t, "all equal", keys, vals)
	// All zeros.
	checkSortWide(t, "all zero", make([]uint64, 100), make([]float64, 100))
	// Reverse sorted, spanning digit boundaries and the 32-bit boundary.
	keys, vals = make([]uint64, 4000), make([]float64, 4000)
	for i := range keys {
		keys[i], vals[i] = uint64(len(keys)-i)<<20, float64(i)
	}
	checkSortWide(t, "reverse", keys, vals)
}

// TestSortPairsMismatchedLengthsPanics: a scratch plane shorter than the
// tuples is a caller bug and must not be silently tolerated.
func TestSortPairsMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short scratch")
		}
	}()
	keys := []uint64{3 << 32, 1, 2}
	SortScratch(keys, make([]float64, 3), make([]uint64, 2), make([]float64, 2), false)
}

func TestQuickSortPairs(t *testing.T) {
	f := func(raw []uint64, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		keys := make([]uint64, len(raw))
		vals := make([]float64, len(raw))
		for i, k := range raw {
			keys[i] = k % 1024 << 31
			vals[i] = r.Float64()
		}
		wantK, wantV := stableRef(keys, vals, false)
		SortScratch(keys, vals, make([]uint64, len(keys)), make([]float64, len(vals)), true)
		return slices.Equal(keys, wantK) && slices.Equal(vals, wantV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// passes is the number of splitting passes the digit plan makes on a large
// bin whose key OR is x — the quantity the paper's key-squeezing argument
// minimizes (8 for raw 8-byte keys, 4 for squeezed 4-byte keys). The plan
// starts at the highest occupied bit, so the key's width in memory does not
// enter.
func passes(x uint64) int {
	p := 0
	for hi := bits.Len64(x); hi > 0; hi -= digitWidth(1<<20, hi) {
		p++
	}
	return p
}

func TestPasses(t *testing.T) {
	cases := map[uint64]int{
		0:                0,
		1:                1,
		255:              1,
		256:              2,
		1<<16 - 1:        2,
		1 << 16:          3,
		1 << 24:          4,
		1<<32 - 1:        4,
		1 << 32:          5,
		1 << 63:          8,
		^uint64(0):       8,
		0x0000_0fff_ffff: 4,
	}
	for x, want := range cases {
		if got := passes(x); got != want {
			t.Errorf("passes(%#x) = %d, want %d", x, got, want)
		}
	}
}

func TestKeySqueezingNeedsFourPasses(t *testing.T) {
	// The paper's example: 1M rows, 1K bins => 10-bit local row, 20-bit col
	// => 30-bit keys => 4 radix passes instead of 8.
	localRowBits, colBits := uint(10), uint(20)
	maxKey := (uint64(1)<<localRowBits - 1) << colBits
	maxKey |= uint64(1)<<colBits - 1
	if got := passes(maxKey); got != 4 {
		t.Fatalf("squeezed key passes = %d, want 4", got)
	}
	// Unsqueezed 64-bit (row<<32|col) with 20-bit ids needs 7 passes.
	unsqueezed := uint64(1<<20-1)<<32 | uint64(1<<20-1)
	if got := passes(unsqueezed); got != 7 {
		t.Fatalf("unsqueezed key passes = %d, want 7", got)
	}
}

// TestPartitionPairsTopByteEquivalence: the split-bin path — one
// PartitionTopScratch pass, then SortBitsScratch per bucket — must equal one
// whole-slice SortScratch on 64-bit keys.
func TestPartitionPairsTopByteEquivalence(t *testing.T) {
	testPartitionTable(t, []sortCase[uint64]{
		{5000, 0xffffffffffff}, {5000, 0xffff}, {5000, 0xff}, {5000, 0x3}, {5000, 0},
		{50000, ^uint64(0)}, {50000, 0xffff_0000_0000}, {4096, 1 << 40},
	})
}

func TestSortPairsFusedMatchesSortThenCompress(t *testing.T) {
	// Unlifted ranges keep keys below 2^32 in a 64-bit plane; the lifted
	// run duplicates keys that live entirely above bit 32.
	ranges := []uint64{0, 1, 2, 7, 100, 1 << 10, 1 << 22, 1 << 40, ^uint64(0)}
	testFusedTable(t, ranges, 0, 2)
	testFusedTable(t, []uint64{1, 7, 1 << 10, 1 << 22}, 33, 3)
}

func BenchmarkSortWide64K(b *testing.B) {
	// One L2-sized bin: 64K tuples with 30-bit keys held in the wide
	// layout's 8-byte key plane.
	const n = 64 << 10
	keys, vals := randKV[uint64](n, 1<<30-1, 1)
	work, workV := make([]uint64, n), make([]float64, n)
	auxK, auxV := make([]uint64, n), make([]float64, n)
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		copy(workV, vals)
		SortScratch(work, workV, auxK, auxV, true)
	}
}

// TestFusedKeepsNegativeZero: a run of −0.0 values folds to −0.0 in the
// two-pointer reference, so the fused sorts' last-digit accumulators must
// not start from +0.0. Enough tuples per bin that the recursion reaches the
// last-digit accumulate rather than the insertion fold.
func TestFusedKeepsNegativeZero(t *testing.T) {
	const n = 4096
	nz := math.Copysign(0, -1)
	r := rand.New(rand.NewSource(6))
	keys := make([]uint32, n)
	keys64 := make([]uint64, n)
	vals := make([]float64, n)
	vals32 := make([]float32, n)
	for i := range n {
		k := uint32(r.Intn(1 << 10))
		keys[i], keys64[i], vals[i], vals32[i] = k, uint64(k)<<32, nz, float32(nz)
	}
	for _, batch := range []bool{false, true} {
		wk, wv := slices.Clone(keys64), slices.Clone(vals)
		m := SortFusedScratch(wk, wv, make([]uint64, n), make([]float64, n), batch)
		for i := range m {
			if !math.Signbit(wv[i]) {
				t.Fatalf("wide batch=%v: tuple %d folded to %v, want -0", batch, i, wv[i])
			}
		}
		wk32, wv := slices.Clone(keys), slices.Clone(vals)
		m = SortFusedScratch(wk32, wv, make([]uint32, n), make([]float64, n), batch)
		for i := range m {
			if !math.Signbit(wv[i]) {
				t.Fatalf("squeezed batch=%v: tuple %d folded to %v, want -0", batch, i, wv[i])
			}
		}
		wk32, wv32 := slices.Clone(keys), slices.Clone(vals32)
		m = SortFusedScratch(wk32, wv32, make([]uint32, n), make([]float32, n), batch)
		for i := range m {
			if !math.Signbit(float64(wv32[i])) {
				t.Fatalf("narrow batch=%v: tuple %d folded to %v, want -0", batch, i, wv32[i])
			}
		}
	}
}
