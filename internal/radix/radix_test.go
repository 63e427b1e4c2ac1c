package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// stablePairsRef is the wide-layout oracle: the standard library's stable
// sort by key. Every sorter here is stable, so the match is exact, payload
// order under equal keys included.
func stablePairsRef(ps []Pair) []Pair {
	out := slices.Clone(ps)
	slices.SortStableFunc(out, func(a, b Pair) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// foldPairsRef is the two-pointer compress the fused sorts must reproduce
// bit for bit: fold equal keys left to right over stably sorted input.
func foldPairsRef(sorted []Pair) []Pair {
	var out []Pair
	for _, p := range sorted {
		if len(out) > 0 && out[len(out)-1].Key == p.Key {
			out[len(out)-1].Val += p.Val
			continue
		}
		out = append(out, p)
	}
	return out
}

func randPairs(r *rand.Rand, n int, keyMask uint64) []Pair {
	ps := make([]Pair, n)
	for i := range ps {
		ps[i] = Pair{Key: r.Uint64() & keyMask, Val: r.NormFloat64()}
	}
	return ps
}

// checkSortPairs sorts a copy of ps with SortPairsStable in both kernel
// modes and requires the exact oracle order.
func checkSortPairs(t *testing.T, name string, ps []Pair) {
	t.Helper()
	want := stablePairsRef(ps)
	for _, batch := range []bool{false, true} {
		got := slices.Clone(ps)
		SortPairsStable(got, make([]Pair, len(got)), batch)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s batch=%v: tuple %d = %+v, want %+v", name, batch, i, got[i], want[i])
			}
		}
	}
}

func TestSortPairsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 15, 16, 31, 32, 33, 100, 1000, 10000} {
		checkSortPairs(t, "random", randPairs(r, n, ^uint64(0)))
	}
}

// TestSortPairsSmallKeys: keys confined to few bytes — the squeezed-key case
// PB-SpGEMM produces — and duplicate-heavy ranges where stability shows.
func TestSortPairsSmallKeys(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{31, 32, 33, 500, 20000} {
		for _, maxKey := range []uint64{2, 256, 65535, 1 << 20, 1 << 32, 1 << 40} {
			ps := randPairs(r, n, ^uint64(0))
			for i := range ps {
				ps[i].Key %= maxKey
			}
			checkSortPairs(t, "small keys", ps)
		}
	}
}

func TestSortPairsEdgeCases(t *testing.T) {
	// All equal keys: a stable sort keeps payloads in arrival order.
	equal := make([]Pair, 100)
	for i := range equal {
		equal[i] = Pair{Key: 42, Val: float64(i)}
	}
	checkSortPairs(t, "all equal", equal)
	// All zeros.
	checkSortPairs(t, "all zero", make([]Pair, 100))
	// Reverse sorted, spanning byte boundaries.
	rev := make([]Pair, 4000)
	for i := range rev {
		rev[i] = Pair{Key: uint64(len(rev) - i), Val: float64(i)}
	}
	checkSortPairs(t, "reverse", rev)
}

// TestSortPairsMismatchedLengthsPanics: a scratch plane shorter than the
// tuples is a caller bug and must not be silently tolerated.
func TestSortPairsMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short scratch")
		}
	}()
	ps := []Pair{{Key: 3}, {Key: 1}, {Key: 2}}
	SortPairsStable(ps, make([]Pair, 2), false)
}

func TestQuickSortPairs(t *testing.T) {
	f := func(keys []uint64, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := make([]Pair, len(keys))
		for i, k := range keys {
			ps[i] = Pair{Key: k % 1024, Val: r.Float64()}
		}
		want := stablePairsRef(ps)
		SortPairsStable(ps, make([]Pair, len(ps)), true)
		return slices.Equal(ps, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// passes is the number of byte digits the wide sorter can split on for
// keys whose OR is x — the quantity the paper's key-squeezing argument
// minimizes (8 for raw 8-byte keys, 4 for squeezed 4-byte keys).
func passes(x uint64) int {
	if x == 0 {
		return 0
	}
	return topByte(x) + 1
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
// PartitionPairsScratch pass, then SortPairsAtByteStable per bucket — must
// equal one whole-slice SortPairsStable.
func TestPartitionPairsTopByteEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, mask := range []uint64{0xffffffffffff, 0xffff, 0xff, 0x3, 0} {
		ps := randPairs(r, 5000, mask)
		want := stablePairsRef(ps)
		aux := make([]Pair, len(ps))
		bounds := make([]int64, maxBuckets+1)
		nb, next := PartitionPairsScratch(ps, aux, bounds, true)
		for b := range nb {
			lo, hi := bounds[b], bounds[b+1]
			SortPairsAtByteStable(ps[lo:hi], aux[lo:hi], next, true)
		}
		if !slices.Equal(ps, want) {
			t.Fatalf("mask=%x: partitioned pair sort diverges from whole sort", mask)
		}
	}
}

// TestSortPairsFusedMatchesSortThenCompress: the fused sort's prefix must be
// bit-identical (values included — same fold order) to the stable sort
// followed by the reference compress, across sizes straddling the insertion
// cutoff and key ranges from all-duplicates to all-distinct.
func TestSortPairsFusedMatchesSortThenCompress(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 100, 1000, 20000} {
		for _, kr := range []uint64{0, 1, 2, 7, 100, 1 << 10, 1 << 22, 1 << 40} {
			ps := randPairs(r, n, ^uint64(0))
			for i := range ps {
				if kr == 0 {
					ps[i].Key = 0
				} else {
					ps[i].Key %= kr
				}
			}
			want := foldPairsRef(stablePairsRef(ps))
			for _, batch := range []bool{false, true} {
				got := slices.Clone(ps)
				m := SortPairsFusedScratch(got, make([]Pair, n), batch)
				if m != int64(len(want)) {
					t.Fatalf("n=%d kr=%d batch=%v: fused len %d, want %d", n, kr, batch, m, len(want))
				}
				for i := range m {
					if !samePair(got[i], want[i]) {
						t.Fatalf("n=%d kr=%d batch=%v: tuple %d = %+v, want %+v", n, kr, batch, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func BenchmarkSortPairsStable64K(b *testing.B) {
	// One L2-sized bin: 64K tuples with 30-bit (squeezed) keys, the PB sort
	// phase's unit of work on the wide layout.
	r := rand.New(rand.NewSource(1))
	src := randPairs(r, 1<<16, 1<<30-1)
	work := make([]Pair, len(src))
	aux := make([]Pair, len(src))
	b.SetBytes(int64(len(src) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		SortPairsStable(work, aux, true)
	}
}

// samePair compares tuples bit for bit, so a −0.0/+0.0 mismatch counts.
func samePair(a, b Pair) bool {
	return a.Key == b.Key && math.Float64bits(a.Val) == math.Float64bits(b.Val)
}

// TestFusedKeepsNegativeZero: a run of −0.0 values folds to −0.0 in the
// two-pointer reference, so the fused sorts' last-digit accumulators must
// not start from +0.0. Enough tuples per bin that the recursion reaches the
// last-digit accumulate rather than the insertion fold.
func TestFusedKeepsNegativeZero(t *testing.T) {
	const n = 4096
	nz := math.Copysign(0, -1)
	r := rand.New(rand.NewSource(6))
	ps := make([]Pair, n)
	keys := make([]uint32, n)
	vals := make([]float64, n)
	vals32 := make([]float32, n)
	for i := range n {
		k := uint32(r.Intn(1 << 10))
		ps[i] = Pair{Key: uint64(k), Val: nz}
		keys[i], vals[i], vals32[i] = k, nz, float32(nz)
	}
	for _, batch := range []bool{false, true} {
		wp := slices.Clone(ps)
		m := SortPairsFusedScratch(wp, make([]Pair, n), batch)
		for i := range m {
			if !math.Signbit(wp[i].Val) {
				t.Fatalf("wide batch=%v: tuple %d folded to %v, want -0", batch, i, wp[i].Val)
			}
		}
		wk, wv := slices.Clone(keys), slices.Clone(vals)
		m = SortKeys32FusedScratch(wk, wv, make([]uint32, n), make([]float64, n), batch)
		for i := range m {
			if !math.Signbit(wv[i]) {
				t.Fatalf("squeezed batch=%v: tuple %d folded to %v, want -0", batch, i, wv[i])
			}
		}
		wk, wv32 := slices.Clone(keys), slices.Clone(vals32)
		m = SortKeys32FusedScratch(wk, wv32, make([]uint32, n), make([]float32, n), batch)
		for i := range m {
			if !math.Signbit(float64(wv32[i])) {
				t.Fatalf("narrow batch=%v: tuple %d folded to %v, want -0", batch, i, wv32[i])
			}
		}
	}
}
