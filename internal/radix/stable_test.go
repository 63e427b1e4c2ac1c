package radix

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The key+value family is one generic implementation, so every table below
// is a generic helper run at K=uint32 here (the squeezed and narrow layouts)
// and at K=uint64 in radix_test.go (the wide layout, ColumnESC and
// COO.Dedup's row<<32|col keys).

// tuple is one (key, value) pair of the oracle.
type tuple[K Key, V Numeric] struct {
	k K
	v V
}

// stableRef is the oracle: the standard library's stable sort, then an
// optional fold of equal keys left to right — exactly the chain
// sort-then-compress runs.
func stableRef[K Key, V Numeric](keys []K, vals []V, fold bool) ([]K, []V) {
	ts := make([]tuple[K, V], len(keys))
	for i := range keys {
		ts[i] = tuple[K, V]{keys[i], vals[i]}
	}
	slices.SortStableFunc(ts, func(a, b tuple[K, V]) int { return cmp.Compare(a.k, b.k) })
	var outK []K
	var outV []V
	for _, t := range ts {
		if fold && len(outK) > 0 && outK[len(outK)-1] == t.k {
			outV[len(outV)-1] += t.v
			continue
		}
		outK = append(outK, t.k)
		outV = append(outV, t.v)
	}
	return outK, outV
}

// sameBits compares values bit for bit, so a −0.0/+0.0 mismatch counts.
func sameBits[V Numeric](a, b V) bool {
	switch x := any(a).(type) {
	case float64:
		return math.Float64bits(x) == math.Float64bits(any(b).(float64))
	case float32:
		return math.Float32bits(x) == math.Float32bits(any(b).(float32))
	}
	return a == b
}

func checkKV[K Key, V Numeric](t *testing.T, name string, keys, wantK []K, vals, wantV []V) {
	t.Helper()
	if len(keys) != len(wantK) {
		t.Fatalf("%s: %d tuples, want %d", name, len(keys), len(wantK))
	}
	for i := range keys {
		if keys[i] != wantK[i] || !sameBits(vals[i], wantV[i]) {
			t.Fatalf("%s: tuple %d = (%d,%v), want (%d,%v)", name, i, keys[i], vals[i], wantK[i], wantV[i])
		}
	}
}

// randKV draws n keys under mask with signed real values unrelated to the
// keys, so any payload reordering among equal keys shows; every fifth value
// is −0.0.
func randKV[K Key](n int, mask K, seed int64) ([]K, []float64) {
	r := rand.New(rand.NewSource(seed))
	keys := make([]K, n)
	vals := make([]float64, n)
	for i := range keys {
		keys[i] = K(r.Uint64()) & mask
		vals[i] = r.NormFloat64()
		if i%5 == 0 {
			vals[i] = math.Copysign(0, -1)
		}
	}
	return keys, vals
}

// sortCase is one row of the sort and partition tables.
type sortCase[K Key] struct {
	n    int
	mask K
}

// testSortTable: SortScratch in both kernel modes must equal the stable
// oracle, payload order under equal keys included.
func testSortTable[K Key](t *testing.T, cases []sortCase[K]) {
	t.Helper()
	for _, tc := range cases {
		keys, vals := randKV(tc.n, tc.mask, int64(tc.n)^int64(tc.mask))
		wantK, wantV := stableRef(keys, vals, false)
		for _, batch := range []bool{false, true} {
			k, v := slices.Clone(keys), slices.Clone(vals)
			SortScratch(k, v, make([]K, tc.n), make([]float64, tc.n), batch)
			checkKV(t, "sort", k, wantK, v, wantV)
		}
	}
}

// testPartitionTable: partition + per-bucket SortBitsScratch must produce
// bit-identical arrays to a single SortScratch call.
func testPartitionTable[K Key](t *testing.T, cases []sortCase[K]) {
	t.Helper()
	for _, tc := range cases {
		keys, vals := randKV(tc.n, tc.mask, 7)
		wantK, wantV := stableRef(keys, vals, false)
		auxK, auxV := make([]K, tc.n), make([]float64, tc.n)
		bounds := make([]int64, MaxPartitionBuckets+1)
		nb, rest := PartitionTopScratch(keys, vals, auxK, auxV, bounds, true)
		for b := range nb {
			lo, hi := bounds[b], bounds[b+1]
			SortBitsScratch(keys[lo:hi], vals[lo:hi], auxK[lo:hi], auxV[lo:hi], rest, true)
		}
		checkKV(t, "partitioned", keys, wantK, vals, wantV)
	}
}

// fusedCase generates one random (keys, vals) slice with heavy duplication:
// keys are drawn below keyRange (all zero when keyRange is 0) and shifted up
// by lift, so a 64-bit table can duplicate keys that live above bit 32.
// Signed values, every seventh −0.0.
func fusedCase[K Key, V Numeric](r *rand.Rand, n int, keyRange K, lift uint) ([]K, []V) {
	keys := make([]K, n)
	vals := make([]V, n)
	for i := range keys {
		if keyRange > 0 {
			keys[i] = K(r.Uint64()) % keyRange << lift
		}
		vals[i] = V(r.NormFloat64() * 100)
		if i%7 == 0 {
			vals[i] = negZero[V]()
		}
	}
	return keys, vals
}

// checkFused runs the fused sort on a copy of (keys, vals) in both kernel
// modes against the stable-sort-then-fold oracle.
func checkFused[K Key, V Numeric](t *testing.T, name string, keys []K, vals []V) {
	t.Helper()
	wantK, wantV := stableRef(keys, vals, true)
	n := len(keys)
	for _, batch := range []bool{false, true} {
		k, v := slices.Clone(keys), slices.Clone(vals)
		m := SortFusedScratch(k, v, make([]K, n), make([]V, n), batch)
		checkKV(t, name, k[:m], wantK, v[:m], wantV)
	}
}

// testFusedTable: the fused sort's prefix must be bit-identical (values
// included — same fold order) to a stable sort followed by the reference
// fold, on every value plane the engine uses, across sizes straddling the
// insertion cutoff and key ranges from all-duplicates to all-distinct.
func testFusedTable[K Key](t *testing.T, ranges []K, lift uint, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 100, 1000, 20000} {
		for _, kr := range ranges {
			keys, vals := fusedCase[K, float64](r, n, kr, lift)
			checkFused(t, "float64", keys, vals)
			keys, vals32 := fusedCase[K, float32](r, n, kr, lift)
			checkFused(t, "float32", keys, vals32)
			keys, valsI := fusedCase[K, int32](r, n, kr, lift)
			checkFused(t, "int32", keys, valsI)
		}
	}
}

// testFusedAfterPartition: a slice split with PartitionTopScratch, with each
// bucket sorted unfused and the whole slice then fold-compressed, must equal
// the whole-slice fused sort — the invariant the engine's oversized-bin path
// relies on.
func testFusedAfterPartition[K Key](t *testing.T, keyRange K, lift uint) {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	keys, vals := fusedCase[K, float64](r, 50000, keyRange, lift)
	n := len(keys)
	splitK, splitV := slices.Clone(keys), slices.Clone(vals)
	auxK, auxV := make([]K, n), make([]float64, n)

	bounds := make([]int64, MaxPartitionBuckets+1)
	nb, rest := PartitionTopScratch(splitK, splitV, auxK, auxV, bounds, true)
	if nb == 0 {
		t.Fatal("partition produced no buckets on a wide key range")
	}
	for b := range nb {
		lo, hi := bounds[b], bounds[b+1]
		SortBitsScratch(splitK[lo:hi], splitV[lo:hi], auxK[lo:hi], auxV[lo:hi], rest, true)
	}
	p2 := 0
	for p1 := 1; p1 < n; p1++ {
		if splitK[p1] == splitK[p2] {
			splitV[p2] += splitV[p1]
			continue
		}
		p2++
		splitK[p2], splitV[p2] = splitK[p1], splitV[p1]
	}

	m := SortFusedScratch(keys, vals, auxK, auxV, true)
	checkKV(t, "fused vs partitioned", keys[:m], splitK[:p2+1], vals[:m], splitV[:p2+1])
}

// testFusedAllocs: the engine-facing fused sort must not touch the heap once
// scratch is provided, batched or scalar.
func testFusedAllocs[K Key](t *testing.T, keyRange K) {
	t.Helper()
	r := rand.New(rand.NewSource(4))
	keys, vals := fusedCase[K, float64](r, 4096, keyRange, 0)
	work, workV := make([]K, len(keys)), make([]float64, len(vals))
	auxK, auxV := make([]K, len(keys)), make([]float64, len(vals))
	for _, batch := range []bool{false, true} {
		allocs := testing.AllocsPerRun(10, func() {
			copy(work, keys)
			copy(workV, vals)
			SortFusedScratch(work, workV, auxK, auxV, batch)
		})
		if allocs != 0 {
			t.Fatalf("batch=%v: SortFusedScratch allocated %.1f times per call, want 0", batch, allocs)
		}
	}
}

func TestSortKeys32MatchesStdlib(t *testing.T) {
	testSortTable(t, []sortCase[uint32]{
		{0, 0xffffffff}, {1, 0xffffffff}, {2, 0xffffffff},
		{31, 0xffffffff}, {32, 0xffffffff}, {33, 0xffffffff},
		{1000, 0xffffffff}, {1000, 0xff}, {1000, 0xffff}, {4096, 0x3ff},
	})
}

func TestSortKeys32AllEqual(t *testing.T) {
	keys := make([]uint32, 500)
	vals := make([]float64, 500)
	for i := range keys {
		keys[i] = 0xdeadbe
		vals[i] = float64(i)
	}
	SortScratch(keys, vals, make([]uint32, 500), make([]float64, 500), true)
	for i := range vals {
		// Equal keys: the stable sorter must not scramble payloads.
		if vals[i] != float64(i) {
			t.Fatalf("payload %d moved under all-equal keys", i)
		}
	}
}

func TestSortKeys32MismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	SortScratch(make([]uint32, 3), make([]float64, 2), make([]uint32, 3), make([]float64, 3), false)
}

func TestPartitionTop32Equivalence(t *testing.T) {
	testPartitionTable(t, []sortCase[uint32]{
		{50000, 0xffffffff}, {50000, 0xffff}, {5000, 0x7},
		{5000, 0xff00}, {257, 0xffffffff}, {4096, 0x1}, {100000, 0x3fffff},
	})
}

func TestPartitionTop32Degenerate(t *testing.T) {
	bounds := make([]int64, MaxPartitionBuckets+1)
	aux := make([]uint32, 4)
	auxV := make([]float64, 4)
	// All keys equal: nothing to do.
	keys := []uint32{7, 7, 7, 7}
	vals := []float64{1, 2, 3, 4}
	if nb, _ := PartitionTopScratch(keys, vals, aux, auxV, bounds, false); nb != 0 {
		t.Fatalf("uniform keys: nbuckets = %d, want 0", nb)
	}
	// Keys within one digit: the splitting pass consumes the last digit and
	// fully sorts the slice, leaving no bucket work.
	keys = []uint32{3, 1, 2, 0}
	vals = []float64{3, 1, 2, 0}
	if nb, _ := PartitionTopScratch(keys, vals, aux, auxV, bounds, false); nb != 0 {
		t.Fatalf("single-digit split: nbuckets = %d, want 0", nb)
	}
	if !slices.IsSorted(keys) {
		t.Fatalf("single-digit split left keys unsorted: %v", keys)
	}
	// Short and empty slices.
	if nb, _ := PartitionTopScratch[uint32, float64](nil, nil, aux, auxV, bounds, false); nb != 0 {
		t.Fatal("nil slice: want 0 buckets")
	}
	if nb, _ := PartitionTopScratch([]uint32{5}, []float64{5}, aux, auxV, bounds, false); nb != 0 {
		t.Fatal("one element: want 0 buckets")
	}
}

func TestGrowUint32(t *testing.T) {
	var buf []uint32
	s := Grow(&buf, 100)
	if len(s) != 100 {
		t.Fatalf("len %d", len(s))
	}
	p := &s[0]
	s2 := Grow(&buf, 50)
	if len(s2) != 50 || &s2[0] != p {
		t.Fatal("shrink reallocated")
	}
	s3 := Grow(&buf, 200)
	if len(s3) != 200 {
		t.Fatal("grow failed")
	}
}

func TestSortKeys32FusedMatchesSortThenCompress(t *testing.T) {
	testFusedTable(t, []uint32{0, 1, 2, 7, 100, 1 << 10, 1 << 22, 0xffffffff}, 0, 1)
}

func TestFusedAfterPartition(t *testing.T) {
	testFusedAfterPartition[uint32](t, 1<<18, 0)
	testFusedAfterPartition[uint64](t, 1<<18, 30)
}

func TestSortKeys32FusedScratchAllocs(t *testing.T) {
	testFusedAllocs[uint32](t, 1<<20)
	testFusedAllocs[uint64](t, 1<<40)
}

// TestSortKeys32PatternMatchesStdlib covers the key-only family: sort,
// partition-then-continue and fused dedup against the standard library.
func TestSortKeys32PatternMatchesStdlib(t *testing.T) {
	for _, tc := range []sortCase[uint32]{
		{0, 0xff}, {1, 0xff}, {33, 0xffffffff}, {1000, 0x3ff}, {50000, 0xffff}, {5000, 0x7},
	} {
		keys, _ := randKV(tc.n, tc.mask, 8)
		want := slices.Clone(keys)
		slices.Sort(want)
		aux := make([]uint32, tc.n)

		got := slices.Clone(keys)
		SortKeys32PatternScratch(got, aux, true)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d mask=%x: pattern sort diverges", tc.n, tc.mask)
		}

		got = slices.Clone(keys)
		bounds := make([]int64, MaxPartitionBuckets+1)
		nb, rest := PartitionTop32PatternScratch(got, aux, bounds, true)
		for b := range nb {
			lo, hi := bounds[b], bounds[b+1]
			SortKeys32BitsPatternScratch(got[lo:hi], aux[lo:hi], rest, true)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d mask=%x: partitioned pattern sort diverges", tc.n, tc.mask)
		}

		got = slices.Clone(keys)
		m := SortKeys32FusedPatternScratch(got, aux, true)
		if !slices.Equal(got[:m], slices.Compact(want)) {
			t.Fatalf("n=%d mask=%x: fused pattern dedup diverges", tc.n, tc.mask)
		}
	}
}

func BenchmarkSortKeys32_64K(b *testing.B) {
	const n = 64 << 10
	keys, vals := randKV[uint32](n, 0x3fffff, 5) // squeezed 22-bit keys
	work := make([]uint32, n)
	workV := make([]float64, n)
	auxK := make([]uint32, n)
	auxV := make([]float64, n)
	b.SetBytes(n * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		copy(workV, vals)
		SortScratch(work, workV, auxK, auxV, true)
	}
}

func BenchmarkSortFused(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	const n = 64 << 10
	keys, vals := fusedCase[uint32, float64](r, n, 1<<14, 0) // heavy duplication: cf ≈ 4
	wk := make([]uint32, n)
	wv := make([]float64, n)
	auxK := make([]uint32, n)
	auxV := make([]float64, n)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(n * 12)
		for i := 0; i < b.N; i++ {
			copy(wk, keys)
			copy(wv, vals)
			SortFusedScratch(wk, wv, auxK, auxV, true)
		}
	})
	b.Run("sort-then-compress", func(b *testing.B) {
		b.SetBytes(n * 12)
		for i := 0; i < b.N; i++ {
			copy(wk, keys)
			copy(wv, vals)
			SortScratch(wk, wv, auxK, auxV, true)
			p2 := 0
			for p1 := 1; p1 < n; p1++ {
				if wk[p1] == wk[p2] {
					wv[p2] += wv[p1]
					continue
				}
				p2++
				wk[p2] = wk[p1]
				wv[p2] = wv[p1]
			}
		}
	})
}
