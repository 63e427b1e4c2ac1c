package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// These tests hold the pair sort to its in-place contract: SortPairsStable
// leaves the result in the caller's slice (aux is scratch only), which is
// what COO.Dedup and ColumnESC rely on.

// pairsSorted reports whether ps is in nondecreasing key order.
func pairsSorted(ps []Pair) bool {
	for i := 1; i < len(ps); i++ {
		if ps[i].Key < ps[i-1].Key {
			return false
		}
	}
	return true
}

func sortPairsInPlace(ps []Pair) {
	SortPairsStable(ps, make([]Pair, len(ps)), true)
}

func TestSortPairsInPlaceMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 500, 20000} {
		for _, maxKey := range []uint64{2, 256, 1 << 20, 1 << 40, ^uint64(0)} {
			ps := make([]Pair, n)
			for i := range ps {
				ps[i] = Pair{Key: r.Uint64() % maxKey, Val: r.Float64()}
			}
			want := append([]Pair(nil), ps...)
			sort.SliceStable(want, func(a, b int) bool { return want[a].Key < want[b].Key })
			sortPairsInPlace(ps)
			if !pairsSorted(ps) {
				t.Fatalf("n=%d maxKey=%d: not sorted", n, maxKey)
			}
			for i := range ps {
				if ps[i] != want[i] {
					t.Fatalf("n=%d maxKey=%d: tuple %d = %+v, want %+v", n, maxKey, i, ps[i], want[i])
				}
			}
		}
	}
}

func TestSortPairsInPlacePreservesPayloadMultiset(t *testing.T) {
	f := func(keys []uint64) bool {
		ps := make([]Pair, len(keys))
		sum := 0.0
		for i, k := range keys {
			ps[i] = Pair{Key: k % 1024, Val: float64(i)}
			sum += float64(i)
		}
		sortPairsInPlace(ps)
		var got float64
		seen := make(map[float64]bool)
		for _, p := range ps {
			if seen[p.Val] {
				return false // payload duplicated
			}
			seen[p.Val] = true
			got += p.Val
		}
		return got == sum && pairsSorted(ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsInPlaceAllEqual(t *testing.T) {
	ps := make([]Pair, 100)
	for i := range ps {
		ps[i] = Pair{Key: 42, Val: float64(i)}
	}
	sortPairsInPlace(ps)
	if !pairsSorted(ps) {
		t.Fatal("equal keys broke sorting")
	}
	for i, p := range ps {
		if p.Val != float64(i) {
			t.Fatalf("tuple %d carries payload %v; equal keys must keep arrival order", i, p.Val)
		}
	}
}
