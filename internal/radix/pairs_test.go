package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// These tests hold the 64-bit key sort to its in-place contract: SortScratch
// leaves the result in the caller's planes (auxK/auxV are scratch only),
// which is what COO.Dedup relies on for its row<<32|col keys.

func sortWideInPlace(keys []uint64, vals []float64) {
	SortScratch(keys, vals, make([]uint64, len(keys)), make([]float64, len(vals)), true)
}

// keysSorted reports whether keys are in nondecreasing order.
func keysSorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			return false
		}
	}
	return true
}

func TestSortPairsInPlaceMatchesStdlib(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 500, 20000} {
		for _, maxKey := range []uint64{2, 256, 1 << 20, 1 << 40, ^uint64(0)} {
			keys := make([]uint64, n)
			vals := make([]float64, n)
			idx := make([]int, n)
			for i := range keys {
				keys[i], vals[i], idx[i] = r.Uint64()%maxKey, r.Float64(), i
			}
			sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
			wantK, wantV := make([]uint64, n), make([]float64, n)
			for i, j := range idx {
				wantK[i], wantV[i] = keys[j], vals[j]
			}
			sortWideInPlace(keys, vals)
			if !keysSorted(keys) {
				t.Fatalf("n=%d maxKey=%d: not sorted", n, maxKey)
			}
			for i := range keys {
				if keys[i] != wantK[i] || vals[i] != wantV[i] {
					t.Fatalf("n=%d maxKey=%d: tuple %d = (%d,%v), want (%d,%v)", n, maxKey, i, keys[i], vals[i], wantK[i], wantV[i])
				}
			}
		}
	}
}

func TestSortPairsInPlacePreservesPayloadMultiset(t *testing.T) {
	f := func(raw []uint64) bool {
		keys := make([]uint64, len(raw))
		vals := make([]float64, len(raw))
		sum := 0.0
		for i, k := range raw {
			keys[i], vals[i] = k%1024<<32, float64(i)
			sum += float64(i)
		}
		sortWideInPlace(keys, vals)
		var got float64
		seen := make(map[float64]bool)
		for _, v := range vals {
			if seen[v] {
				return false // payload duplicated
			}
			seen[v] = true
			got += v
		}
		return got == sum && keysSorted(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSortPairsInPlaceAllEqual(t *testing.T) {
	keys := make([]uint64, 100)
	vals := make([]float64, 100)
	for i := range keys {
		keys[i], vals[i] = 42<<32|7, float64(i)
	}
	sortWideInPlace(keys, vals)
	if !keysSorted(keys) {
		t.Fatal("equal keys broke sorting")
	}
	for i, v := range vals {
		if v != float64(i) {
			t.Fatalf("tuple %d carries payload %v; equal keys must keep arrival order", i, v)
		}
	}
}
