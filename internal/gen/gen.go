// Package gen generates the synthetic matrices used throughout the paper's
// evaluation: Erdős–Rényi (ER) random matrices with a fixed number of
// nonzeros per column, R-MAT power-law matrices with the Graph500 parameters,
// and degree-profile surrogates for the 12 SuiteSparse matrices of Table VI.
//
// All generators are deterministic given a seed, use an embedded
// SplitMix64/xoshiro-style PRNG (stdlib-only, reproducible across Go
// versions), and return matrices with duplicate coordinates already merged,
// matching how the paper counts nnz.
package gen

import (
	"math"

	"pbspgemm/internal/matrix"
)

// rng is a SplitMix64 PRNG. It is deliberately tiny and deterministic so
// matrix generation is reproducible across platforms and Go releases
// (math/rand's stream is not guaranteed stable between versions).
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed + 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int32) int32 {
	return int32(r.next() % uint64(n))
}

// float64v returns a uniform float in [0, 1).
func (r *rng) float64v() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// ER generates an n-by-n Erdős–Rényi matrix with exactly d nonzeros placed
// uniformly at random in each column (the paper's "ER matrix with d nonzeros
// per column"). Values are uniform in [0,1). Collisions within a column are
// re-drawn so every column has exactly min(d, n) distinct entries.
func ER(n int32, d int, seed uint64) *matrix.CSR {
	if int32(d) > n {
		d = int(n)
	}
	r := newRNG(seed)
	coo := &matrix.COO{NumRows: n, NumCols: n}
	seen := make(map[int32]struct{}, d)
	for j := int32(0); j < n; j++ {
		clear(seen)
		for len(seen) < d {
			i := r.intn(n)
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, r.float64v())
		}
	}
	return coo.ToCSR()
}

// RMATParams are the four R-MAT quadrant probabilities. They must sum to 1.
type RMATParams struct{ A, B, C, D float64 }

// ERParams is the uniform R-MAT parameterization (a=b=c=d=0.25); with it
// RMAT degenerates to an ER-like generator.
var ERParams = RMATParams{0.25, 0.25, 0.25, 0.25}

// Graph500Params are the skewed parameters the paper calls "RMAT"
// (a=0.57, b=c=0.19, d=0.05), producing heavy-tailed degree distributions.
var Graph500Params = RMATParams{0.57, 0.19, 0.19, 0.05}

// RMAT generates a 2^scale square matrix with edgeFactor*2^scale sampled
// edges using the recursive R-MAT process. Duplicate edges are merged
// (summing values), so the returned nnz can be slightly below
// edgeFactor*2^scale for skewed parameters — the same effect the Graph500
// generator exhibits and the paper inherits.
func RMAT(scale int, edgeFactor int, p RMATParams, seed uint64) *matrix.CSR {
	n := int32(1) << scale
	m := int64(edgeFactor) * int64(n)
	r := newRNG(seed)
	coo := &matrix.COO{
		NumRows: n, NumCols: n,
		Row: make([]int32, m), Col: make([]int32, m), Val: make([]float64, m),
	}
	// Precompute cumulative quadrant probabilities.
	ab := p.A + p.B
	abc := p.A + p.B + p.C
	for e := int64(0); e < m; e++ {
		var row, col int32
		for bit := scale - 1; bit >= 0; bit-- {
			u := r.float64v()
			switch {
			case u < p.A:
				// top-left: nothing set
			case u < ab:
				col |= 1 << bit
			case u < abc:
				row |= 1 << bit
			default:
				row |= 1 << bit
				col |= 1 << bit
			}
		}
		coo.Row[e] = row
		coo.Col[e] = col
		coo.Val[e] = r.float64v()
	}
	return coo.ToCSR()
}

// ERMatrix is the paper's ER workload at a Graph500-style (scale, edgeFactor)
// parameterization: 2^scale rows/cols with edgeFactor nonzeros per column.
func ERMatrix(scale, edgeFactor int, seed uint64) *matrix.CSR {
	return ER(1<<scale, edgeFactor, seed)
}

// Banded generates an n-by-n matrix with a dense band of the given half-width
// around the diagonal (entries at |i-j| <= halfWidth). Mesh-like SuiteSparse
// matrices (cant, hood, offshore, 2cubes_sphere) have this locality profile;
// banded surrogates reproduce their high compression factors.
func Banded(n int32, halfWidth int32, seed uint64) *matrix.CSR {
	r := newRNG(seed)
	coo := &matrix.COO{NumRows: n, NumCols: n}
	for i := int32(0); i < n; i++ {
		lo := i - halfWidth
		if lo < 0 {
			lo = 0
		}
		hi := i + halfWidth
		if hi >= n {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, r.float64v())
		}
	}
	return coo.ToCSR()
}

// PowerLawDegrees returns n column degrees following a truncated discrete
// power law with exponent alpha, average targetAvg and maximum maxDeg.
// Used to mimic scale-free matrices such as web-Google and patents_main.
func PowerLawDegrees(n int32, targetAvg float64, alpha float64, maxDeg int, seed uint64) []int {
	r := newRNG(seed)
	degs := make([]int, n)
	var sum float64
	for i := range degs {
		// Inverse-CDF sampling of P(k) ~ k^-alpha on [1, maxDeg].
		u := r.float64v()
		k := math.Pow((math.Pow(float64(maxDeg), 1-alpha)-1)*u+1, 1/(1-alpha))
		degs[i] = int(k)
		if degs[i] < 1 {
			degs[i] = 1
		}
		sum += float64(degs[i])
	}
	// Rescale to hit the target average (approximately).
	ratio := targetAvg * float64(n) / sum
	for i := range degs {
		d := int(math.Round(float64(degs[i]) * ratio))
		if d < 1 {
			d = 1
		}
		if d > maxDeg {
			d = maxDeg
		}
		degs[i] = d
	}
	return degs
}
