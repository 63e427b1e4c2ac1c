package gen

import (
	"math"
	"testing"
	"testing/quick"

	"pbspgemm/internal/matrix"
)

func TestERExactDegree(t *testing.T) {
	n, d := int32(500), 7
	m := ER(n, d, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumRows != n || m.NumCols != n {
		t.Fatalf("shape %dx%d, want %dx%d", m.NumRows, m.NumCols, n, n)
	}
	if m.NNZ() != int64(n)*int64(d) {
		t.Fatalf("nnz = %d, want %d", m.NNZ(), int64(n)*int64(d))
	}
	// Every column has exactly d entries.
	csc := m.ToCSC()
	for j := int32(0); j < n; j++ {
		if got := csc.ColNNZ(j); got != int64(d) {
			t.Fatalf("column %d has %d nonzeros, want %d", j, got, d)
		}
	}
}

func TestERDeterministicAndSeedSensitive(t *testing.T) {
	a := ER(128, 4, 42)
	b := ER(128, 4, 42)
	if !matrix.Equal(a, b, 0) {
		t.Fatal("same seed produced different matrices")
	}
	c := ER(128, 4, 43)
	if matrix.Equal(a, c, 0) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestERDegreeClamped(t *testing.T) {
	m := ER(8, 100, 1) // d > n must clamp to a fully dense column
	if m.NNZ() != 64 {
		t.Fatalf("nnz = %d, want 64 (dense)", m.NNZ())
	}
}

func TestRMATShapeAndDeterminism(t *testing.T) {
	m := RMAT(8, 8, Graph500Params, 5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumRows != 256 || m.NumCols != 256 {
		t.Fatalf("shape %dx%d, want 256x256", m.NumRows, m.NumCols)
	}
	// Duplicates merge, so nnz <= edges; but most edges should survive.
	if m.NNZ() > 256*8 || m.NNZ() < 256*4 {
		t.Fatalf("nnz = %d out of plausible range", m.NNZ())
	}
	m2 := RMAT(8, 8, Graph500Params, 5)
	if !matrix.Equal(m, m2, 0) {
		t.Fatal("RMAT not deterministic")
	}
}

func TestRMATSkewedness(t *testing.T) {
	// Graph500 parameters must produce a much more skewed row-degree
	// distribution than uniform parameters at the same scale/edge factor.
	skew := RMAT(12, 8, Graph500Params, 3)
	unif := RMAT(12, 8, ERParams, 3)
	maxDeg := func(m *matrix.CSR) int64 {
		var mx int64
		for i := int32(0); i < m.NumRows; i++ {
			if d := m.RowNNZ(i); d > mx {
				mx = d
			}
		}
		return mx
	}
	if maxDeg(skew) < 3*maxDeg(unif) {
		t.Fatalf("Graph500 max degree %d not >> uniform %d", maxDeg(skew), maxDeg(unif))
	}
}

func TestRMATFlopsExceedERFlops(t *testing.T) {
	// Skew raises flops = sum d_in*d_out above the uniform case; this is the
	// property that makes Fig. 9 differ from Fig. 7.
	skew := RMAT(11, 8, Graph500Params, 9)
	unif := RMAT(11, 8, ERParams, 9)
	if matrix.FlopsCSR(skew, skew) <= matrix.FlopsCSR(unif, unif) {
		t.Fatal("expected RMAT flops to exceed ER flops")
	}
}

func TestBanded(t *testing.T) {
	m := Banded(100, 2, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior rows have 2*2+1 = 5 entries.
	if got := m.RowNNZ(50); got != 5 {
		t.Fatalf("interior row nnz = %d, want 5", got)
	}
	if got := m.RowNNZ(0); got != 3 {
		t.Fatalf("boundary row nnz = %d, want 3", got)
	}
	// Squaring a band doubles the width: cf should be around d/2 > 1.5.
	st := MeasureStats(m)
	if st.CF < 1.5 {
		t.Fatalf("banded cf = %v, want > 1.5", st.CF)
	}
}

func TestPowerLawDegrees(t *testing.T) {
	degs := PowerLawDegrees(10000, 6.0, 2.1, 300, 7)
	var sum, mx float64
	for _, d := range degs {
		if d < 1 || d > 300 {
			t.Fatalf("degree %d out of bounds", d)
		}
		sum += float64(d)
		if float64(d) > mx {
			mx = float64(d)
		}
	}
	avg := sum / float64(len(degs))
	if math.Abs(avg-6.0) > 1.5 {
		t.Fatalf("average degree %v too far from target 6", avg)
	}
	if mx < 30 {
		t.Fatalf("max degree %v shows no heavy tail", mx)
	}
}

func TestSurrogateCatalogStats(t *testing.T) {
	// At reduced scale every surrogate must produce a valid matrix whose
	// degree lands near the published value and whose squaring cf is in the
	// right regime (the Fig. 11 x-axis ordering only needs the regime).
	for _, s := range Catalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			m := s.Generate(16, 99)
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			st := MeasureStats(m)
			if math.Abs(st.D-s.Degree) > s.Degree*0.35+1 {
				t.Errorf("degree %.2f, published %.2f", st.D, s.Degree)
			}
			if st.CF < 1 {
				t.Errorf("cf %v < 1", st.CF)
			}
			// High-cf surrogates must stay clearly above the PB crossover
			// (cf≈4) and low-cf ones clearly below, preserving Fig. 11's
			// qualitative ordering.
			if s.PubCF > 10 && st.CF < 5 {
				t.Errorf("cf %.2f too low for %s (published %.2f)", st.CF, s.Name, s.PubCF)
			}
			if s.PubCF < 2.5 && st.CF > 5 {
				t.Errorf("cf %.2f too high for %s (published %.2f)", st.CF, s.Name, s.PubCF)
			}
		})
	}
}

func TestCatalogIsTableVI(t *testing.T) {
	cat := Catalog()
	if len(cat) != 12 {
		t.Fatalf("catalog has %d entries, want 12", len(cat))
	}
	names := map[string]bool{}
	for _, s := range cat {
		names[s.Name] = true
		if s.N <= 0 || s.Degree <= 0 || s.PubCF < 1 {
			t.Errorf("%s: implausible published stats", s.Name)
		}
	}
	for _, want := range []string{"cant", "hood", "web-Google", "mc2depi"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestRNGQuickUniform(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		// Intn stays in range and Float64 in [0,1).
		for i := 0; i < 100; i++ {
			if v := r.Intn(17); v < 0 || v >= 17 {
				return false
			}
			if f := r.Float64(); f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
