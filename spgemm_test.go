package pbspgemm

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pbspgemm/internal/matrix"
)

// mustEngine returns an Engine with the given defaults or fails the test.
func mustEngine(tb testing.TB, defaults ...Option) *Engine {
	tb.Helper()
	eng, err := NewEngine(defaults...)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// multiply computes a*b on a fresh Engine or fails the test.
func multiply(tb testing.TB, a, b *CSR, opts ...Option) *Result {
	tb.Helper()
	res, err := mustEngine(tb).Multiply(context.Background(), a, b, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// allAlgorithms is every concrete kernel the Engine dispatches.
var allAlgorithms = []Algorithm{PB, Heap, Hash, HashVec, SPA, OuterHeapNaive, ColumnESC}

func TestPublicMultiplyAllAlgorithms(t *testing.T) {
	a := NewER(256, 6, 1)
	b := NewER(256, 6, 2)
	want := Reference(a, b)
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			res := multiply(t, a, b, WithAlgorithm(alg))
			if !EqualWithin(want, res.C, 1e-9) {
				t.Fatal("result differs from reference")
			}
			if res.Algorithm != alg {
				t.Errorf("result reports %v, want %v", res.Algorithm, alg)
			}
			if res.Flops != Flops(a, b) {
				t.Errorf("flops %d, want %d", res.Flops, Flops(a, b))
			}
			if res.CF < 1 {
				t.Errorf("cf %v < 1", res.CF)
			}
			if res.GFLOPS() <= 0 {
				t.Error("non-positive GFLOPS")
			}
			if alg == PB && res.PB == nil {
				t.Error("PB run missing phase stats")
			}
			if alg != PB && res.Baseline == nil {
				t.Error("baseline run missing stats")
			}
		})
	}
}

// TestPublicWorkspaceAndBudget exercises the execution-engine options
// through the public API: repeated multiplications on one Engine (which
// reuses its pooled workspace), with and without a memory budget, stay
// correct and report tiling.
func TestPublicWorkspaceAndBudget(t *testing.T) {
	a := NewER(512, 6, 3)
	b := NewER(512, 6, 4)
	want := Reference(a, b)
	eng := mustEngine(t, WithThreads(1))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := eng.Multiply(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !EqualWithin(want, res.C, 1e-9) {
			t.Fatalf("iteration %d: pooled result differs from reference", i)
		}
		if res.PB.NPanels != 1 {
			t.Fatalf("unbudgeted run tiled into %d panels", res.PB.NPanels)
		}
	}
	res, err := eng.Multiply(ctx, a, b, WithMemoryBudget(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(want, res.C, 1e-9) {
		t.Fatal("budgeted result differs from reference")
	}
	if res.PB.NPanels < 2 {
		t.Fatalf("expected tiling under 32 KiB budget, got %d panels", res.PB.NPanels)
	}
}

func TestPublicSquare(t *testing.T) {
	a := NewRMAT(8, 4, 3)
	res := multiply(t, a, a)
	if !EqualWithin(Reference(a, a), res.C, 1e-9) {
		t.Fatal("square differs from reference")
	}
}

func TestPublicShapeError(t *testing.T) {
	a := NewER(16, 2, 1)
	b := NewER(32, 2, 2)
	if _, err := mustEngine(t).Multiply(context.Background(), a, b); !errors.Is(err, matrix.ErrShape) {
		t.Fatalf("got %v, want a shape error", err)
	}
}

func TestPublicUnknownAlgorithm(t *testing.T) {
	a := NewER(16, 2, 1)
	if _, err := mustEngine(t).Multiply(context.Background(), a, a, WithAlgorithm(Algorithm(99))); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("got %v, want ErrInvalidOption", err)
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm must still print")
	}
}

func TestPublicMatrixMarketRoundTrip(t *testing.T) {
	a := NewER(64, 3, 9)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !EqualWithin(a, back, 0) {
		t.Fatal("round trip changed matrix")
	}
}

func TestPredictGFLOPS(t *testing.T) {
	// ER-like profile: nnzA=nnzB=nnzC=n*d, flop=cf*nnzC with cf=1 gives the
	// paper's 1/80 AI: at 40 GB/s the prediction is 0.5 GFLOPS.
	var nnz int64 = 1 << 20
	got := PredictGFLOPS(40, nnz, nnz, nnz, nnz)
	// Exact model: flop/(nnzA+nnzB+2flop+nnzC)/16*40 = 40/(5*16) = 0.5.
	if got < 0.49 || got > 0.51 {
		t.Fatalf("prediction = %v, want ~0.5", got)
	}
}

func TestAlgorithmsList(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 4 || algs[0] != PB {
		t.Fatalf("Algorithms() = %v", algs)
	}
}

func TestMeasureBandwidthSmall(t *testing.T) {
	if beta := MeasureBandwidth(1<<16, 2); beta <= 0 {
		t.Fatal("bandwidth must be positive")
	}
}
