package pbspgemm

import (
	"context"
	"math"
	"testing"

	"pbspgemm/internal/gen"
)

// intValued rewrites a matrix's values to small integers, the exact-sum
// regime next to realValued's.
func intValued(m *CSR) *CSR {
	out := m.Clone()
	for i := range out.Val {
		out.Val[i] = float64(i%7 + 1)
	}
	return out
}

// realValued rewrites a matrix's values to signed reals spread
// log-uniformly over 1e-3..1e3, every 61st one −0.0: sums of such values
// round, so any change in fold order shows in the result's bits.
func realValued(m *CSR, seed uint64) *CSR {
	out := m.Clone()
	r := gen.NewRNG(seed)
	for i := range out.Val {
		v := math.Pow(10, 6*r.Float64()-3)
		if r.Float64() < 0.5 {
			v = -v
		}
		if i%61 == 0 {
			v = math.Copysign(0, -1)
		}
		out.Val[i] = v
	}
	return out
}

// sameBits reports whether a and b have the same structure and the same
// value bits (−0.0 ≠ +0.0).
func sameBits(a, b *CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// TestMultiplyMaskedAgainstSqueezedFusedPipeline pins masked multiply
// against the engine's default execution of the unmasked product — the
// squeezed tuple layout under the fused pipeline — on ER and skewed R-MAT
// inputs, integer- and real-valued: C⟨M⟩ must equal the fused squeezed
// product filtered by the mask bit for bit, for the plain and the
// complement mask, single-shot, budgeted and through
// Engine.Multiply(WithMask). A budgeted masked product must equal the
// unmasked product under the same budget filtered by the mask; on the
// integer-valued fixtures, whose sums are exact in any grouping, it must
// also equal the single-shot product filtered by the mask.
func TestMultiplyMaskedAgainstSqueezedFusedPipeline(t *testing.T) {
	eng, err := NewEngine(WithBeta(50))
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 << 12
	for _, tc := range []struct {
		name       string
		a, b, mask *CSR
		exact      bool // integer values: every grouping of a sum is exact
	}{
		{"ER", intValued(NewER(512, 6, 41)), intValued(NewER(512, 6, 42)), NewER(512, 9, 43), true},
		{"RMAT", intValued(NewRMAT(9, 8, 44)), intValued(NewRMAT(9, 8, 45)), NewRMAT(9, 6, 46), true},
		{"ER9-real", realValued(NewER(512, 6, 51), 1), realValued(NewER(512, 6, 52), 2), NewER(512, 9, 53), false},
		{"ER10-real", realValued(NewER(1024, 8, 54), 3), realValued(NewER(1024, 8, 55), 4), NewER(1024, 12, 56), false},
		{"RMAT9-real", realValued(NewRMAT(9, 8, 44), 5), realValued(NewRMAT(9, 8, 45), 6), NewRMAT(9, 6, 46), false},
		{"RMAT10-real", realValued(NewRMAT(10, 16, 57), 7), realValued(NewRMAT(10, 16, 58), 8), NewRMAT(10, 12, 59), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The unmasked product through the default PB path must have run
			// squeezed AND fused — that is the pipeline this test pins the
			// masked results against.
			ctx := context.Background()
			res, err := eng.Multiply(ctx, tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if res.PB == nil || res.PB.Layout != LayoutSqueezed || !res.PB.Fused {
				t.Fatalf("fixture did not exercise the squeezed fused pipeline: %+v", res.PB)
			}
			full := res.C
			bres, err := eng.Multiply(ctx, tc.a, tc.b, WithMemoryBudget(budget))
			if err != nil {
				t.Fatal(err)
			}
			if bres.PB.NPanels < 2 {
				t.Fatalf("budget %d did not tile the product: %d panel(s)", budget, bres.PB.NPanels)
			}
			fullBudgeted := bres.C
			if tc.exact && !sameBits(full, fullBudgeted) {
				t.Fatal("budgeted unmasked product differs from the single-shot product")
			}

			for _, complement := range []bool{false, true} {
				want := maskCSR(full, tc.mask, complement)
				opts := []Option{WithMask(tc.mask)}
				if complement {
					opts = []Option{WithComplementMask(tc.mask)}
				}
				var plan SemiringPlan
				got, err := MultiplyMasked(tc.a, tc.b, tc.mask, append(opts, WithSemiringPlan(&plan))...)
				if err != nil {
					t.Fatal(err)
				}
				if !plan.FastPath || plan.Layout != LayoutSqueezed {
					t.Fatalf("complement=%v: masked plan = %+v, want the squeezed layout", complement, plan)
				}
				if !sameBits(want, got) {
					t.Fatalf("complement=%v: masked product differs from fused squeezed product ∘ mask", complement)
				}
				// The budgeted masked path must filter identically.
				budgeted, err := MultiplyMasked(tc.a, tc.b, tc.mask,
					append(opts, WithMemoryBudget(budget))...)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(maskCSR(fullBudgeted, tc.mask, complement), budgeted) {
					t.Fatalf("complement=%v: budgeted masked product differs", complement)
				}
				if tc.exact && !sameBits(want, budgeted) {
					t.Fatalf("complement=%v: budgeted masked product differs from the single-shot product ∘ mask", complement)
				}
				// And the Engine entry point with the mask as an option.
				mres, err := eng.Multiply(ctx, tc.a, tc.b, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if mres.PB == nil || mres.PB.Layout != LayoutSqueezed || mres.PB.NNZC != mres.C.NNZ() {
					t.Fatalf("complement=%v: engine masked stats = %+v, want the squeezed layout", complement, mres.PB)
				}
				if !sameBits(want, mres.C) {
					t.Fatalf("complement=%v: engine masked product differs", complement)
				}
			}
		})
	}
}
