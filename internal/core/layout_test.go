package core

import (
	"math"
	"slices"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/radix"
)

// csrBitIdentical is the strict comparison the determinism guarantees are
// held to: same structure AND bit-identical float64 values (Equal with tol 0
// still admits -0 vs +0 and NaN mismatches; determinism does not).
func csrBitIdentical(a, b *matrix.CSR) bool {
	if a.NumRows != b.NumRows || a.NumCols != b.NumCols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			return false
		}
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// expandSnapshot drives the engine through planning and expand only,
// returning a copy of the pre-sort tuple buffer in a layout-independent
// (key, value) form.
func expandSnapshot(t *testing.T, a *matrix.CSC, b *matrix.CSR, opt Options) ([]uint64, []float64) {
	t.Helper()
	opt = opt.withDefaults()
	ws := NewWorkspace()
	e := &ws.eng
	*e = engine{a: a, b: b, opt: opt, ws: ws, shared: true, st: &ws.stats}
	e.symbolic()
	e.planPanels()
	if err := e.planBins(); err != nil {
		t.Fatal(err)
	}
	e.bindLayout()
	if e.npanels != 1 {
		t.Fatal("expandSnapshot needs a single-panel run")
	}
	e.panelPlan(0, int(a.NumCols))
	e.lay.growTuples(e, e.flops)
	e.expandPanel(0)
	keys := make([]uint64, e.flops)
	vals := make([]float64, e.flops)
	if e.layout == LayoutSqueezed {
		for i := range keys {
			keys[i] = uint64(ws.keys32.tuple[i])
		}
		copy(vals, ws.kvF64.tupleVals)
	} else {
		copy(keys, ws.keys64.tuple)
		copy(vals, ws.kvWide.tupleVals)
	}
	return keys, vals
}

// TestExpandDeterministicAcrossThreads: with atomic cursors replaced by
// exclusive per-thread write offsets, the pre-sort tuple buffer — not just
// the sorted output — must be bit-identical at any thread count, in both
// layouts.
func TestExpandDeterministicAcrossThreads(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 3) // skewed: threads collide on hot bins
	acsc := a.ToCSC()
	b := gen.RMAT(10, 8, gen.Graph500Params, 4)
	for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
		wantK, wantV := expandSnapshot(t, acsc, b, Options{Threads: 1, ForceLayout: layout})
		for _, threads := range []int{2, 3, 8} {
			gotK, gotV := expandSnapshot(t, acsc, b, Options{Threads: threads, ForceLayout: layout})
			for i := range wantK {
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("layout=%v threads=%d: tuple %d differs from sequential expand",
						layout, threads, i)
				}
			}
		}
	}
}

// TestMultiplyBitIdenticalAcrossThreads is the end-to-end determinism
// guarantee: identical CSR (values included, bit for bit) across thread
// counts, across repeated runs on a pooled workspace, and across the
// budgeted path's panel tiling.
func TestMultiplyBitIdenticalAcrossThreads(t *testing.T) {
	inputs := []struct {
		name string
		a    *matrix.CSR
		b    *matrix.CSR
		opt  Options
	}{
		{"ER", gen.ER(2048, 8, 1), gen.ER(2048, 8, 2), Options{}},
		{"RMAT-skewed", gen.RMAT(10, 16, gen.Graph500Params, 5), gen.RMAT(10, 16, gen.Graph500Params, 6), Options{}},
		// NBins=1 funnels everything into one oversized bin: the parallel
		// runs exercise the split-sort path against the sequential sort.
		{"single-bin-split-sort", gen.ER(1024, 8, 7), gen.ER(1024, 8, 8), Options{NBins: 1, L2CacheBytes: 4096}},
		{"budgeted", gen.ER(1024, 6, 9), gen.ER(1024, 6, 10), Options{MemoryBudgetBytes: 64 << 10}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			acsc := in.a.ToCSC()
			opt := in.opt
			opt.Threads = 1
			want, _, err := Multiply(acsc, in.b, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{2, 8} {
				opt.Threads = threads
				got, _, err := Multiply(acsc, in.b, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !csrBitIdentical(want, got) {
					t.Fatalf("threads=%d: output not bit-identical to threads=1", threads)
				}
			}
			// Repeated runs on one pooled workspace.
			ws := NewWorkspace()
			opt.Workspace = ws
			for rep := 0; rep < 3; rep++ {
				for _, threads := range []int{1, 2, 8} {
					opt.Threads = threads
					got, _, err := Multiply(acsc, in.b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !csrBitIdentical(want, got) {
						t.Fatalf("pooled rep=%d threads=%d: output drifted", rep, threads)
					}
				}
			}
		})
	}
}

// TestSqueezedVsWideEquivalent: the two layouts produce the same canonical
// CSR. Structure must match exactly; values to summation tolerance only —
// the layouts use different radix digit plans (11-bit vs byte), so tuples
// with equal keys may fold in a different order. (FuzzSqueezedVsWide holds
// integer-valued inputs, where order cannot matter, to exact equality.)
func TestSqueezedVsWideEquivalent(t *testing.T) {
	for _, in := range []struct {
		name string
		a, b *matrix.CSR
	}{
		{"ER", gen.ER(1024, 8, 11), gen.ER(1024, 8, 12)},
		{"RMAT", gen.RMAT(9, 8, gen.Graph500Params, 13), gen.RMAT(9, 8, gen.Graph500Params, 14)},
	} {
		acsc := in.a.ToCSC()
		for _, threads := range []int{1, 4} {
			sq, stS, err := Multiply(acsc, in.b, Options{Threads: threads, ForceLayout: LayoutSqueezed})
			if err != nil {
				t.Fatal(err)
			}
			wide, stW, err := Multiply(acsc, in.b, Options{Threads: threads, ForceLayout: LayoutWide})
			if err != nil {
				t.Fatal(err)
			}
			if stS.Layout != LayoutSqueezed || stW.Layout != LayoutWide {
				t.Fatalf("%s: forced layouts not honored: %v / %v", in.name, stS.Layout, stW.Layout)
			}
			if !matrix.Equal(sq, wide, 1e-12) {
				t.Fatalf("%s threads=%d: squeezed and wide outputs differ", in.name, threads)
			}
		}
	}
}

// TestLayoutSelection pins the geometry rule: squeezed engages exactly when
// localRowBits + colBits ≤ 32, and PlanLayout agrees with the engine.
func TestLayoutSelection(t *testing.T) {
	// Small square: always squeezed.
	a := gen.ER(512, 4, 1)
	acsc := a.ToCSC()
	_, st, err := Multiply(acsc, a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Layout != LayoutSqueezed {
		t.Fatalf("small square picked %v, want squeezed", st.Layout)
	}
	if got := PlanLayout(a.NumRows, a.NumCols, st.Flops, Options{}); got != LayoutSqueezed {
		t.Fatalf("PlanLayout = %v, want squeezed", got)
	}

	// Wide B (2^30 columns) against a single bin's worth of rows: colBits=31
	// plus any local row bit exceeds 32 — must stay wide.
	rows := int32(5000)
	cols := int32(1) << 30
	co := &matrix.COO{NumRows: rows, NumCols: 64}
	bo := &matrix.COO{NumRows: 64, NumCols: cols}
	r := gen.NewRNG(2)
	for e := 0; e < 200; e++ {
		co.Row = append(co.Row, r.Intn(rows))
		co.Col = append(co.Col, r.Intn(64))
		co.Val = append(co.Val, r.Float64())
		bo.Row = append(bo.Row, r.Intn(64))
		bo.Col = append(bo.Col, r.Intn(cols))
		bo.Val = append(bo.Val, r.Float64())
	}
	aw, bw := co.ToCSR(), bo.ToCSR()
	_, stw, err := Multiply(aw.ToCSC(), bw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stw.Layout != LayoutWide {
		t.Fatalf("31-bit columns picked %v, want wide", stw.Layout)
	}
	if got := PlanLayout(aw.NumRows, bw.NumCols, stw.Flops, Options{}); got != LayoutWide {
		t.Fatalf("PlanLayout = %v, want wide", got)
	}
	// Forcing squeezed on an unsqueezable geometry must fall back, not
	// corrupt keys.
	ref := matrix.ReferenceMultiply(aw, bw)
	cf, stf, err := Multiply(aw.ToCSC(), bw, Options{ForceLayout: LayoutSqueezed})
	if err != nil {
		t.Fatal(err)
	}
	if stf.Layout != LayoutWide {
		t.Fatalf("unsqueezable force: layout %v, want wide fallback", stf.Layout)
	}
	if !matrix.Equal(ref, cf, 1e-9) {
		t.Fatal("forced-squeezed fallback product wrong")
	}
}

// TestPlanLayoutTracksBudget: a memory budget shrinks panels, which shrinks
// the bin count and widens rowsPerBin — PlanLayout must predict the layout
// of the geometry a budgeted run actually executes, not the unbudgeted one.
func TestPlanLayoutTracksBudget(t *testing.T) {
	rows := int32(1) << 20
	bCols := int32(1) << 17 // colBits = 18
	flops := int64(1) << 27 // unbudgeted: 2048 bins, rowShift 9 → squeezed
	if got := PlanLayout(rows, bCols, flops, Options{}); got != LayoutSqueezed {
		t.Fatalf("unbudgeted PlanLayout = %v, want squeezed", got)
	}
	// A tiny budget collapses each panel to ~2^10 tuples → 1 bin →
	// rowShift 20; 20+18 > 32 → the budgeted run is wide.
	budgeted := Options{MemoryBudgetBytes: 1 << 14}
	if got := PlanLayout(rows, bCols, flops, budgeted); got != LayoutWide {
		t.Fatalf("budgeted PlanLayout = %v, want wide", got)
	}
}

// TestPowerOfTwoBinGeometry: rowsPerBin is always a power of two and bins
// exactly tile the rows.
func TestPowerOfTwoBinGeometry(t *testing.T) {
	for _, rows := range []int32{1, 2, 3, 511, 512, 513, 5000, 1 << 20} {
		for _, nbins := range []int{0, 1, 2, 7, 64, 2048} {
			g := planBinGeometry(rows, int64(rows)*8, Options{NBins: nbins}.withDefaults())
			rpb := int64(1) << g.rowShift
			if rpb&(rpb-1) != 0 {
				t.Fatalf("rows=%d nbins=%d: rowsPerBin %d not a power of two", rows, nbins, rpb)
			}
			if int64(g.nbins)*rpb < int64(rows) {
				t.Fatalf("rows=%d nbins=%d: bins cover only %d rows", rows, nbins, int64(g.nbins)*rpb)
			}
			if int64(g.nbins-1)*rpb >= int64(rows) {
				t.Fatalf("rows=%d nbins=%d: last bin empty (%d bins of %d rows)", rows, nbins, g.nbins, rpb)
			}
		}
	}
}

// TestLayoutSteadyStateAllocs is the squeezed path's alloc regression gate:
// like the wide path, repeated Multiply through a pooled workspace at
// Threads=1 performs zero heap allocations — single-shot and budgeted.
func TestLayoutSteadyStateAllocs(t *testing.T) {
	a := gen.ER(400, 6, 1).ToCSC()
	b := gen.ER(400, 6, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
		budget int64
	}{
		{"squeezed", LayoutSqueezed, 0},
		{"squeezed-budgeted", LayoutSqueezed, 32 << 10},
		{"wide", LayoutWide, 0},
		{"wide-budgeted", LayoutWide, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ws := NewWorkspace()
			opt := Options{Threads: 1, Workspace: ws, MemoryBudgetBytes: tc.budget, ForceLayout: tc.layout}
			if _, st, err := Multiply(a, b, opt); err != nil {
				t.Fatal(err)
			} else if st.Layout != tc.layout {
				t.Fatalf("layout = %v, want %v", st.Layout, tc.layout)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, _, err := Multiply(a, b, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s allocated %.1f times per call, want 0", tc.name, allocs)
			}
		})
	}
}

// TestSplitSortMatchesReference: a run forced through the oversized-bin
// split (tiny L2 budget, parallel threads) still produces the reference
// product.
func TestSplitSortMatchesReference(t *testing.T) {
	a := gen.RMAT(10, 8, gen.Graph500Params, 21)
	b := gen.RMAT(10, 8, gen.Graph500Params, 22)
	want := matrix.ReferenceMultiply(a, b)
	for _, layout := range []Layout{LayoutSqueezed, LayoutWide} {
		got, _, err := Multiply(a.ToCSC(), b, Options{
			Threads: 8, NBins: 2, L2CacheBytes: 4096, ForceLayout: layout,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(want, got, 1e-9) {
			t.Fatalf("layout=%v: split-sort product differs from reference", layout)
		}
	}
}

// BenchmarkMultiply is the acceptance benchmark of the squeezed tuple
// pipeline: the low-cf ER regime (the paper's Fig. 7 sweet spot for
// PB-SpGEMM) on both layouts over a pooled workspace. The squeezed rows must
// come in ≥15% under the wide rows' ns/op.
func BenchmarkMultiply(b *testing.B) {
	a := gen.ERMatrix(13, 8, 1).ToCSC()
	m := gen.ERMatrix(13, 8, 2)
	for _, tc := range []struct {
		name   string
		layout Layout
	}{
		{"layout=squeezed", LayoutSqueezed},
		{"layout=wide", LayoutWide},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws := NewWorkspace()
			opt := Options{Workspace: ws, ForceLayout: tc.layout}
			_, st, err := Multiply(a, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			if st.Layout != tc.layout {
				b.Fatalf("layout = %v, want %v", st.Layout, tc.layout)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Multiply(a, m, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(st.Flops)/sec/1e9, "GFLOPS")
		})
	}
}

// BenchmarkSortPhase isolates the fused sort/fold phase's layout
// sensitivity: one L2-sized bin of pre-expanded tuples per layout, through
// the batched ...FusedScratch kernels the engine runs, on preallocated
// scratch.
func BenchmarkSortPhase(b *testing.B) {
	const n = 64 << 10
	r := gen.NewRNG(3)
	keys := make([]uint32, n)
	keys64 := make([]uint64, n)
	vals := make([]float64, n)
	for i := range keys {
		k := uint32(r.Intn(1 << 22)) // squeezed-geometry keys
		keys[i], keys64[i] = k, uint64(k)
		vals[i] = r.Float64()
	}
	b.Run("layout=squeezed", func(b *testing.B) {
		wk, auxK := make([]uint32, n), make([]uint32, n)
		wv, auxV := make([]float64, n), make([]float64, n)
		b.SetBytes(n * SqueezedTupleBytes)
		for i := 0; i < b.N; i++ {
			copy(wk, keys)
			copy(wv, vals)
			radix.SortFusedScratch(wk, wv, auxK, auxV, true)
		}
	})
	b.Run("layout=wide", func(b *testing.B) {
		wk, auxK := make([]uint64, n), make([]uint64, n)
		wv, auxV := make([]float64, n), make([]float64, n)
		b.SetBytes(n * WideTupleBytes)
		for i := 0; i < b.N; i++ {
			copy(wk, keys64)
			copy(wv, vals)
			radix.SortFusedScratch(wk, wv, auxK, auxV, true)
		}
	})
}

// maskBits filters a product — structure c, value bits (nil for pattern) —
// by mask: the reference every layout's per-bin mask is held to.
func maskBits(c *matrix.CSR, bits []uint64, mask *matrix.CSR, complement bool) (*matrix.CSR, []uint64) {
	out := &matrix.CSR{NumRows: c.NumRows, NumCols: c.NumCols, RowPtr: make([]int64, c.NumRows+1), ColIdx: []int32{}}
	var kept []uint64
	for i := int32(0); i < c.NumRows; i++ {
		mp, mEnd := mask.RowPtr[i], mask.RowPtr[i+1]
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			col := c.ColIdx[p]
			for mp < mEnd && mask.ColIdx[mp] < col {
				mp++
			}
			if (mp < mEnd && mask.ColIdx[mp] == col) != complement {
				out.ColIdx = append(out.ColIdx, col)
				if bits != nil {
					kept = append(kept, bits[p])
				}
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out, kept
}

// spreadCols returns m with column j moved to j<<shift in a column space
// of NumCols<<shift, so a packed key needs more than 32 bits.
func spreadCols(m *matrix.CSR, shift uint) *matrix.CSR {
	out := m.Clone()
	out.NumCols <<= shift
	for i := range out.ColIdx {
		out.ColIdx[i] <<= shift
	}
	return out
}

// TestMaskEveryLayout holds Options.Mask to the unmasked product filtered
// by the mask, bit for bit on real values with −0.0, on every layout —
// squeezed, forced wide, narrow, pattern, and the ring layout at 32- and
// 64-bit keys — for the plain and the complement mask, single-shot and
// budgeted (against the unmasked product under the same budget).
func TestMaskEveryLayout(t *testing.T) {
	a := gen.ER(512, 6, 71)
	for i := 0; i < len(a.Val); i += 61 {
		a.Val[i] = math.Copysign(0, -1)
	}
	b0, mask0 := gen.ER(512, 6, 72), gen.ER(512, 9, 73)
	acsc := a.ToCSC()
	f64 := func(vs []float64) []uint64 {
		bits := make([]uint64, len(vs))
		for i, v := range vs {
			bits[i] = math.Float64bits(v)
		}
		return bits
	}
	plus := func(x, y float64) float64 { return x + y }
	times := func(x, y float64) float64 { return x * y }
	type run func(b *matrix.CSR, opt Options) (*matrix.CSR, []uint64, *Stats, error)
	typed := func(b *matrix.CSR, opt Options) (*matrix.CSR, []uint64, *Stats, error) {
		c, st, err := Multiply(acsc, b, opt)
		if err != nil {
			return nil, nil, nil, err
		}
		return c, f64(c.Val), st, nil
	}
	ring := func(b *matrix.CSR, opt Options) (*matrix.CSR, []uint64, *Stats, error) {
		c, vals, st, err := MultiplyRing(acsc, acsc.Val, b, b.Val, plus, times, opt)
		if err != nil {
			return nil, nil, nil, err
		}
		return c, f64(vals), st, nil
	}
	for _, tc := range []struct {
		name       string
		spread     uint // column spread; > 0 forces 64-bit keys
		force      Layout
		want       Layout
		tupleBytes int64
		run        run
	}{
		{"squeezed", 0, 0, LayoutSqueezed, SqueezedTupleBytes, typed},
		{"wide", 0, LayoutWide, LayoutWide, WideTupleBytes, typed},
		{"wide-keys", 21, 0, LayoutWide, WideTupleBytes, typed},
		{"narrow", 0, 0, LayoutNarrow, NarrowTupleBytes, func(b *matrix.CSR, opt Options) (*matrix.CSR, []uint64, *Stats, error) {
			av, bv := narrowPlanes[float32](acsc, b)
			c, vals, st, err := MultiplyNarrow(acsc, av, b, bv, opt)
			if err != nil {
				return nil, nil, nil, err
			}
			bits := make([]uint64, len(vals))
			for i, v := range vals {
				bits[i] = uint64(math.Float32bits(v))
			}
			return c, bits, st, nil
		}},
		{"pattern", 0, 0, LayoutPattern, PatternTupleBytes, func(b *matrix.CSR, opt Options) (*matrix.CSR, []uint64, *Stats, error) {
			c, st, err := MultiplyPattern(acsc, b, opt)
			return c, nil, st, err
		}},
		{"ring32", 0, 0, LayoutRing, 12, ring},
		{"ring64", 21, 0, LayoutRing, 16, ring},
	} {
		b, mask := b0, mask0
		if tc.spread > 0 {
			b, mask = spreadCols(b0, tc.spread), spreadCols(mask0, tc.spread)
		}
		for _, budget := range []int64{0, 1 << 13} {
			opt := Options{ForceLayout: tc.force, MemoryBudgetBytes: budget, Threads: 2}
			full, fullBits, st, err := tc.run(b, opt)
			if err != nil {
				t.Fatalf("%s budget %d: %v", tc.name, budget, err)
			}
			if st.Layout != tc.want || st.TupleBytes != tc.tupleBytes {
				t.Fatalf("%s: ran %v at %d B/tuple, want %v at %d", tc.name, st.Layout, st.TupleBytes, tc.want, tc.tupleBytes)
			}
			if budget > 0 && st.NPanels < 2 {
				t.Fatalf("%s: budget %d did not tile the product", tc.name, budget)
			}
			for _, complement := range []bool{false, true} {
				want, wantBits := maskBits(full, fullBits, mask, complement)
				opt.Mask, opt.Complement = mask, complement
				got, gotBits, _, err := tc.run(b, opt)
				if err != nil {
					t.Fatalf("%s budget %d complement=%v: %v", tc.name, budget, complement, err)
				}
				if !csrSameStructure(want, got) || !slices.Equal(wantBits, gotBits) {
					t.Fatalf("%s budget %d complement=%v: masked product differs from the product ∘ mask",
						tc.name, budget, complement)
				}
			}
		}
	}
}
