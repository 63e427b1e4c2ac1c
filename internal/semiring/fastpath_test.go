package semiring

import (
	"math"
	"slices"
	"strings"
	"testing"

	"pbspgemm/internal/core"
	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// stripKind returns sr with its fast-path tag erased, forcing the ring
// layout — the oracle the typed layouts are checked against.
func stripKind[T any](sr Semiring[T]) Semiring[T] {
	sr.kind = kindGeneric
	return sr
}

// intCSR rewrites values to small integers so float32, int32, and float64
// folds are all exact.
func intCSR(m *matrix.CSR) *matrix.CSR {
	for i := range m.Val {
		m.Val[i] = float64(i%7 + 1)
	}
	return m
}

func sameStructureG[T any](a, b *CSRg[T]) bool {
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
	return true
}

// sameBitsG reports whether a and b have the same structure and the same
// value bits (bits maps a value to its bit pattern: −0.0 ≠ +0.0).
func sameBitsG[T any](a, b *CSRg[T], bits func(T) uint64) bool {
	if !sameStructureG(a, b) {
		return false
	}
	for i := range a.Val {
		if bits(a.Val[i]) != bits(b.Val[i]) {
			return false
		}
	}
	return true
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }
func f32bits(v float32) uint64 { return uint64(math.Float32bits(v)) }
func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// isRing reports whether p records a ring-layout run with a reason naming
// it.
func isRing(p Plan) bool {
	return !p.FastPath && p.Layout == core.LayoutRing && strings.Contains(p.Reason, "ring layout")
}

// TestFastPathPlanReporting pins the dispatch rule: Boolean lands on the
// pattern layout, float32/int32 arithmetic on narrow, float64 on the layout
// core picks, masked or not; custom semirings and false-valued booleans
// report the ring layout with a reason.
func TestFastPathPlanReporting(t *testing.T) {
	a := intCSR(gen.ER(400, 6, 31))
	b := intCSR(gen.ER(400, 6, 32))

	// Boolean → pattern.
	ba := FromCSR(a, func(float64) bool { return true }).ToCSC()
	bb := FromCSR(b, func(float64) bool { return true })
	cb, p, err := MultiplyOpts(Boolean(), ba, bb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutPattern {
		t.Fatalf("boolean plan = %+v, want pattern fast path", p)
	}
	ref, p, err := MultiplyOpts(stripKind(Boolean()), ba, bb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !isRing(p) {
		t.Fatalf("stripped boolean plan = %+v, want the ring layout", p)
	}
	if !sameBitsG(ref, cb, boolBits) {
		t.Fatal("pattern fast path differs from the ring-layout boolean product")
	}

	// float32 → narrow.
	fa := FromCSR(a, func(v float64) float32 { return float32(v) }).ToCSC()
	fb := FromCSR(b, func(v float64) float32 { return float32(v) })
	cf, p, err := MultiplyOpts(Arithmetic32(), fa, fb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutNarrow {
		t.Fatalf("float32 plan = %+v, want narrow fast path", p)
	}
	reff, _, err := MultiplyOpts(stripKind(Arithmetic32()), fa, fb, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBitsG(reff, cf, f32bits) {
		t.Fatal("narrow fast path differs from the ring-layout float32 product")
	}

	// int32 → narrow.
	ia := FromCSR(a, func(v float64) int32 { return int32(v) }).ToCSC()
	ib := FromCSR(b, func(v float64) int32 { return int32(v) })
	if _, p, err = MultiplyOpts(ArithmeticInt32(), ia, ib, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutNarrow {
		t.Fatalf("int32 plan = %+v, want narrow fast path", p)
	}

	// float64 → whatever core picks (squeezed here), masked or not.
	da := FromCSR(a, func(v float64) float64 { return v }).ToCSC()
	db := FromCSR(b, func(v float64) float64 { return v })
	if _, p, err = MultiplyOpts(Arithmetic(), da, db, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutSqueezed {
		t.Fatalf("float64 plan = %+v, want squeezed fast path", p)
	}
	if _, p, err = MultiplyOpts(Arithmetic(), da, db, core.Options{Mask: a}); err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || p.Layout != core.LayoutSqueezed {
		t.Fatalf("masked plan = %+v, want squeezed fast path", p)
	}

	// Ring layout, each with a reason.
	if _, p, err = MultiplyOpts(stripKind(Arithmetic()), da, db, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if !isRing(p) {
		t.Fatalf("custom semiring plan = %+v, want the ring layout with a reason", p)
	}
	if _, p, err = MultiplyOpts(MinPlus(), da, db, core.Options{Mask: a, Complement: true}); err != nil {
		t.Fatal(err)
	}
	if !isRing(p) {
		t.Fatalf("masked min-plus plan = %+v, want the ring layout with a reason", p)
	}
	// A stored false value makes the pattern layout unsound: ring layout.
	bf := FromCSR(b, func(float64) bool { return true })
	bf.Val[0] = false
	if _, p, err = MultiplyOpts(Boolean(), ba, bf, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if !isRing(p) {
		t.Fatalf("false-valued boolean plan = %+v, want the ring layout with a reason", p)
	}
}

// TestFastPathKeyWidthFallback: a 31-bit column space has no 32-bit packed
// key, so the narrow and pattern dispatches must decline and the ring
// layout, on 64-bit keys, must produce the product.
func TestFastPathKeyWidthFallback(t *testing.T) {
	cols := int32(1) << 30
	a := &CSRg[int32]{NumRows: 8, NumCols: 8,
		RowPtr: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8},
		ColIdx: []int32{0, 1, 2, 3, 4, 5, 6, 7},
		Val:    []int32{1, 1, 1, 1, 1, 1, 1, 1}}
	b := &CSRg[int32]{NumRows: 8, NumCols: cols,
		RowPtr: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8},
		ColIdx: []int32{0, 1 << 29, 2, 3, 4, 5, 6, cols - 1},
		Val:    []int32{2, 2, 2, 2, 2, 2, 2, 2}}
	c, p, err := MultiplyOpts(ArithmeticInt32(), a.ToCSC(), b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !isRing(p) || !strings.Contains(p.Reason, "32 bits") {
		t.Fatalf("plan = %+v, want a key-width fallback onto the ring layout", p)
	}
	if c.NNZ() != 8 {
		t.Fatalf("fallback product nnz = %d, want 8", c.NNZ())
	}
	for i, v := range c.Val {
		if v != 2 {
			t.Fatalf("value[%d] = %d, want 2", i, v)
		}
	}
	if !slices.Equal(c.ColIdx, b.ColIdx) {
		t.Fatalf("fallback product columns = %v, want %v", c.ColIdx, b.ColIdx)
	}
}

// fuzzReal decodes one fuzz byte into a real value: signed multiples of an
// inexact step (so fold order shows in the last bits), with 0 decoding to
// −0.0.
func fuzzReal(v byte) float64 {
	if v == 0 {
		return math.Copysign(0, -1)
	}
	return float64(int8(v)) * 0.173
}

// FuzzFastPathVsGeneric holds every typed layout to the ring layout as
// oracle: the same (+, ×) or (∨, ∧) funcs behind a kindGeneric tag, run on
// the same geometry. Values are real (signed, inexact, with −0.0) and the
// comparison is bit for bit — structure for Boolean, value bits for float32
// and float64 — single-shot, budgeted, multi-threaded and pooled. Each
// layout, typed and ring, also runs under a mask decoded from the input,
// plain and complemented, and must equal its own unmasked product filtered
// by the mask.
func FuzzFastPathVsGeneric(f *testing.F) {
	f.Add([]byte{4, 4, 4, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4})
	f.Add([]byte{24, 24, 24, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{16, 1, 16, 255, 255, 255, 0, 0, 0, 128, 64, 32, 7, 6, 5})
	f.Add([]byte{8, 3, 8, 1, 0, 0, 2, 1, 0, 3, 2, 129, 4, 0, 7, 5, 1, 0, 6, 2, 200, 0, 0, 3})
	// One output entry summing four products whose left-to-right sum
	// differs from the other groupings in its last bit.
	f.Add([]byte{0, 3, 0, 0, 0, 167, 0, 0, 127, 1, 0, 98, 0, 1, 195, 2, 0, 202, 0, 2, 116, 3, 0, 54, 0, 3, 121})

	wsTyped, wsRing := core.NewWorkspace(), core.NewWorkspace()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows := int32(data[0]%24) + 1
		inner := int32(data[1]%24) + 1
		cols := int32(data[2]%24) + 1
		coo := &matrix.COO{NumRows: rows, NumCols: inner}
		cob := &matrix.COO{NumRows: inner, NumCols: cols}
		for i := 3; i+2 < len(data); i += 3 {
			r, c, v := data[i], data[i+1], fuzzReal(data[i+2])
			if (i/3)%2 == 0 {
				coo.Row = append(coo.Row, int32(r)%rows)
				coo.Col = append(coo.Col, int32(c)%inner)
				coo.Val = append(coo.Val, v)
			} else {
				cob.Row = append(cob.Row, int32(r)%inner)
				cob.Col = append(cob.Col, int32(c)%cols)
				cob.Val = append(cob.Val, v)
			}
		}
		a, b := coo.ToCSR(), cob.ToCSR()
		ba := FromCSR(a, func(float64) bool { return true }).ToCSC()
		bb := FromCSR(b, func(float64) bool { return true })
		fa := FromCSR(a, func(v float64) float32 { return float32(v) }).ToCSC()
		fb := FromCSR(b, func(v float64) float32 { return float32(v) })
		da := FromCSR(a, func(v float64) float64 { return v }).ToCSC()
		db := FromCSR(b, func(v float64) float64 { return v })
		mask := fuzzMask(rows, cols, data)

		for _, opt := range []core.Options{
			{},
			{MemoryBudgetBytes: 128},
			{Threads: 3},
			{Threads: 1, Workspace: wsTyped},
		} {
			ringOpt := opt
			if opt.Workspace != nil {
				ringOpt.Workspace = wsRing
			}
			check := func(name string, want core.Layout, same func() (bool, Plan, Plan, error)) {
				ok, fp, rp, err := same()
				if err != nil {
					t.Fatalf("%s (opt %+v): %v", name, opt, err)
				}
				if !fp.FastPath || fp.Layout != want {
					t.Fatalf("%s plan = %+v, want %v", name, fp, want)
				}
				if !isRing(rp) {
					t.Fatalf("%s oracle plan = %+v, want the ring layout", name, rp)
				}
				if !ok {
					t.Fatalf("%s differs from the ring-layout oracle (opt %+v)", name, opt)
				}
			}
			check("boolean", core.LayoutPattern, func() (bool, Plan, Plan, error) {
				return compareG(Boolean(), ba, bb, opt, ringOpt, boolBits)
			})
			check("float32", core.LayoutNarrow, func() (bool, Plan, Plan, error) {
				return compareG(Arithmetic32(), fa, fb, opt, ringOpt, f32bits)
			})
			check("float64", core.LayoutSqueezed, func() (bool, Plan, Plan, error) {
				return compareG(Arithmetic(), da, db, opt, ringOpt, f64bits)
			})
			for _, m := range []struct {
				name   string
				masked func() (bool, error)
			}{
				{"boolean", func() (bool, error) { return maskedMatches(Boolean(), ba, bb, opt, mask, boolBits) }},
				{"ring boolean", func() (bool, error) { return maskedMatches(stripKind(Boolean()), ba, bb, opt, mask, boolBits) }},
				{"float32", func() (bool, error) { return maskedMatches(Arithmetic32(), fa, fb, opt, mask, f32bits) }},
				{"ring float32", func() (bool, error) { return maskedMatches(stripKind(Arithmetic32()), fa, fb, opt, mask, f32bits) }},
				{"float64", func() (bool, error) { return maskedMatches(Arithmetic(), da, db, opt, mask, f64bits) }},
				{"ring float64", func() (bool, error) { return maskedMatches(stripKind(Arithmetic()), da, db, opt, mask, f64bits) }},
			} {
				ok, err := m.masked()
				if err != nil {
					t.Fatalf("masked %s (opt %+v): %v", m.name, opt, err)
				}
				if !ok {
					t.Fatalf("masked %s differs from its product ∘ mask (opt %+v)", m.name, opt)
				}
			}
		}
	})
}

// fuzzMask decodes a rows×cols mask storing about a third of the
// positions, chosen by a hash of the position and the input.
func fuzzMask(rows, cols int32, data []byte) *matrix.CSR {
	m := &matrix.CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int64, rows+1)}
	salt := uint32(len(data)) ^ uint32(data[len(data)-1])<<8
	for i := range rows {
		for j := range cols {
			if (uint32(i)*2654435761^uint32(j)*40503^salt)%3 == 0 {
				m.ColIdx = append(m.ColIdx, j)
			}
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// maskG filters a product by mask (Complement flips it): the reference the
// engine's per-bin mask is held to.
func maskG[T any](c *CSRg[T], mask *matrix.CSR, complement bool) *CSRg[T] {
	out := &CSRg[T]{NumRows: c.NumRows, NumCols: c.NumCols, RowPtr: make([]int64, c.NumRows+1),
		ColIdx: []int32{}, Val: []T{}}
	for i := range c.NumRows {
		mp, mEnd := mask.RowPtr[i], mask.RowPtr[i+1]
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			col := c.ColIdx[p]
			for mp < mEnd && mask.ColIdx[mp] < col {
				mp++
			}
			if (mp < mEnd && mask.ColIdx[mp] == col) != complement {
				out.ColIdx = append(out.ColIdx, col)
				out.Val = append(out.Val, c.Val[p])
			}
		}
		out.RowPtr[i+1] = int64(len(out.ColIdx))
	}
	return out
}

// maskedMatches runs sr on opt unmasked and under mask, plain and
// complemented, and reports whether each masked product equals the
// unmasked one filtered by the mask, bit for bit. Both references are
// copied out before the masked runs reuse a pooled workspace.
func maskedMatches[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt core.Options, mask *matrix.CSR,
	bits func(T) uint64) (bool, error) {

	full, _, err := MultiplyOpts(sr, a, b, opt)
	if err != nil {
		return false, err
	}
	want := []*CSRg[T]{maskG(full, mask, false), maskG(full, mask, true)}
	for i, complement := range []bool{false, true} {
		opt.Mask, opt.Complement = mask, complement
		got, _, err := MultiplyOpts(sr, a, b, opt)
		if err != nil {
			return false, err
		}
		if !sameBitsG(want[i], got, bits) {
			return false, nil
		}
	}
	return true, nil
}

// compareG runs sr on its typed layout and on the ring layout, each on its
// own options (distinct pooled workspaces, so neither result clobbers the
// other), and reports whether the two agree bit for bit.
func compareG[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt, ringOpt core.Options,
	bits func(T) uint64) (bool, Plan, Plan, error) {

	fast, fp, err := MultiplyOpts(sr, a, b, opt)
	if err != nil {
		return false, fp, Plan{}, err
	}
	oracle, rp, err := MultiplyOpts(stripKind(sr), a, b, ringOpt)
	if err != nil {
		return false, fp, rp, err
	}
	return sameBitsG(fast, oracle, bits), fp, rp, nil
}

// TestFastPathBudgetedKeyWidthFallback: under a memory budget the panel plan
// can derive fewer bins (and so a wider local row id) than the budget-level
// estimate core.Key32Fits makes. Here budget/16 tuples predicts 4 bins (18
// local-row bits + 14 column bits = 32), but the two 140k-flop columns cut
// into one panel each, whose 3 bins need 19 bits. The narrow and pattern
// dispatches must then fall back to the ring layout, as the same call
// without a budget runs the fast path, and both must produce the product.
func TestFastPathBudgetedKeyWidthFallback(t *testing.T) {
	const rows, inner, cols = 1 << 20, 2, 16383
	const perCol, perRow = 14, 10000
	a := &CSCg[int32]{NumRows: rows, NumCols: inner, ColPtr: []int64{0, perCol, 2 * perCol}}
	for j := range inner {
		for i := range perCol {
			a.RowIdx = append(a.RowIdx, int32(i*(rows/perCol)+j))
			a.Val = append(a.Val, int32(i+1))
		}
	}
	b := &CSRg[int32]{NumRows: inner, NumCols: cols, RowPtr: []int64{0, perRow, 2 * perRow}}
	for i := range inner {
		for q := range perRow {
			b.ColIdx = append(b.ColIdx, int32(q+i*(cols-perRow)))
			b.Val = append(b.Val, int32(q%5+1))
		}
	}
	const budget = 4 << 20

	wantI, _, err := MultiplyOpts(stripKind(ArithmeticInt32()), a, b, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, p, err := MultiplyOpts(ArithmeticInt32(), a, b, core.Options{}); err != nil || !p.FastPath {
		t.Fatalf("unbudgeted: err=%v plan=%+v, want the narrow fast path", err, p)
	}
	gotI, p, err := MultiplyOpts(ArithmeticInt32(), a, b, core.Options{MemoryBudgetBytes: budget})
	if err != nil {
		t.Fatalf("budgeted narrow: %v", err)
	}
	if !isRing(p) || !strings.Contains(p.Reason, "narrow") {
		t.Fatalf("budgeted narrow plan = %+v, want a key-width fallback onto the ring layout", p)
	}
	if !sameStructureG(gotI, wantI) || !slices.Equal(gotI.Val, wantI.Val) {
		t.Fatal("budgeted narrow fallback differs from the ring-layout product")
	}

	ab := &CSCg[bool]{NumRows: a.NumRows, NumCols: a.NumCols, ColPtr: a.ColPtr, RowIdx: a.RowIdx,
		Val: slices.Repeat([]bool{true}, len(a.RowIdx))}
	bb := &CSRg[bool]{NumRows: b.NumRows, NumCols: b.NumCols, RowPtr: b.RowPtr, ColIdx: b.ColIdx,
		Val: slices.Repeat([]bool{true}, len(b.ColIdx))}
	gotB, p, err := MultiplyOpts(Boolean(), ab, bb, core.Options{MemoryBudgetBytes: budget})
	if err != nil {
		t.Fatalf("budgeted pattern: %v", err)
	}
	if !isRing(p) || !strings.Contains(p.Reason, "pattern") {
		t.Fatalf("budgeted pattern plan = %+v, want a key-width fallback onto the ring layout", p)
	}
	if !slices.Equal(gotB.RowPtr, wantI.RowPtr) || !slices.Equal(gotB.ColIdx, wantI.ColIdx) {
		t.Fatal("budgeted pattern fallback differs from the product's structure")
	}
}
