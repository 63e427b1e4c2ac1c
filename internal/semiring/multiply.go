package semiring

import (
	"errors"
	"slices"

	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// This file dispatches every semiring product onto internal/core's one PB
// engine: (+, ×) over float64 runs the 16/12-byte layout core.Multiply
// picks, over float32/int32 the 8-byte narrow layout, and (∨, ∧) over
// all-true operands the 4-byte pattern layout. Every other call — a custom
// semiring, stored false booleans, or a narrow/pattern geometry whose key
// exceeds 32 bits (core.ErrKeyWidth, from the exact panel plan, before a
// tuple is expanded) — runs the ring layout on the semiring's own funcs.

// Plan reports how MultiplyOpts executed a call.
type Plan struct {
	FastPath bool        // a typed layout ran (false: the ring layout did)
	Layout   core.Layout // pattern, narrow, squeezed or wide; LayoutRing when !FastPath
	Reason   string      // why the ring layout ran, when !FastPath
}

// MultiplyOpts computes C = A ⊗ B over the semiring sr with the PB-SpGEMM
// structure — outer-product expansion into row-range bins, per-bin stable
// radix sort on packed keys, and a fold of duplicates with sr.Plus — under
// the engine's options (threads, memory budget, pooled workspace,
// structural mask and cancellation; see core.Options), reporting the
// layout it ran. With opt.Workspace set the
// result aliases workspace memory and is invalidated by the next call using
// it. Panics — the semiring's Plus/Times callbacks run arbitrary user code
// — are returned as a *par.PanicError rather than unwinding into the
// caller's process.
func MultiplyOpts[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt core.Options) (c *CSRg[T], p Plan, err error) {
	defer func() {
		if pe := par.AsPanicError(recover(), -1, "semiring"); pe != nil {
			c, p, err = nil, Plan{}, pe
		}
	}()
	c, layout, reason, err := typed(sr, a, b, opt)
	if err != nil {
		return nil, Plan{}, err
	}
	if reason == "" {
		return c, Plan{FastPath: true, Layout: layout}, nil
	}
	m, vals, _, err := core.MultiplyRing(cscHeader(a, nil), a.Val, csrHeader(b, nil), b.Val, sr.Plus, sr.Times, opt)
	if err != nil {
		return nil, Plan{}, err
	}
	return withVals(m, vals), Plan{Layout: core.LayoutRing, Reason: reason + ": ring layout"}, nil
}

// typed runs sr on its typed layout, or returns the reason it has none;
// err is non-nil only from the typed engine itself.
func typed[T any](sr Semiring[T], a *CSCg[T], b *CSRg[T], opt core.Options) (c *CSRg[T], layout core.Layout, reason string, err error) {
	var res any
	var st *core.Stats
	name := "narrow"
	switch sr.kind {
	case kindGeneric:
		return nil, 0, "no typed kernel for semiring " + sr.Name, nil
	case kindArithF64:
		if af, bf, ok := as[float64](a, b); ok {
			var m *matrix.CSR
			m, st, err = core.Multiply(cscHeader(af, af.Val), csrHeader(bf, bf.Val), opt)
			if err == nil {
				res = withVals(m, m.Val)
			}
		}
	case kindArithF32:
		if af, bf, ok := as[float32](a, b); ok {
			res, st, err = narrow(af, bf, opt)
		}
	case kindArithI32:
		if af, bf, ok := as[int32](a, b); ok {
			res, st, err = narrow(af, bf, opt)
		}
	case kindBoolean:
		name = "pattern"
		if ab, bb, ok := as[bool](a, b); ok {
			// The pattern layout computes the structural product: correct
			// for (∨, ∧) exactly when every stored value is true.
			if slices.Contains(ab.Val, false) || slices.Contains(bb.Val, false) {
				return nil, 0, "stored false values: pattern layout is structural", nil
			}
			var m *matrix.CSR
			m, st, err = core.MultiplyPattern(cscHeader(ab, nil), csrHeader(bb, nil), opt)
			if err == nil {
				res = withVals(m, opt.Workspace.Trues(m.RowPtr[m.NumRows]))
			}
		}
	}
	switch {
	case errors.Is(err, core.ErrKeyWidth):
		return nil, 0, "packed key exceeds 32 bits: no " + name + " layout", nil
	case err != nil:
		return nil, 0, "", err
	case st == nil:
		return nil, 0, "semiring kind and element type disagree", nil
	}
	return res.(*CSRg[T]), st.Layout, "", nil
}

// as views a and b as element type E: ok exactly when T is E.
func as[E, T any](a *CSCg[T], b *CSRg[T]) (*CSCg[E], *CSRg[E], bool) {
	ae, aok := any(a).(*CSCg[E])
	be, bok := any(b).(*CSRg[E])
	return ae, be, aok && bok
}

// narrow runs the 8-byte narrow layout for a 32-bit value type.
func narrow[V core.Value32](a *CSCg[V], b *CSRg[V], opt core.Options) (*CSRg[V], *core.Stats, error) {
	m, vals, st, err := core.MultiplyNarrow(cscHeader(a, nil), a.Val, csrHeader(b, nil), b.Val, opt)
	if err != nil {
		return nil, nil, err
	}
	return withVals(m, vals), st, nil
}

// cscHeader wraps a generic column matrix's index arrays as a float64 CSC
// without copying; val is nil for the entries that take their value planes
// separately (narrow, ring) or read none (pattern).
func cscHeader[T any](a *CSCg[T], val []float64) *matrix.CSC {
	return &matrix.CSC{NumRows: a.NumRows, NumCols: a.NumCols,
		ColPtr: a.ColPtr, RowIdx: a.RowIdx, Val: val}
}

func csrHeader[T any](b *CSRg[T], val []float64) *matrix.CSR {
	return &matrix.CSR{NumRows: b.NumRows, NumCols: b.NumCols,
		RowPtr: b.RowPtr, ColIdx: b.ColIdx, Val: val}
}

// withVals pairs a structural result with its value plane.
func withVals[T any](m *matrix.CSR, vals []T) *CSRg[T] {
	return &CSRg[T]{NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: vals}
}
