package pbspgemm

import (
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/semiring"
)

// Semiring defines (⊕, ⊗, 0̄) over an element type T — the algebra a
// generic multiplication runs over. Plus must be associative and commutative
// with identity Zero; Times must distribute over Plus. The compress phase
// folds duplicate (row, col) tuples with Plus; entries equal to Zero after
// folding are kept, matching GraphBLAS semantics (structural zeros are
// dropped only by explicit pruning). Plus and Times are called concurrently
// from the engine's workers and must be safe for concurrent use.
type Semiring[T any] = semiring.Semiring[T]

// Matrix is a generic sparse matrix in CSR layout — the row-major view every
// semiring operation produces and consumes as its B operand and result. For
// T = float64 it is layout-identical to CSR; Float64Matrix and Float64CSR
// convert between the two without copying.
type Matrix[T any] = semiring.CSRg[T]

// ColMatrix is the column-compressed (CSC) counterpart of Matrix — the
// layout the outer-product kernel streams A in. Build one with
// (*Matrix[T]).ToCSC once and reuse it across multiplications that share A.
type ColMatrix[T any] = semiring.CSCg[T]

// SemiringPlan reports how a MultiplyOver call executed: whether a typed
// tuple-layout fast path ran, which layout ran (LayoutRing when none did),
// and why the ring layout ran instead. Request one with WithSemiringPlan.
type SemiringPlan = semiring.Plan

// Stock semirings. Each call returns a fresh value; Semiring is a plain
// struct, so callers can also assemble their own.
var (
	// Arithmetic is the ordinary (+, ×) semiring over float64 — plain SpGEMM.
	Arithmetic = semiring.Arithmetic
	// Arithmetic32 is (+, ×) over float32 — plain SpGEMM at half the value
	// width, dispatched onto the 8-byte narrow tuple layout when the packed
	// keys fit 32 bits.
	Arithmetic32 = semiring.Arithmetic32
	// ArithmeticInt32 is (+, ×) over int32 — exact integer SpGEMM (path and
	// triangle counting), dispatched onto the 8-byte narrow tuple layout.
	ArithmeticInt32 = semiring.ArithmeticInt32
	// Boolean is the (∨, ∧) semiring — structural SpGEMM, the multi-source
	// BFS algebra.
	Boolean = semiring.Boolean
	// MinPlus is the tropical (min, +) semiring — one multiplication is one
	// relaxation step of all-pairs shortest paths.
	MinPlus = semiring.MinPlus
	// MaxTimes is the (max, ×) semiring of probabilistic reachability.
	MaxTimes = semiring.MaxTimes
	// PlusMax is the (+, max) semiring (bottleneck accumulation).
	PlusMax = semiring.PlusMax
)

// MatrixOf lifts a float64 CSR into a generic matrix, mapping each stored
// value with f (e.g. func(float64) bool { return true } for Boolean).
func MatrixOf[T any](m *CSR, f func(float64) T) *Matrix[T] {
	return semiring.FromCSR(m, f)
}

// Float64Matrix wraps a CSR as a Matrix[float64] without copying: both views
// share the same underlying arrays.
func Float64Matrix(m *CSR) *Matrix[float64] {
	return &Matrix[float64]{
		NumRows: m.NumRows, NumCols: m.NumCols,
		RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: m.Val,
	}
}

// Float64CSR is the inverse of Float64Matrix: a zero-copy CSR view of a
// float64 generic matrix.
func Float64CSR(g *Matrix[float64]) *CSR {
	return &CSR{
		NumRows: g.NumRows, NumCols: g.NumCols,
		RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: g.Val,
	}
}

// MultiplyOver computes C = A ⊗ B over an arbitrary semiring with the
// PB-SpGEMM pipeline (outer-product expand, propagation-blocked binning,
// per-bin sort, fold of duplicates with sr.Plus): the stock semirings run a
// typed tuple layout, every other one the ring layout. A streams in
// column-major form — convert once with (*Matrix[T]).ToCSC and reuse across
// calls sharing A. Honors WithThreads, WithMemoryBudget, WithNBins,
// WithLocalBinBytes, WithL2CacheBytes, WithMask / WithComplementMask,
// WithSemiringPlan and WithContext; WithAlgorithm is ignored (the semiring
// path is always PB); sr.Plus and sr.Times run concurrently (see Semiring).
// For repeated calls, EngineMultiplyOver also reuses pooled workspaces.
func MultiplyOver[T any](sr Semiring[T], a *ColMatrix[T], b *Matrix[T], opts ...Option) (*Matrix[T], error) {
	cfg, err := resolve(nil, opts)
	if err != nil {
		return nil, err
	}
	return multiplyOver(&cfg, sr, a, b, nil)
}

// multiplyOver runs one resolved semiring call on ws (nil for one-shot
// calls) and reports its plan to WithSemiringPlan.
func multiplyOver[T any](cfg *config, sr Semiring[T], a *ColMatrix[T], b *Matrix[T], ws *core.Workspace) (*Matrix[T], error) {
	c, plan, err := semiring.MultiplyOpts(sr, a, b, cfg.coreOptions(ws))
	if cfg.plan != nil {
		*cfg.plan = plan
	}
	return c, err
}

// MultiplyMasked computes the masked product C⟨M⟩ = (A·B) ∘ M over the
// arithmetic semiring: only positions where mask stores an entry survive
// (GraphBLAS masked mxm; the unmasked A·B is never materialized). Pass
// WithComplementMask via opts to invert the mask instead. Triangle counting
// is MultiplyMasked(A, A, A) followed by a value sum.
func MultiplyMasked(a, b, mask *CSR, opts ...Option) (*CSR, error) {
	// Precedence matches Engine.MultiplyMasked: per-call options override
	// the explicit mask argument.
	var cfg config
	if mask != nil {
		cfg.mask = mask
	}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.mask == nil {
		return nil, errNilMask
	}
	if a.NumCols != b.NumRows {
		return nil, shapeError(a, b)
	}
	c, err := multiplyOver(&cfg, Arithmetic(), colView(a.ToCSC()), Float64Matrix(b), nil)
	if err != nil {
		return nil, err
	}
	return Float64CSR(c), nil
}

// EWiseAdd returns the element-wise sum of a and b over sr.Plus: the union
// of the supports, overlaps folded with Plus (GraphBLAS eWiseAdd). With
// MinPlus this is the relaxation merge min(D, D²) of shortest-path rounds.
func EWiseAdd[T any](sr Semiring[T], a, b *Matrix[T]) (*Matrix[T], error) {
	return semiring.EWiseAdd(sr, a, b)
}

// EWiseMult returns the element-wise product of a and b over sr.Times: the
// intersection of the supports (GraphBLAS eWiseMult, the Hadamard product).
func EWiseMult[T any](sr Semiring[T], a, b *Matrix[T]) (*Matrix[T], error) {
	return semiring.EWiseMult(sr, a, b)
}

// coreOptions lowers the resolved config to the PB engine's options for
// the semiring and masked paths; ws is the pooled workspace (nil for
// one-shot calls).
func (c *config) coreOptions(ws *core.Workspace) core.Options {
	return core.Options{
		Threads:           c.threads,
		NBins:             c.nbins,
		LocalBinBytes:     c.localBin,
		L2CacheBytes:      c.l2Cache,
		MemoryBudgetBytes: c.budget,
		Workspace:         ws,
		Mask:              c.mask,
		Complement:        c.complement,
		Cancel:            c.cancelFunc(),
	}
}

// colView wraps a float64 CSC as a generic column matrix without copying.
func colView(m *matrix.CSC) *ColMatrix[float64] {
	return &ColMatrix[float64]{
		NumRows: m.NumRows, NumCols: m.NumCols,
		ColPtr: m.ColPtr, RowIdx: m.RowIdx, Val: m.Val,
	}
}
