package core

import (
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/numa"
	"pbspgemm/internal/par"
	"pbspgemm/internal/radix"
)

// Workspace pools every buffer the PB-SpGEMM engine needs across calls.
// Buffers are grow-only: a workspace warmed up on the largest multiplication
// of a workload performs subsequent multiplications of the same or smaller
// size with zero heap allocations (exactly zero when Threads == 1; a handful
// of small goroutine/closure allocations otherwise).
//
// A Workspace must not be shared by concurrent Multiply calls. When a call
// runs with Options.Workspace set, the returned CSR and Stats alias
// workspace memory and are invalidated by the next call that uses the same
// workspace; Clone the CSR to keep it.
type Workspace struct {
	// keys32 and keys64 pool the key planes of each key width — expanded
	// tuples (the flops×tuple-bytes allocation the unbudgeted single-shot
	// algorithm makes per call), local bins, runs, merged runs and sort
	// scratch. keys32 serves the squeezed, narrow and pattern layouts,
	// keys64 the wide one; the value planes live in the kv pools below. A
	// run grows only the planes of the layout it picked.
	keys32 keyPlanes[uint32]
	keys64 keyPlanes[uint64]

	// Budgeted-path run metadata (the run and merged planes themselves are
	// per key width and per layout, like the tuple planes).
	runStart    []int64 // run i occupies the run planes at [runStart[i], runStart[i+1])
	runBins     []int32 // global bin of run i
	runIdx      []int32 // run ids grouped by bin
	runIdxStart []int32 // group boundaries into runIdx, len nbins+1
	mergedStart []int64 // per-bin offsets into merged, len nbins+1
	heads       []int64 // k-way merge cursors, threads × maxRunsPerBin

	// Plan and phase scratch.
	colFlops []int64
	binFlops []int64
	// perThread holds the exact per-thread × per-bin tuple counts of the
	// current panel, converted in place into each worker's exclusive write
	// offsets (and then consumed as its private expand cursors).
	perThread   []int64
	binStart    []int64
	panelStart  []int // panel boundaries over A's columns, npanels+1
	colBounds   []int // thread boundaries over the current panel's columns
	cursors     []int64
	binOut      []int64
	binOutStart []int64
	rowCounts   []int64
	sortTasks   []sortTask // sort-phase work-stealing seeds (one per bin)
	binPending  []int32    // split bins' outstanding bucket counts (atomic)
	partBounds  []int64    // per-worker oversized-bin partition boundaries

	// Fill counts of the propagation-blocking local bins (threads × nbins).
	localLens []int32

	// Sort-phase scheduler state: the pooled steal policy (counters reused
	// across calls) plus the NUMA worker→node assignment and victim orders,
	// rebuilt only when the machine or thread count changes.
	stealPol   par.StealPolicy
	polNodes   []int
	polVictims [][]int
	polNearLen []int
	polMachine *numa.Machine
	polThreads int

	// kvF64 and kvWide pool the float64 value planes of the squeezed (12 B)
	// and wide (16 B) layouts; kvNarrow holds a *kv[uint32, V] for the
	// narrow (8 B) layout's most recent value type V (float32 or int32) —
	// reuse hits while V is stable.
	kvF64    kv[uint32, float64]
	kvWide   kv[uint64, float64]
	kvNarrow any
	// ring holds a *ringPool[T] for the ring layout's most recent element
	// type T, reused while T is stable (ring.go).
	ring any

	// Pooled result storage (used only for shared workspaces).
	out       matrix.CSR
	outRowPtr []int64
	outColIdx []int32
	outVal    []float64
	outTrue   []bool // Trues

	// Pooled CSC conversion of A for the public API's CSR-in interface.
	csc matrix.CSC

	// stats is returned (by pointer) from Multiply when the workspace is
	// shared, so steady-state calls do not allocate a Stats either.
	stats Stats

	// eng is the per-call engine state; living inside the workspace keeps it
	// off the per-call heap (closures in the parallel paths capture &eng).
	eng engine

	// poisoned marks a workspace whose last run panicked mid-phase: its
	// pooled planes may hold partially-written state. newEngine fully resets
	// a poisoned workspace before the next run, so reuse is safe; pool owners
	// may also just discard it. Cancelled (non-panic) runs never poison —
	// every run re-plans and rewrites the planes it uses from scratch.
	poisoned bool
}

// NewWorkspace returns an empty workspace. All buffers are grown on first
// use, so constructing one is free.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset drops all pooled memory, returning the workspace to its initial
// empty state (useful after a one-off huge multiplication).
func (ws *Workspace) Reset() { *ws = Workspace{} }

// TupleCapBytes reports the current capacity of the pooled expanded-tuple
// planes in bytes, summed over every layout's pools: MemoryBudgetBytes
// bounds each run's active pool, but a workspace reused across layouts
// (wide-geometry products mixed with squeezed ones) holds several, and this
// reports the memory actually resident.
func (ws *Workspace) TupleCapBytes() int64 {
	keys := int64(cap(ws.keys32.tuple))*4 + int64(cap(ws.keys64.tuple))*8
	vals := ws.kvF64.tupleCapBytes() + ws.kvWide.tupleCapBytes()
	for _, slot := range []any{ws.kvNarrow, ws.ring} {
		if n, ok := slot.(interface{ tupleCapBytes() int64 }); ok {
			vals += n.tupleCapBytes()
		}
	}
	return keys + vals
}

// Trues returns n true values — the value plane of a Boolean product on the
// pattern layout, which folds none — in pooled result storage invalidated
// by the next call, or freshly allocated when ws is nil.
func (ws *Workspace) Trues(n int64) []bool {
	buf := new([]bool)
	if ws != nil {
		buf = &ws.outTrue
	}
	t := radix.Grow(buf, n)
	for i := range t {
		t[i] = true
	}
	return t
}

// CSCOf converts a into the workspace's pooled CSC storage. The result
// aliases workspace memory and is invalidated by the next CSCOf call.
func (ws *Workspace) CSCOf(a *matrix.CSR) *matrix.CSC { return a.ToCSCInto(&ws.csc) }
