package kernel

import (
	"context"

	"pbspgemm/internal/baseline"
	"pbspgemm/internal/core"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// contain converts a panic unwinding out of a kernel call — the kernel's own
// sequential code, or a *par.PanicError rethrown by the par primitives after
// a contained worker panic — into a typed error return, so one poisoned
// request cannot take down a process embedding the engine. The PB kernel
// contains panics inside core already; this is the uniform last line for the
// column baselines and any conversion code at the wrapper layer.
func contain(name string, r **Result, err *error) {
	if pe := par.AsPanicError(recover(), -1, name); pe != nil {
		*r, *err = nil, pe
	}
}

// Canonical kernel names, matching the paper's nomenclature (and
// pbspgemm.Algorithm.String, which the public dispatch keys on).
const (
	NamePB        = "PB-SpGEMM"
	NameHeap      = "HeapSpGEMM"
	NameHash      = "HashSpGEMM"
	NameHashVec   = "HashVecSpGEMM"
	NameSPA       = "SPASpGEMM"
	NameOuterHeap = "OuterHeapNaive"
	NameColumnESC = "ColumnESC"
)

func init() {
	Register(pbKernel{})
	Register(columnKernel{name: NameHeap, fn: baseline.Heap})
	Register(columnKernel{name: NameHash, fn: baseline.Hash})
	Register(columnKernel{name: NameHashVec, fn: baseline.HashVec})
	Register(columnKernel{name: NameSPA, fn: baseline.SPA})
	Register(outerHeapKernel{})
	Register(columnKernel{name: NameColumnESC, fn: baseline.ColumnESC})
}

// pbKernel serves PB-SpGEMM (internal/core): outer-product
// expand-sort-compress with propagation blocking.
type pbKernel struct{}

func (pbKernel) Name() string { return NamePB }

func (pbKernel) Capabilities() Capabilities {
	return Capabilities{Masked: true, Budgeted: true, Cancellable: true,
		WorkspaceReusing: true, SqueezedTuples: true, FusedCompress: true}
}

func (pbKernel) Multiply(ctx context.Context, ws *Workspace, a, b *matrix.CSR, opt Opts) (r *Result, err error) {
	defer contain(NamePB, &r, &err)
	cw := ws.coreWS()
	var acsc *matrix.CSC
	if cw != nil {
		acsc = cw.CSCOf(a)
	} else {
		acsc = a.ToCSC()
	}
	c, st, merr := core.Multiply(acsc, b, core.Options{
		NBins:             opt.NBins,
		LocalBinBytes:     opt.LocalBinBytes,
		Threads:           opt.Threads,
		L2CacheBytes:      opt.L2CacheBytes,
		MemoryBudgetBytes: opt.MemoryBudgetBytes,
		Mask:              opt.Mask,
		Complement:        opt.Complement,
		Workspace:         cw,
		Cancel:            cancelOf(ctx),
	})
	if merr != nil {
		return nil, merr
	}
	r = ws.result()
	r.C, r.PB = c, st
	r.Flops, r.NNZC, r.CF, r.Elapsed = st.Flops, st.NNZC, st.CF, st.Total
	return r, nil
}

// columnKernel adapts one internal/baseline column algorithm: Gustavson
// row-wise accumulation with the named accumulator, pooled scratch, and
// phase-boundary cancellation.
type columnKernel struct {
	name string
	fn   func(a, b *matrix.CSR, opt baseline.Options) (*matrix.CSR, *baseline.Stats, error)
}

func (k columnKernel) Name() string { return k.name }

func (columnKernel) Capabilities() Capabilities {
	return Capabilities{Cancellable: true, WorkspaceReusing: true}
}

func (k columnKernel) Multiply(ctx context.Context, ws *Workspace, a, b *matrix.CSR, opt Opts) (r *Result, err error) {
	defer contain(k.name, &r, &err)
	c, st, merr := k.fn(a, b, baseline.Options{
		Threads:   opt.Threads,
		Workspace: ws.colWS(),
		Cancel:    cancelOf(ctx),
	})
	if merr != nil {
		return nil, merr
	}
	r = ws.result()
	r.C, r.Baseline = c, st
	r.Flops, r.NNZC, r.CF, r.Elapsed = st.Flops, st.NNZC, st.CF, st.Total
	return r, nil
}

// outerHeapKernel serves the n-merge outer-product algorithm the paper
// dismisses (Section II-B); registered for ablations. It has no phase
// hooks, so cancellation is observed only at the call boundary, and its
// merge allocates per call (only A's CSC conversion is pooled).
type outerHeapKernel struct{}

func (outerHeapKernel) Name() string { return NameOuterHeap }

func (outerHeapKernel) Capabilities() Capabilities { return Capabilities{} }

func (outerHeapKernel) Multiply(ctx context.Context, ws *Workspace, a, b *matrix.CSR, opt Opts) (r *Result, err error) {
	defer contain(NameOuterHeap, &r, &err)
	if cancel := cancelOf(ctx); cancel != nil {
		if cerr := cancel(); cerr != nil {
			return nil, cerr
		}
	}
	cw := ws.coreWS()
	var acsc *matrix.CSC
	if cw != nil {
		acsc = cw.CSCOf(a)
	} else {
		acsc = a.ToCSC()
	}
	c, st, merr := baseline.OuterHeap(acsc, b)
	if merr != nil {
		return nil, merr
	}
	r = ws.result()
	r.C, r.Baseline = c, st
	r.Flops, r.NNZC, r.CF, r.Elapsed = st.Flops, st.NNZC, st.CF, st.Total
	return r, nil
}
