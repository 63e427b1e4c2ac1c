package core

import (
	"time"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/par"
)

// This file is the memory-budgeted execution path: A's columns are tiled
// into panels whose expanded tuples fit Options.MemoryBudgetBytes, each
// panel runs the expand-sort-compress pipeline of the single-shot algorithm,
// and the per-(panel, bin) compressed sorted runs are k-way merged bin by
// bin into the same canonical CSR the single-shot path produces.
//
// The tuple buffer — the flops×16-byte allocation that makes the paper's
// single-shot design infeasible when the expansion exceeds RAM — is bounded
// by the largest panel. The run arena holds only compressed tuples, whose
// total is at most Σ_p nnz(C_p) ≤ flops but is near nnz(C) whenever panels
// capture duplicate folding, so the working set tracks the output rather
// than the expansion.

// runBudgeted executes the multi-panel pipeline. Caller guarantees
// npanels >= 2 and flops > 0.
func (e *engine) runBudgeted() (*matrix.CSR, error) {
	ws := e.ws
	if faultinject.Enabled {
		faultinject.Fire(faultinject.SiteGrow, -1)
	}
	e.lay.growTuples(e, e.maxPanelFlops)
	e.lay.resetRuns(e)
	ws.runStart = ws.runStart[:0]
	ws.runBins = ws.runBins[:0]
	matrix.GrowInt64(&ws.binOut, e.nbins)

	for p := 0; p < e.npanels; p++ {
		if err := e.canceled(); err != nil {
			return nil, err
		}
		lo, hi := ws.panelStart[p], ws.panelStart[p+1]

		e.phase = "plan"
		t0 := time.Now()
		e.panelPlan(lo, hi)
		e.st.Symbolic += time.Since(t0)

		e.phase = "expand"
		t0 = time.Now()
		e.expandPanel(lo)
		e.st.Expand += time.Since(t0)

		if e.fused {
			// Fused sort+fold; row tallies wait for the merge, when final
			// per-row counts are known. appendRuns reads the folded
			// prefixes exactly where compressPanel would leave them.
			e.phase = "sort"
			t0 = time.Now()
			e.runSortPhase(true, ws.binOut, nil)
			if err := e.canceled(); err != nil {
				return nil, err
			}
			e.appendRuns()
			e.st.Fuse += time.Since(t0)
		} else {
			e.phase = "sort"
			t0 = time.Now()
			e.runSortPhase(false, nil, nil)
			e.st.Sort += time.Since(t0)
			if err := e.canceled(); err != nil {
				return nil, err
			}

			e.phase = "compress"
			t0 = time.Now()
			e.compressPanel()
			if err := e.canceled(); err != nil {
				return nil, err
			}
			e.appendRuns()
			e.st.Compress += time.Since(t0)
		}
	}
	ws.runStart = append(ws.runStart, e.keys.runLen()) // closing boundary
	if err := e.canceled(); err != nil {
		return nil, err
	}

	e.phase = "merge"
	t0 := time.Now()
	e.groupRuns()
	e.st.Merge = time.Since(t0)
	if e.emitMerge {
		return e.mergeIntoCSR()
	}

	// Classic merge through the intermediate buffer — the unfused path, and
	// the fused fallback when the per-bin run count is deep (see
	// fusedEmitMergeMaxRuns).
	t0 = time.Now()
	e.mergeBins()
	e.st.Merge += time.Since(t0)
	if err := e.canceled(); err != nil {
		return nil, err
	}

	e.phase = "assemble"
	t0 = time.Now()
	c := e.assemble(ws.mergedStart, true)
	e.st.Assemble = time.Since(t0)
	if err := e.canceled(); err != nil {
		return nil, err
	}
	return c, nil
}

// fusedEmitMergeMaxRuns bounds the per-bin run count (the k of the k-way
// merge) up to which the fused merge emits directly into the final CSR. The
// emit-merge runs the O(k)-per-tuple select-min walk twice (count, then
// emit) to learn exact output offsets; the classic merge walks once but
// writes and re-reads the merged intermediate (~2 extra memory ops per
// tuple). The walks' comparison cost scales with k while the buffer cost
// does not, so past a few runs per bin the intermediate is the cheaper
// trade (measured crossover ≈ 3-4 on the bench trajectory's budgeted
// regimes).
const fusedEmitMergeMaxRuns = 3

// mergeIntoCSR is the fused budgeted epilogue for shallow merges: a
// key-only counting merge makes every bin's output size (and the row
// counts) exact, prefix sums fix the bin offsets and row pointers, and the
// emitting merge then writes each bin's folded tuples directly into its
// final slice of the result CSR — the intermediate merged-run buffer of the
// unfused path never exists. groupRuns has already run.
func (e *engine) mergeIntoCSR() (*matrix.CSR, error) {
	ws := e.ws
	t0 := time.Now()
	e.countMergeBins()
	e.st.Merge += time.Since(t0)
	if err := e.canceled(); err != nil {
		return nil, err
	}

	t0 = time.Now()
	binOutStart := matrix.GrowInt64(&ws.binOutStart, e.nbins+1)
	nnzc := par.PrefixSum(ws.binOut, binOutStart)
	c := e.newResult(nnzc)
	par.PrefixSumParallel(ws.rowCounts[1:int(e.a.NumRows)+1], c.RowPtr, e.opt.Threads)
	e.st.Assemble = time.Since(t0)

	t0 = time.Now()
	e.emitMergeBins(c, binOutStart)
	e.st.Merge += time.Since(t0)
	// The emitting merge writes straight into c; an aborted emit leaves a
	// partial result that must be discarded here.
	if err := e.canceled(); err != nil {
		return nil, err
	}
	return c, nil
}

// compressPanel folds duplicate keys within each sorted bin segment of the
// current panel. Row tallies are deferred to the merge (a row's final count
// is only known once all panels' runs are folded).
func (e *engine) compressPanel() {
	e.compressBins(e.ws.binOut, nil)
}

// appendRuns copies the current panel's nonempty compressed bin segments
// into the run arena, recording one sorted, duplicate-free run per
// (panel, bin). Growth is append's amortized doubling; in steady state the
// pooled capacity suffices and nothing allocates.
func (e *engine) appendRuns() {
	ws := e.ws
	for bin := 0; bin < e.nbins; bin++ {
		n := ws.binOut[bin]
		if n == 0 {
			continue
		}
		ws.runBins = append(ws.runBins, int32(bin))
		ws.runStart = append(ws.runStart, e.keys.runLen())
		e.lay.appendRun(e, ws.binStart[bin], n)
	}
}

// groupRuns counting-sorts run ids by bin (runs were appended panel-major)
// and lays out the merged-output offsets: bin b's merge writes into
// merged[mergedStart[b]:mergedStart[b+1]], sized by the bin's total run
// length (the no-folding upper bound). Fused runs with shallow per-bin run
// counts skip the merged buffers entirely — their merge emits into the
// final CSR (mergeIntoCSR) — and only need the run grouping and the
// per-worker merge heads; deep fused merges fall back to the intermediate
// (see fusedEmitMergeMaxRuns).
func (e *engine) groupRuns() {
	ws := e.ws
	nruns := len(ws.runBins)
	ris := matrix.GrowInt32(&ws.runIdxStart, e.nbins+1)
	clear(ris)
	for _, bin := range ws.runBins {
		ris[bin+1]++
	}
	for bin := 0; bin < e.nbins; bin++ {
		ris[bin+1] += ris[bin]
	}
	ri := matrix.GrowInt32(&ws.runIdx, nruns)
	cur := matrix.GrowInt64(&ws.binFlops, e.nbins) // free scratch after panelPlan
	for bin := 0; bin < e.nbins; bin++ {
		cur[bin] = int64(ris[bin])
	}
	for r, bin := range ws.runBins {
		ri[cur[bin]] = int32(r)
		cur[bin]++
	}

	ms := matrix.GrowInt64(&ws.mergedStart, e.nbins+1)
	ms[0] = 0
	maxRuns := 0
	for bin := 0; bin < e.nbins; bin++ {
		var sum int64
		group := ri[ris[bin]:ris[bin+1]]
		for _, r := range group {
			sum += ws.runStart[r+1] - ws.runStart[r]
		}
		ms[bin+1] = ms[bin] + sum
		if len(group) > maxRuns {
			maxRuns = len(group)
		}
	}
	e.maxRunsPerBin = maxRuns
	e.emitMerge = e.fused && maxRuns <= fusedEmitMergeMaxRuns
	if !e.emitMerge {
		e.lay.growMerged(e, ms[e.nbins])
	}
	matrix.GrowInt64(&ws.heads, e.opt.Threads*maxRuns)
}

// mergeBins k-way merges each bin's runs into the merged buffer, folding
// equal keys with + and tallying per-row output counts. Bins are
// independent (disjoint row ranges), so they run under the same dynamic
// schedule as sort and compress.
func (e *engine) mergeBins() {
	matrix.GrowInt64Zero(&e.ws.rowCounts, int(e.a.NumRows)+1)
	if e.opt.Threads == 1 {
		for bin := 0; bin < e.nbins; bin++ {
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteMergeBin, 0)
			}
			e.lay.mergeBin(e, 0, bin)
		}
	} else {
		par.ForEachDynamic(e.nbins, e.opt.Threads, func(worker, bin int) {
			defer e.containWorker(worker)
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteMergeBin, worker)
			}
			e.lay.mergeBin(e, worker, bin)
		})
	}
}
