package core

import (
	"sync/atomic"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/numa"
	"pbspgemm/internal/par"
	"pbspgemm/internal/radix"
)

// This file is the fused sort→compress→assemble pipeline (the engine's
// default since PR 5; Options.DisableFusion restores the three-pass PR 4
// path for ablations). Two fusions remove the passes that re-read the
// dominant data structure from DRAM:
//
//   - The sort's last digit pass folds equal keys as buckets complete
//     (radix.SortFusedScratch / radix.SortKeys32FusedPatternScratch): the
//     two-pointer compress — a full cold re-read of the sorted tuple buffer
//     plus an nnz-sized write — disappears into the sort epilogue, where the leaf
//     being folded is still cache-resident. The fused phase also tallies
//     per-row output counts in the same breath, so assemble has exact
//     per-bin offsets the moment sorting ends (sort-and-count), and a
//     parallel prefix then fixes the row pointers.
//   - On budgeted runs with shallow per-bin run counts the k-way merge
//     emits masked column ids and folded values directly into the final CSR
//     slices instead of an intermediate merged-run buffer: a cheap key-only
//     counting walk first makes the per-bin output offsets exact, then the
//     emitting walk writes each bin into its final slot — the merged
//     intermediate (one full write plus one full read of nnz tuples) never
//     exists. Deep merges (many panels) keep the intermediate: two
//     O(k)-per-tuple select-min walks cost more than the buffer they save
//     past a few runs per bin (fusedEmitMergeMaxRuns).
//
// Both fusions are bit-identical to the unfused path: the fused sorts run
// exactly the unfused digit plan and fold in compress order, and the
// emitting merge folds in exactly mergeBin's order (FuzzFusedVsUnfused and
// TestFusedMatchesUnfusedBitIdentical pin this).
//
// The phase is scheduled with work stealing (par.WorkSteal) rather than a
// static or counter-dynamic bin assignment: a worker that meets an oversized
// skewed bin runs the sort's own first partition pass and hands the buckets
// to the other workers as spawned tasks, so a single hot R-MAT bin no longer
// serializes the phase tail behind one worker. Split bins cannot fold inside
// buckets safely in isolation (a bucket boundary may cut through a row, and
// rows of one bin share rowCounts entries), so the worker finishing a split
// bin's last bucket folds the whole — now sorted — bin with the classic
// two-pointer compress, which is bit-identical to the fused whole-bin sort.

// sortTask is one unit of sort-phase work for the work-stealing scheduler: a
// whole bin, or (bucket=true) one top-digit bucket of a partitioned
// oversized bin, with arg carrying the remaining key bits to sort at.
type sortTask struct {
	bin        int32
	bucket     bool
	start, end int64
	arg        int
}

// runSortPhase executes the sort phase over the current panel's bins: fused
// (sort+fold+tally, filling binOut and, when non-nil, rowCounts) or unfused
// (sort only; compressBins runs separately). Threads==1 runs the bins
// sequentially with no scheduler, allocation-free.
func (e *engine) runSortPhase(fused bool, binOut, rowCounts []int64) {
	threads := e.opt.Threads
	bs := e.ws.binStart
	// Size the per-worker stable-scatter scratch to the panel's largest bin:
	// every task (whole bin, partition pass, or bucket) fits inside one bin,
	// so a worker never needs more than maxSeg tuples of private ping-pong
	// space. Grow-only, like every other pooled plane.
	var maxSeg int64
	for bin := 0; bin < e.nbins; bin++ {
		if n := bs[bin+1] - bs[bin]; n > maxSeg {
			maxSeg = n
		}
	}
	e.scratchStride = maxSeg
	e.lay.growScratch(e, int64(threads)*maxSeg)
	if threads == 1 {
		for bin := 0; bin < e.nbins; bin++ {
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteSortTask, 0)
			}
			if fused {
				e.fuseWholeBin(0, bin, binOut, rowCounts)
			} else {
				e.lay.sortSeg(e, sortSeg{start: bs[bin], end: bs[bin+1], arg: -1})
			}
		}
		return
	}
	cutoff := e.sortSplitCutoff()
	pending := matrix.GrowInt32(&e.ws.binPending, e.nbins)
	partBounds := matrix.GrowInt64(&e.ws.partBounds, threads*(radix.MaxPartitionBuckets+1))
	seeds := e.ws.sortTasks[:0]
	for bin := 0; bin < e.nbins; bin++ {
		lo, hi := bs[bin], bs[bin+1]
		if !fused && hi-lo < 2 {
			continue // nothing to sort, and compressBins owns binOut
		}
		seeds = append(seeds, sortTask{bin: int32(bin), start: lo, end: hi})
	}
	e.ws.sortTasks = seeds
	// Pooled steal policy: ownership/steal counters always on (they feed
	// Stats); NUMA victims and thread pinning only when a multi-node machine
	// is active (numaplan.go).
	pol := &e.ws.stealPol
	pol.EnsureCounters(threads)
	if e.numaM != nil {
		m, nodes := e.numaM, e.workerNodes
		pol.Victims, pol.NearLen = e.ws.polVictims, e.ws.polNearLen
		pol.Setup = func(w int) func() { return numa.PinThread(m.NodeCPUs(nodes[w])) }
	} else {
		pol.Victims, pol.NearLen, pol.Setup = nil, nil, nil
	}
	pol.Place = nil
	par.WorkStealPolicy(threads, seeds, pol, func(worker int, t sortTask, spawn func(sortTask)) {
		// Contain per task, not per worker: an absorbed panic still reaches
		// the scheduler's pending decrement, so the pool drains instead of
		// deadlocking on a count that can no longer hit zero.
		defer e.containWorker(worker)
		if e.pollCancel() {
			return
		}
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteSortTask, worker)
		}
		e.runSortTask(worker, t, spawn, fused, cutoff, pending, partBounds, binOut, rowCounts)
	})
	o, s, ns := pol.Totals()
	e.st.SortOwned += o // += : budgeted runs sort once per panel
	e.st.SortStolen += s
	e.st.SortNearStolen += ns
}

// runSortTask executes one work-stealing task; see runSortPhase.
func (e *engine) runSortTask(worker int, t sortTask, spawn func(sortTask),
	fused bool, cutoff int64, pending []int32, partBounds []int64, binOut, rowCounts []int64) {

	bin := int(t.bin)
	if t.bucket {
		e.lay.sortSeg(e, sortSeg{start: t.start, end: t.end, arg: t.arg, worker: worker})
		if fused && atomic.AddInt32(&pending[bin], -1) == 0 {
			// Last bucket of a split bin: the bin is fully sorted — fold it.
			e.compressOneBin(bin, binOut, rowCounts)
		}
		return
	}
	if t.end-t.start <= cutoff {
		if fused {
			e.fuseWholeBin(worker, bin, binOut, rowCounts)
		} else {
			e.lay.sortSeg(e, sortSeg{start: t.start, end: t.end, arg: -1, worker: worker})
		}
		return
	}

	// Oversized skewed bin: run the sort's own first partition pass here and
	// spawn the buckets; idle workers steal them, so neither the partition
	// nor the bucket sorts serialize the phase. The layout provides the pass
	// (radix.PartitionTopScratch / PartitionTop32PatternScratch); zero
	// buckets means the pass alone finished the range.
	lo, hi := t.start, t.end
	stride := radix.MaxPartitionBuckets + 1
	bounds := partBounds[worker*stride : (worker+1)*stride]
	nb, arg := e.lay.partitionTop(e, worker, lo, hi, bounds)
	nspawn := 0
	for b := 0; b < nb; b++ {
		if bounds[b+1]-bounds[b] > 1 {
			nspawn++
		}
	}
	if nspawn > 0 {
		if fused {
			// Published to bucket tasks through the spawn below.
			atomic.StoreInt32(&pending[bin], int32(nspawn))
		}
		for b := 0; b < nb; b++ {
			blo, bhi := lo+bounds[b], lo+bounds[b+1]
			if bhi-blo > 1 {
				spawn(sortTask{bin: t.bin, bucket: true, start: blo, end: bhi, arg: arg})
			}
		}
	}
	if nspawn == 0 && fused {
		// The partition pass alone finished the bin: fold it now.
		e.compressOneBin(bin, binOut, rowCounts)
	}
}

// fuseWholeBin runs the fused sort+fold over one bin, then masks it and
// tallies its row counts (foldedBin; rowCounts is nil on the budgeted path,
// which tallies in the merge). The folded prefix lands at the bin's own
// binStart offset, exactly where compressBin would leave it.
func (e *engine) fuseWholeBin(worker, bin int, binOut, rowCounts []int64) {
	bs := e.ws.binStart
	e.foldedBin(bin, e.lay.fuseBin(e, worker, bs[bin], bs[bin+1]), binOut, rowCounts)
}

// countMergeBins is the counting half of the fused k-way merge: per bin, a
// key-only walk over the bin's runs counts the exact merged output size and
// tallies per-row counts, without writing a tuple. With the counts exact, a
// prefix sum gives every bin its final CSR slot before any value moves.
func (e *engine) countMergeBins() {
	matrix.GrowInt64Zero(&e.ws.rowCounts, int(e.a.NumRows)+1)
	if e.opt.Threads == 1 {
		for bin := 0; bin < e.nbins; bin++ {
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteMergeBin, 0)
			}
			e.keys.countMergeBin(e, 0, bin)
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
			e.keys.countMergeBin(e, worker, bin)
		})
	}
}

// countMergeBin is one bin's counting walk: mergeBin's select-min order,
// counting each distinct key and tallying its row without moving a tuple.
func (kp *keyPlanes[K]) countMergeBin(e *engine, worker, bin int) {
	ws := e.ws
	group := e.runGroup(bin)
	var n int64
	switch len(group) {
	case 0:
	case 1:
		// Runs are individually duplicate-free: the count is the run length.
		r := group[0]
		n = ws.runStart[r+1] - ws.runStart[r]
		tallyKeys(e, kp.run[ws.runStart[r]:ws.runStart[r+1]], ws.rowCounts, bin)
	default:
		heads := e.mergeHeads(worker, group)
		firstRow := int32(int64(bin) << e.rowShift)
		var last K
		for {
			best, key := minHead(kp.run, ws.runStart, group, heads)
			if best < 0 {
				break
			}
			heads[best]++
			if n == 0 || key != last {
				n++
				last = key
				ws.rowCounts[firstRow+int32(key>>e.colBits)+1]++
			}
		}
	}
	ws.binOut[bin] = n
}

// emitMergeBins is the emitting half of the fused k-way merge: each bin
// re-walks its runs and writes masked column ids and folded values directly
// into its pre-computed slice of the final CSR — same walk, same fold order
// as the unfused mergeBin, so the values are bit-identical. The per-layout
// walks live in layout.go.
func (e *engine) emitMergeBins(c *matrix.CSR, binOutStart []int64) {
	if e.opt.Threads == 1 {
		for bin := 0; bin < e.nbins; bin++ {
			if e.pollCancel() {
				return
			}
			if faultinject.Enabled {
				faultinject.Fire(faultinject.SiteMergeBin, 0)
			}
			e.lay.emitMergeBin(e, c, binOutStart, 0, bin)
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
			e.lay.emitMergeBin(e, c, binOutStart, worker, bin)
		})
	}
}
