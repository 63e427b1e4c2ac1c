package core

import (
	"errors"
	"fmt"
	"unsafe"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/radix"
	"pbspgemm/internal/simd"
)

// This file is the key- and value-width-generic layout layer. The paper's
// traffic argument — SpGEMM is bandwidth-bound, so bytes-per-tuple is the
// lever — does not stop at the 12-byte squeezed layout: a Boolean/structural
// product never reads its values (4-byte key-only tuples), and float32/int32
// workloads need only half the value plane (8-byte tuples of a 4-byte key and a 4-byte value). Each
// tuple layout is a layoutOps implementation; the engine holds exactly one
// per run (e.lay) and every phase dispatches element accesses through it
// while all control flow — bin geometry, panel tiling, the work-stealing
// sort scheduler, the budgeted merge plan, the structural mask — stays
// layout-independent, which is what makes the layouts bit-identical in
// structure.
//
// The implementations:
//
//   - planes[K, V]: a key plane plus a parallel value plane, and every move
//     that does not look at a value (grow, sort, partition, append a run,
//     unpack, touch, mask). Key planes live in the Workspace, shared by
//     every layout of one key width (keyPlanes); only the value planes are
//     V-typed.
//   - kv[K, V]: planes plus the (+, ×) arithmetic. kv[uint32, float64] is
//     the 12-byte squeezed layout, kv[uint32, float32|int32] the 8-byte
//     narrow one and kv[uint64, float64] the 16-byte wide one — the same
//     (key, value) tuple with an 8-byte key, for geometries whose packed key
//     needs more than 32 bits.
//   - ring[K, T] (ring.go): planes plus a semiring's Plus/Times funcs, for
//     every product no typed layout serves: custom semirings, stored-false
//     booleans, and narrow/pattern geometries whose key needs 64 bits.
//   - patternOps: bare uint32 keys, 4 bytes per tuple; the fold is
//     deduplication and the result CSR carries no Val array.
//
// Phases that read only keys (row tallies, the fused merge's counting walk)
// go through e.keys, the active key width's keyPlanes, instead of through
// the layout. patternOps is zero-size and the kv, ring and keyPlanes values
// are reached by pointer into the Workspace, so rebinding e.lay and e.keys
// per call allocates nothing.

// Value is the set of element types a value-carrying tuple layout can move:
// the float64 of the 12-byte squeezed layout plus the 4-byte types of the
// 8-byte narrow layout. It matches radix.Numeric, the fused fold's
// constraint.
type Value interface{ ~float32 | ~float64 | ~int32 }

// Value32 is the 4-byte subset of Value — the value plane of the 8-byte
// narrow layout (MultiplyNarrow).
type Value32 interface{ ~float32 | ~int32 }

// ErrKeyWidth reports that a layout requiring 32-bit packed keys was
// requested for a bin geometry whose localRowBits + colBits exceed 32.
var ErrKeyWidth = errors.New("packed key exceeds 32 bits")

// layoutOps is the per-layout half of the pipeline: every method is one
// phase's element accesses over one layout's storage, called with the engine
// whose geometry (bins, shifts, masks) drives it. Implementations must keep
// the tuple ORDER identical across layouts — same digit plans, same fold
// order — so the structural output is bit-identical layout to layout.
type layoutOps interface {
	// growTuples sizes the expanded-tuple buffer for n tuples.
	growTuples(e *engine, n int64)
	// growLocals sizes the flattened threads×nbins×capT local bins.
	growLocals(e *engine, n int64)
	// resetRuns truncates the layout's run arena (keys and values).
	resetRuns(e *engine)
	// expandRange is one worker's outer-product expansion with propagation
	// blocking over panel columns [lo+colBounds[t], lo+colBounds[t+1]).
	expandRange(e *engine, t, lo int, cursors []int64)
	// growScratch sizes the layout's sort-phase ping-pong scratch planes to
	// total tuples (threads × engine.scratchStride).
	growScratch(e *engine, total int64)
	// sortSeg sorts tuples [s.start, s.end) on worker s.worker's scratch;
	// s.arg < 0 means a whole bin, otherwise the remaining key bits to
	// recurse at.
	sortSeg(e *engine, s sortSeg)
	// partitionTop runs the sort's first splitting pass over [lo, hi) on the
	// given worker's scratch, filling bounds (len ≥
	// radix.MaxPartitionBuckets+1) and returning the bucket count and the
	// arg buckets continue sorting at. nbuckets == 0 means the range needs
	// no further sorting.
	partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (nbuckets, arg int)
	// fuseBin runs the fused sort+fold over [lo, hi) on the given worker's
	// scratch, leaving the folded prefix in place and returning its length.
	fuseBin(e *engine, worker int, lo, hi int64) int64
	// compressBin folds duplicates of the sorted range [lo, hi) in place,
	// returning the folded length.
	compressBin(e *engine, lo, hi int64) int64
	// appendRun copies the folded bin segment at [src, src+n) into the run
	// arena.
	appendRun(e *engine, src, n int64)
	// growMerged sizes the merged-run buffer for n tuples.
	growMerged(e *engine, n int64)
	// mergeBin k-way merges one bin's runs into the merged buffer, folding
	// duplicates and tallying rowCounts.
	mergeBin(e *engine, worker, bin int)
	// emitMergeBin is the fused merge's emitting walk: fold one bin's runs
	// directly into the result's final slot.
	emitMergeBin(e *engine, c *matrix.CSR, binOutStart []int64, worker, bin int)
	// unpackBin writes one compressed bin into the result CSR; merged
	// selects the merged-run buffer over the tuple buffer as the source.
	unpackBin(e *engine, c *matrix.CSR, merged bool, srcOff, dstOff, n int64)
	// growOut installs the result's value storage (c.Val for the float64
	// layouts, the layout's out plane for narrow, nothing for pattern).
	growOut(e *engine, c *matrix.CSR, nnzc int64)
	// maskBin applies Options.Mask to the folded bin segment [lo, lo+n)
	// in place, returning the kept count (maskKeys).
	maskBin(e *engine, lo, n int64, bin int) int64
	// touchRange first-touches the tuple storage of range [lo, hi) (one
	// store per page of every plane the layout writes there) so NUMA
	// first-touch placement lands the pages on the calling thread's node.
	// Only called on ranges expand fully overwrites.
	touchRange(e *engine, lo, hi int64)
}

// keyPlanes pools the key planes of one key width. Every layout of that
// width shares them — Workspace.keys32 serves the squeezed, narrow and
// pattern layouts, Workspace.keys64 the wide one — and a run grows only the
// planes of the width it picked.
type keyPlanes[K radix.Key] struct {
	tuple   []K // expanded tuples of the current panel
	local   []K // propagation-blocking local bins, threads × nbins × capT
	run     []K // budgeted path: compressed per-(panel, bin) runs
	merged  []K // budgeted path: per-bin merged output
	scratch []K // sort ping-pong scratch, threads × engine.scratchStride
}

// keyOps is the engine's view of the active key width: the phases that read
// only keys dispatch through it rather than branching on the width.
// bindLayout installs &ws.keys32 or &ws.keys64.
type keyOps interface {
	// runLen is the current length of the run arena.
	runLen() int64
	// tallyRows adds the per-row output counts of the folded tuples at
	// [src, src+n) of bin into rowCounts.
	tallyRows(e *engine, src, n int64, rowCounts []int64, bin int)
	// countMergeBin is the fused merge's counting walk (fused.go).
	countMergeBin(e *engine, worker, bin int)
}

func (kp *keyPlanes[K]) runLen() int64 { return int64(len(kp.run)) }

func (kp *keyPlanes[K]) tallyRows(e *engine, src, n int64, rowCounts []int64, bin int) {
	tallyKeys(e, kp.tuple[src:src+n], rowCounts, bin)
}

// tallyKeys adds one output count per key to its row's rowCounts slot (the
// slot after the row, ready for the prefix sum). Rows of a bin are touched by
// no other bin, so writing the shared slice without synchronization is safe.
func tallyKeys[K radix.Key](e *engine, keys []K, rowCounts []int64, bin int) {
	firstRow := int32(int64(bin) << e.rowShift)
	cb := e.colBits
	for _, k := range keys {
		rowCounts[firstRow+int32(k>>cb)+1]++
	}
}

// maskKeys is the structural mask (Options.Mask): it keeps the tuples of a
// folded, sorted bin segment whose position the mask stores (or, under
// Complement, does not), compacting keys and vals (nil for pattern) in
// place with one linear merge against the mask's rows, and returns the
// kept count.
func maskKeys[K radix.Key, V any](e *engine, keys []K, vals []V, bin int) int64 {
	m, complement := e.opt.Mask, e.opt.Complement
	firstRow := int32(int64(bin) << e.rowShift)
	cb := e.colBits
	cm := K(1)<<cb - 1
	var w int64
	for i := 0; i < len(keys); {
		rk := keys[i] >> cb
		row := firstRow + int32(rk)
		mp, mEnd := m.RowPtr[row], m.RowPtr[row+1]
		for ; i < len(keys) && keys[i]>>cb == rk; i++ {
			col := int32(keys[i] & cm)
			for mp < mEnd && m.ColIdx[mp] < col {
				mp++
			}
			if (mp < mEnd && m.ColIdx[mp] == col) != complement {
				keys[w] = keys[i]
				if vals != nil {
					vals[w] = vals[i]
				}
				w++
			}
		}
	}
	return w
}

// runGroup returns the ids of bin's runs in panel order.
func (e *engine) runGroup(bin int) []int32 {
	return e.ws.runIdx[e.ws.runIdxStart[bin]:e.ws.runIdxStart[bin+1]]
}

// mergeHeads seeds the worker's k-way merge cursors at the starts of
// group's runs.
func (e *engine) mergeHeads(worker int, group []int32) []int64 {
	heads := e.ws.heads[worker*e.maxRunsPerBin : worker*e.maxRunsPerBin+len(group)]
	for i, r := range group {
		heads[i] = e.ws.runStart[r]
	}
	return heads
}

// minHead is the k-way merge's select-min over runs that are each sorted and
// duplicate-free: it returns the position in group of the run whose head key
// is smallest — the earliest run on ties, so equal keys fold in panel order —
// and that key, or -1 once every run is exhausted. The scan is linear in
// k ≤ npanels; bins are L2-sized, so the merge stays in cache.
func minHead[K radix.Key](runKeys []K, runStart []int64, group []int32, heads []int64) (int, K) {
	best := -1
	var bestKey K
	for i, r := range group {
		h := heads[i]
		if h == runStart[r+1] {
			continue // run exhausted
		}
		if key := runKeys[h]; best < 0 || key < bestKey {
			best, bestKey = i, key
		}
	}
	return best, bestKey
}

// workerSlice returns worker w's private n-long slice of a sort scratch
// plane (flattened threads × engine.scratchStride).
func workerSlice[T any](plane []T, e *engine, w int, n int64) []T {
	off := int64(w) * e.scratchStride
	return plane[off : off+n]
}

// pooled returns the *P a type-erased workspace slot holds (the narrow
// layout's kv for its value type, the ring layout's pool for its element
// type), creating it on first use. A slot holds one type at a time:
// alternating types across calls on one workspace reallocates, a stable one
// reuses.
func pooled[P any](slot *any) *P {
	if p, ok := (*slot).(*P); ok {
		return p
	}
	p := new(P)
	*slot = p
	return p
}

// bindKV binds a kv layout to its key planes and the call's input value
// planes.
func bindKV[K radix.Key, V Value](l *kv[K, V], kp *keyPlanes[K], aVal, bVal []V) *kv[K, V] {
	l.keys, l.aVal, l.bVal = kp, aVal, bVal
	return l
}

// bindLayout installs e.lay and e.keys for the layout and key width
// planBins chose. The narrow entry pre-binds its typed kv (carrying the
// caller's value planes) and the ring entry its pool of both key widths;
// everything else resolves here.
func (e *engine) bindLayout() {
	ws := e.ws
	switch e.layout {
	case LayoutSqueezed:
		e.lay = bindKV(&ws.kvF64, &ws.keys32, e.a.Val, e.b.Val)
	case LayoutWide:
		e.lay = bindKV(&ws.kvWide, &ws.keys64, e.a.Val, e.b.Val)
	case LayoutPattern:
		e.lay = patternOps{}
	case LayoutRing:
		e.lay = e.ring.pick(e.wideKeys)
	case LayoutNarrow:
		// MultiplyNarrow bound e.lay before run().
	}
	e.keys = &ws.keys32
	if e.wideKeys {
		e.keys = &ws.keys64
	}
}

// dropInputs clears the engine's and the float64 layouts' references to the
// call's inputs so a pooled workspace does not pin caller memory (the narrow
// and ring entries clear their own bindings).
func (e *engine) dropInputs() {
	e.a, e.b, e.st, e.lay, e.keys, e.ring = nil, nil, nil, nil, nil, nil
	e.opt.Mask = nil
	ws := e.ws
	ws.kvF64.aVal, ws.kvF64.bVal = nil, nil
	ws.kvWide.aVal, ws.kvWide.bVal = nil, nil
}

// MultiplyPattern computes the structural (pattern-only) product of A and B:
// the returned CSR has the exact support of A·B and a nil Val array. Tuples
// are bare 4-byte keys — a quarter of the wide layout's traffic in the
// expand and sort phases — and the fused fold degenerates to deduplication.
// Neither A's nor B's Val arrays are read (they may be nil). The pattern
// layout requires the packed key to fit 32 bits; a geometry with
// localRowBits + colBits > 32 fails with ErrKeyWidth before a tuple is
// expanded (internal/semiring then runs the ring layout). Options.ForceLayout
// is ignored: the entry point is the layout.
func MultiplyPattern(a *matrix.CSC, b *matrix.CSR, opt Options) (*matrix.CSR, *Stats, error) {
	opt = opt.withDefaults()
	e, err := newEngine(a, b, opt, LayoutPattern)
	if err != nil {
		return nil, nil, err
	}
	return e.runContained()
}

// MultiplyNarrow computes C = A*B over 4-byte values (float32 or int32) with
// the 8-byte layout (a 4-byte key plus a 4-byte value). The inputs are the structural CSC/CSR
// (whose float64 Val arrays are never read and may be nil) plus parallel
// value planes indexed like a.RowIdx and b.ColIdx; the result is the
// structural CSR (nil Val) plus its value plane, aliasing workspace memory
// when opt.Workspace is set. Like MultiplyPattern, the key must fit 32 bits
// (ErrKeyWidth otherwise) and ForceLayout is ignored.
func MultiplyNarrow[V Value32](a *matrix.CSC, aVal []V, b *matrix.CSR, bVal []V, opt Options) (*matrix.CSR, []V, *Stats, error) {
	opt = opt.withDefaults()
	if int64(len(aVal)) < int64(len(a.RowIdx)) || int64(len(bVal)) < int64(len(b.ColIdx)) {
		return nil, nil, nil, fmt.Errorf("core: narrow value planes shorter than their index arrays (%d < %d or %d < %d): %w",
			len(aVal), len(a.RowIdx), len(bVal), len(b.ColIdx), matrix.ErrShape)
	}
	e, err := newEngine(a, b, opt, LayoutNarrow)
	if err != nil {
		return nil, nil, nil, err
	}
	l := bindKV(pooled[kv[uint32, V]](&e.ws.kvNarrow), &e.ws.keys32, aVal, bVal)
	e.lay = l
	c, st, err := e.runContained()
	vals := l.out
	l.aVal, l.bVal, l.out = nil, nil, nil
	if err != nil {
		return nil, nil, nil, err
	}
	return c, vals, st, nil
}

// ---------------------------------------------------------------------------
// planes[K, V]: a key plane plus a V value plane, and the moves over them.

// planes is the value-agnostic half of the key+value layouts: a pointer to
// the Workspace's key planes of width K plus the layout's own value planes,
// pooled grow-only, and every phase step that only moves tuples — grow,
// sort and partition, append a run, unpack, touch, mask. kv adds the (+, ×)
// arithmetic on top, ring the semiring's Plus/Times.
type planes[K radix.Key, V any] struct {
	keys *keyPlanes[K]

	tupleVals   []V
	localVals   []V
	runVals     []V
	mergedVals  []V
	outVal      []V
	scratchVals []V

	// Per-call bindings: the input value planes (parallel to a.RowIdx /
	// b.ColIdx) and the result's value destination. Cleared after each run so
	// a pooled workspace doesn't pin caller memory.
	aVal, bVal []V
	out        []V
}

// tupleCapBytes reports the value plane's pooled capacity; Workspace
// .TupleCapBytes adds it to the shared key planes'.
func (l *planes[K, V]) tupleCapBytes() int64 {
	var v V
	return int64(cap(l.tupleVals)) * int64(unsafe.Sizeof(v))
}

func (l *planes[K, V]) growTuples(e *engine, n int64) {
	radix.Grow(&l.keys.tuple, n)
	radix.Grow(&l.tupleVals, n)
}

func (l *planes[K, V]) growLocals(e *engine, n int64) {
	radix.Grow(&l.keys.local, n)
	radix.Grow(&l.localVals, n)
}

func (l *planes[K, V]) resetRuns(e *engine) {
	l.keys.run = l.keys.run[:0]
	l.runVals = l.runVals[:0]
}

func (l *planes[K, V]) growScratch(e *engine, total int64) {
	radix.Grow(&l.keys.scratch, total)
	radix.Grow(&l.scratchVals, total)
}

// scratchFor returns worker w's private n-long slices of the sort scratch
// planes.
func (l *planes[K, V]) scratchFor(e *engine, w int, n int64) ([]K, []V) {
	return workerSlice(l.keys.scratch, e, w, n), workerSlice(l.scratchVals, e, w, n)
}

func (l *planes[K, V]) sortSeg(e *engine, s sortSeg) {
	keys := l.keys.tuple[s.start:s.end]
	vals := l.tupleVals[s.start:s.end]
	auxK, auxV := l.scratchFor(e, s.worker, s.end-s.start)
	if s.arg < 0 {
		radix.SortScratch(keys, vals, auxK, auxV, e.batch)
	} else {
		radix.SortBitsScratch(keys, vals, auxK, auxV, s.arg, e.batch)
	}
}

func (l *planes[K, V]) partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (int, int) {
	auxK, auxV := l.scratchFor(e, worker, hi-lo)
	return radix.PartitionTopScratch(l.keys.tuple[lo:hi], l.tupleVals[lo:hi], auxK, auxV, bounds, e.batch)
}

func (l *planes[K, V]) appendRun(e *engine, src, n int64) {
	l.keys.run = append(l.keys.run, l.keys.tuple[src:src+n]...)
	l.runVals = append(l.runVals, l.tupleVals[src:src+n]...)
}

func (l *planes[K, V]) growMerged(e *engine, n int64) {
	radix.Grow(&l.keys.merged, n)
	radix.Grow(&l.mergedVals, n)
}

func (l *planes[K, V]) unpackBin(e *engine, c *matrix.CSR, merged bool, srcOff, dstOff, n int64) {
	keys, vals := l.keys.tuple, l.tupleVals
	if merged {
		keys, vals = l.keys.merged, l.mergedVals
	}
	cm := K(1)<<e.colBits - 1
	out := l.out
	for j := int64(0); j < n; j++ {
		c.ColIdx[dstOff+j] = int32(keys[srcOff+j] & cm)
		out[dstOff+j] = vals[srcOff+j]
	}
}

func (l *planes[K, V]) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	if e.shared {
		l.out = radix.Grow(&l.outVal, nnzc)
	} else {
		l.out = make([]V, nnzc)
	}
}

func (l *planes[K, V]) touchRange(e *engine, lo, hi int64) {
	touchPages(l.keys.tuple[lo:hi])
	touchPages(l.tupleVals[lo:hi])
}

// maskBin applies Options.Mask to the folded bin segment at [lo, lo+n).
func (l *planes[K, V]) maskBin(e *engine, lo, n int64, bin int) int64 {
	return maskKeys(e, l.keys.tuple[lo:lo+n], l.tupleVals[lo:lo+n], bin)
}

// ---------------------------------------------------------------------------
// kv[K, V]: the (+, ×) layouts — squeezed, narrow and wide.

// kv is planes plus the arithmetic phases: the batched expand multiplies
// with ×, and the fused sort, compress and merges fold with +.
type kv[K radix.Key, V Value] struct {
	planes[K, V]
}

// expandRange is one worker's share of expandPanel: the panel columns
// [lo+colBounds[t], lo+colBounds[t+1]). cursors is the worker's private
// per-bin write-position array, pre-seeded with its exclusive offsets. Each
// outer-product tuple's packed key and value go into the thread-private
// local bin of its row's global bin (propagation blocking), and a full local
// bin flushes with one bulk copy per plane into the worker's exclusive
// range.
func (l *kv[K, V]) expandRange(e *engine, t, lo int, cursors []int64) {
	a, b := e.a, e.b
	nbins := int32(e.nbins)
	capT := e.localCap
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	stride := int64(e.nbins) * int64(capT)
	bufK := l.keys.local[int64(t)*stride : int64(t+1)*stride]
	bufV := l.localVals[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*e.nbins : (t+1)*e.nbins]
	keys, vals := l.keys.tuple, l.tupleVals
	aVal, bVal := l.aVal, l.bVal
	batch := e.batch
	nt := e.ntFlush

	var sincePoll int64
	for i := lo + e.ws.colBounds[t]; i < lo+e.ws.colBounds[t+1]; i++ {
		bLo, bHi := b.RowPtr[i], b.RowPtr[i+1]
		if bLo == bHi {
			continue
		}
		// Sub-phase cancellation: poll every ~cancelPollTuples expanded
		// tuples. The counter costs two scalar ops per column — off the
		// batched inner loops, invisible to the bench gate.
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (a.ColPtr[i+1] - a.ColPtr[i])
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			r := uint32(a.RowIdx[p])
			av := aVal[p]
			bin := int32(r >> shift)
			localRow := K(r&mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lens[bin]
			// Batched expansion: fill the local bin in runs of
			// min(room, remaining) B-row entries per kernel call. The chunk
			// boundaries fall exactly where the per-element loop would have
			// flushed, so the flush sequence — and therefore the global tuple
			// order — is identical to the scalar path's.
			for q := bLo; q < bHi; {
				if ln == capT {
					lens[bin] = ln
					flushLocalKV(bin, bufK, bufV, lens, keys, vals, cursors, capT, nt)
					ln = 0
				}
				take := bHi - q
				if room := int64(capT - ln); take > room {
					take = room
				}
				dk := bufK[base+int64(ln) : base+int64(ln)+take]
				dv := bufV[base+int64(ln) : base+int64(ln)+take]
				if batch {
					simd.ExpandKV(dk, dv, localRow, b.ColIdx[q:q+take], bVal[q:q+take], av)
				} else {
					simd.ExpandKVScalar(dk, dv, localRow, b.ColIdx[q:q+take], bVal[q:q+take], av)
				}
				ln += int32(take)
				q += take
			}
			lens[bin] = ln
		}
	}
	// Drain partially-filled local bins (Algorithm 2 lines 15–18).
	for bin := int32(0); bin < nbins; bin++ {
		flushLocalKV(bin, bufK, bufV, lens, keys, vals, cursors, capT, nt)
	}
}

// flushLocalKV bulk-copies one local bin into the worker's pre-reserved
// range of the global bin (the paper's MemCopy) and advances its private
// cursor. When nt is set (batched build, panel arena beyond LLC — see
// expandPanel) it streams both planes past the cache with non-temporal
// stores: the flush destination is cold, and a plain store would pay a
// read-for-ownership for every line; expandPanel fences each worker after
// its last flush. Otherwise it keeps copy() plus a prefetch of this bin's
// next destination.
func flushLocalKV[K radix.Key, V Value](bin int32, bufK []K, bufV []V, lens []int32,
	keys []K, vals []V, cursors []int64, capT int32, nt bool) {

	n := lens[bin]
	if n == 0 {
		return
	}
	off := cursors[bin]
	next := off + int64(n)
	cursors[bin] = next
	base := int64(bin) * int64(capT)
	var k K
	var v V
	kb, vb := int(unsafe.Sizeof(k)), int(unsafe.Sizeof(v))
	if nt && simd.HasNT {
		simd.NTCopyBytes(unsafe.Pointer(&keys[off]), unsafe.Pointer(&bufK[base]), int(n)*kb)
		simd.NTCopyBytes(unsafe.Pointer(&vals[off]), unsafe.Pointer(&bufV[base]), int(n)*vb)
		lens[bin] = 0
		return
	}
	copy(keys[off:next], bufK[base:base+int64(n)])
	copy(vals[off:next], bufV[base:base+int64(n)])
	lens[bin] = 0
	// Warm the destination of this bin's NEXT flush while the local bin
	// refills — the only access distance long enough for a software prefetch
	// to beat the hardware prefetcher across the bin-strided global arena.
	// No-op on purego/non-amd64 builds; cannot affect results.
	if end := next + int64(n); end <= int64(len(keys)) {
		simd.PrefetchRangeT0(unsafe.Pointer(&keys[next]), int(n)*kb)
	}
}

func (l *kv[K, V]) fuseBin(e *engine, worker int, lo, hi int64) int64 {
	auxK, auxV := l.scratchFor(e, worker, hi-lo)
	return radix.SortFusedScratch(l.keys.tuple[lo:hi], l.tupleVals[lo:hi], auxK, auxV, e.batch)
}

// compressBin is the paper's two-pointer in-place merge (Section III-E): p1
// walks the sorted tuples, p2 tracks the write position; equal keys fold
// their values into the tuple at p2. Row tallies live in keyOps.tallyRows.
func (l *kv[K, V]) compressBin(e *engine, lo, hi int64) int64 {
	keys := l.keys.tuple[lo:hi]
	vals := l.tupleVals[lo:hi]
	if len(keys) == 0 {
		return 0
	}
	p2 := 0
	for p1 := 1; p1 < len(keys); p1++ {
		if keys[p1] == keys[p2] {
			vals[p2] += vals[p1]
			continue
		}
		p2++
		keys[p2] = keys[p1]
		vals[p2] = vals[p1]
	}
	return int64(p2 + 1)
}

// mergeBin merges one bin's sorted, duplicate-free runs into the merged
// buffer. Runs individually have unique keys, so a duplicate can only pair
// tuples from different panels and the output stays ascending: comparing
// against the last written tuple is a complete folding rule.
func (l *kv[K, V]) mergeBin(e *engine, worker, bin int) {
	ws, kp := e.ws, l.keys
	group := e.runGroup(bin)
	dstBase := ws.mergedStart[bin]
	dst := dstBase
	switch len(group) {
	case 0:
	case 1:
		r := group[0]
		s, end := ws.runStart[r], ws.runStart[r+1]
		copy(kp.merged[dst:dst+end-s], kp.run[s:end])
		copy(l.mergedVals[dst:dst+end-s], l.runVals[s:end])
		dst += end - s
	default:
		heads := e.mergeHeads(worker, group)
		for {
			best, key := minHead(kp.run, ws.runStart, group, heads)
			if best < 0 {
				break
			}
			h := heads[best]
			heads[best]++
			if dst > dstBase && kp.merged[dst-1] == key {
				l.mergedVals[dst-1] += l.runVals[h]
			} else {
				kp.merged[dst] = key
				l.mergedVals[dst] = l.runVals[h]
				dst++
			}
		}
	}
	ws.binOut[bin] = dst - dstBase
	tallyKeys(e, kp.merged[dstBase:dst], ws.rowCounts, bin)
}

// emitMergeBin is the fused merge's emitting walk: mergeBin's walk and fold
// order, writing column ids and values straight into the result's slot.
func (l *kv[K, V]) emitMergeBin(e *engine, c *matrix.CSR, binOutStart []int64, worker, bin int) {
	ws, kp := e.ws, l.keys
	group := e.runGroup(bin)
	dst := binOutStart[bin]
	cm := K(1)<<e.colBits - 1
	out := l.out
	switch len(group) {
	case 0:
	case 1:
		r := group[0]
		s := ws.runStart[r]
		n := ws.runStart[r+1] - s
		for j := int64(0); j < n; j++ {
			c.ColIdx[dst+j] = int32(kp.run[s+j] & cm)
			out[dst+j] = l.runVals[s+j]
		}
	default:
		heads := e.mergeHeads(worker, group)
		var emitted int64
		var last K
		for {
			best, key := minHead(kp.run, ws.runStart, group, heads)
			if best < 0 {
				break
			}
			v := l.runVals[heads[best]]
			heads[best]++
			if emitted > 0 && key == last {
				out[dst+emitted-1] += v
			} else {
				c.ColIdx[dst+emitted] = int32(key & cm)
				out[dst+emitted] = v
				emitted++
				last = key
			}
		}
	}
}

// ---------------------------------------------------------------------------
// patternOps: the 4-byte key-only layout.

type patternOps struct{}

func (patternOps) growTuples(e *engine, n int64) { radix.Grow(&e.ws.keys32.tuple, n) }
func (patternOps) growLocals(e *engine, n int64) { radix.Grow(&e.ws.keys32.local, n) }
func (patternOps) resetRuns(e *engine)           { e.ws.keys32.run = e.ws.keys32.run[:0] }

// expandRange is the key-only expansion: same walk, no value multiply — the
// tuple IS its packed key, and a flush moves one plane.
func (patternOps) expandRange(e *engine, t, lo int, cursors []int64) {
	a, b := e.a, e.b
	nbins := int32(e.nbins)
	capT := e.localCap
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	stride := int64(e.nbins) * int64(capT)
	bufK := e.ws.keys32.local[int64(t)*stride : int64(t+1)*stride]
	lens := e.ws.localLens[t*e.nbins : (t+1)*e.nbins]
	keys := e.ws.keys32.tuple
	batch := e.batch
	nt := e.ntFlush

	var sincePoll int64
	for i := lo + e.ws.colBounds[t]; i < lo+e.ws.colBounds[t+1]; i++ {
		bLo, bHi := b.RowPtr[i], b.RowPtr[i+1]
		if bLo == bHi {
			continue
		}
		// Per-column cancellation poll, matching kv.expandRange.
		if faultinject.Enabled {
			faultinject.Fire(faultinject.SiteExpandColumn, t)
		}
		if sincePoll >= cancelPollTuples {
			sincePoll = 0
			if e.pollCancel() {
				return
			}
		}
		sincePoll += int64(bHi-bLo) * (a.ColPtr[i+1] - a.ColPtr[i])
		for p := a.ColPtr[i]; p < a.ColPtr[i+1]; p++ {
			r := uint32(a.RowIdx[p])
			bin := int32(r >> shift)
			localRow := (r & mask) << colBits
			base := int64(bin) * int64(capT)
			ln := lens[bin]
			// Chunked like kv.expandRange: flush boundaries match the
			// per-element loop exactly.
			for q := bLo; q < bHi; {
				if ln == capT {
					lens[bin] = ln
					flushLocalPattern(bin, bufK, lens, keys, cursors, capT, nt)
					ln = 0
				}
				take := bHi - q
				if room := int64(capT - ln); take > room {
					take = room
				}
				dk := bufK[base+int64(ln) : base+int64(ln)+take]
				if batch {
					simd.ExpandK(dk, localRow, b.ColIdx[q:q+take])
				} else {
					simd.ExpandKScalar(dk, localRow, b.ColIdx[q:q+take])
				}
				ln += int32(take)
				q += take
			}
			lens[bin] = ln
		}
	}
	for bin := int32(0); bin < nbins; bin++ {
		flushLocalPattern(bin, bufK, lens, keys, cursors, capT, nt)
	}
}

func flushLocalPattern(bin int32, bufK []uint32, lens []int32,
	keys []uint32, cursors []int64, capT int32, nt bool) {

	n := lens[bin]
	if n == 0 {
		return
	}
	off := cursors[bin]
	next := off + int64(n)
	cursors[bin] = next
	base := int64(bin) * int64(capT)
	if nt && simd.HasNT {
		simd.NTCopyBytes(unsafe.Pointer(&keys[off]), unsafe.Pointer(&bufK[base]), int(n)*4)
		lens[bin] = 0
		return
	}
	copy(keys[off:next], bufK[base:base+int64(n)])
	lens[bin] = 0
	if end := next + int64(n); end <= int64(len(keys)) {
		simd.PrefetchRangeT0(unsafe.Pointer(&keys[next]), int(n)*4)
	}
}

func (patternOps) growScratch(e *engine, total int64) {
	radix.Grow(&e.ws.keys32.scratch, total)
}

func (patternOps) sortSeg(e *engine, s sortSeg) {
	keys := e.ws.keys32.tuple[s.start:s.end]
	aux := workerSlice(e.ws.keys32.scratch, e, s.worker, s.end-s.start)
	if s.arg < 0 {
		radix.SortKeys32PatternScratch(keys, aux, e.batch)
	} else {
		radix.SortKeys32BitsPatternScratch(keys, aux, s.arg, e.batch)
	}
}

func (patternOps) partitionTop(e *engine, worker int, lo, hi int64, bounds []int64) (int, int) {
	return radix.PartitionTop32PatternScratch(e.ws.keys32.tuple[lo:hi],
		workerSlice(e.ws.keys32.scratch, e, worker, hi-lo), bounds, e.batch)
}

func (patternOps) fuseBin(e *engine, worker int, lo, hi int64) int64 {
	return radix.SortKeys32FusedPatternScratch(e.ws.keys32.tuple[lo:hi],
		workerSlice(e.ws.keys32.scratch, e, worker, hi-lo), e.batch)
}

// compressBin's fold over the pattern layout is deduplication: equal keys
// keep one tuple, no value to sum.
func (patternOps) compressBin(e *engine, lo, hi int64) int64 {
	keys := e.ws.keys32.tuple[lo:hi]
	if len(keys) == 0 {
		return 0
	}
	p2 := 0
	for p1 := 1; p1 < len(keys); p1++ {
		if keys[p1] == keys[p2] {
			continue
		}
		p2++
		keys[p2] = keys[p1]
	}
	return int64(p2 + 1)
}

func (patternOps) appendRun(e *engine, src, n int64) {
	kp := &e.ws.keys32
	kp.run = append(kp.run, kp.tuple[src:src+n]...)
}

func (patternOps) growMerged(e *engine, n int64) { radix.Grow(&e.ws.keys32.merged, n) }

// mergeBin k-way merges one bin's key-only runs, dropping duplicates.
func (patternOps) mergeBin(e *engine, worker, bin int) {
	ws, kp := e.ws, &e.ws.keys32
	group := e.runGroup(bin)
	dstBase := ws.mergedStart[bin]
	dst := dstBase
	switch len(group) {
	case 0:
	case 1:
		r := group[0]
		s, end := ws.runStart[r], ws.runStart[r+1]
		copy(kp.merged[dst:dst+end-s], kp.run[s:end])
		dst += end - s
	default:
		heads := e.mergeHeads(worker, group)
		for {
			best, key := minHead(kp.run, ws.runStart, group, heads)
			if best < 0 {
				break
			}
			heads[best]++
			if dst > dstBase && kp.merged[dst-1] == key {
				continue // duplicate key across panels: structural fold
			}
			kp.merged[dst] = key
			dst++
		}
	}
	ws.binOut[bin] = dst - dstBase
	tallyKeys(e, kp.merged[dstBase:dst], ws.rowCounts, bin)
}

func (patternOps) emitMergeBin(e *engine, c *matrix.CSR, binOutStart []int64, worker, bin int) {
	ws, kp := e.ws, &e.ws.keys32
	group := e.runGroup(bin)
	dst := binOutStart[bin]
	cm := uint32(uint64(1)<<e.colBits - 1)
	switch len(group) {
	case 0:
	case 1:
		r := group[0]
		s := ws.runStart[r]
		n := ws.runStart[r+1] - s
		for j := int64(0); j < n; j++ {
			c.ColIdx[dst+j] = int32(kp.run[s+j] & cm)
		}
	default:
		heads := e.mergeHeads(worker, group)
		var emitted int64
		var last uint32
		for {
			best, key := minHead(kp.run, ws.runStart, group, heads)
			if best < 0 {
				break
			}
			heads[best]++
			if emitted > 0 && key == last {
				continue
			}
			c.ColIdx[dst+emitted] = int32(key & cm)
			emitted++
			last = key
		}
	}
}

func (patternOps) unpackBin(e *engine, c *matrix.CSR, merged bool, srcOff, dstOff, n int64) {
	keys := e.ws.keys32.tuple
	if merged {
		keys = e.ws.keys32.merged
	}
	cm := uint32(uint64(1)<<e.colBits - 1)
	for j := int64(0); j < n; j++ {
		c.ColIdx[dstOff+j] = int32(keys[srcOff+j] & cm)
	}
}

func (patternOps) growOut(e *engine, c *matrix.CSR, nnzc int64) {
	// Pattern results are structural: c.Val stays nil by design.
}

func (patternOps) maskBin(e *engine, lo, n int64, bin int) int64 {
	return maskKeys[uint32, struct{}](e, e.ws.keys32.tuple[lo:lo+n], nil, bin)
}

func (patternOps) touchRange(e *engine, lo, hi int64) { touchPages(e.ws.keys32.tuple[lo:hi]) }
