package core

import (
	"fmt"
	"unsafe"

	"pbspgemm/internal/faultinject"
	"pbspgemm/internal/matrix"
	"pbspgemm/internal/radix"
)

// This file is the ring layout: the PB pipeline over any semiring (⊕, ⊗) on
// any value type T, for the products no typed layout serves. It shares
// everything but the arithmetic with kv — planes, bin geometry, panels,
// work-stealing sort, budgeted merge, mask, cancellation and panic
// containment. Expand calls Times and writes straight to the bins' cursors,
// the exclusive offsets the PB expand flushes to, so the tuple order is the
// PB expand's; the fold is radix.SortScratch then a left-to-right Plus, the
// fused (+) fold's order — (+, ×) over the ring layout is bit-identical to
// the typed layouts.

// ring is planes plus a semiring's Plus and Times.
type ring[K radix.Key, T any] struct {
	planes[K, T]
	plus, times func(x, y T) T
}

// ringPool pools one value type's ring layouts, one per key width; a run
// grows only the width planBins picks.
type ringPool[T any] struct {
	r32 ring[uint32, T]
	r64 ring[uint64, T]
}

// pick returns the layout of the key width planBins chose (bindLayout).
func (p *ringPool[T]) pick(wide bool) layoutOps {
	if wide {
		return &p.r64
	}
	return &p.r32
}

func (p *ringPool[T]) tupleCapBytes() int64 {
	return p.r32.tupleCapBytes() + p.r64.tupleCapBytes()
}

// bind binds both key widths to the workspace's key planes and the call's
// inputs; nil inputs drop the bindings so a pooled workspace does not pin
// caller memory.
func (p *ringPool[T]) bind(ws *Workspace, aVal, bVal []T, plus, times func(x, y T) T) {
	p.r32.keys, p.r32.aVal, p.r32.bVal, p.r32.out = &ws.keys32, aVal, bVal, nil
	p.r64.keys, p.r64.aVal, p.r64.bVal, p.r64.out = &ws.keys64, aVal, bVal, nil
	p.r32.plus, p.r32.times = plus, times
	p.r64.plus, p.r64.times = plus, times
}

// MultiplyRing computes C = A ⊗ B over the semiring (plus, times) on value
// type T with the ring layout. Like MultiplyNarrow, the inputs are the
// structural CSC/CSR (whose float64 Val arrays are never read and may be
// nil) plus value planes indexed like a.RowIdx and b.ColIdx, and the result
// is the structural CSR (nil Val) plus its value plane, aliasing workspace
// memory when opt.Workspace is set. Any key width runs: the packed key is
// a uint32 when localRowBits + colBits ≤ 32 and a uint64 otherwise.
// Options.ForceLayout is ignored. A panic in plus or times is contained into
// a *par.PanicError like any worker panic.
func MultiplyRing[T any](a *matrix.CSC, aVal []T, b *matrix.CSR, bVal []T, plus, times func(x, y T) T, opt Options) (*matrix.CSR, []T, *Stats, error) {
	opt = opt.withDefaults()
	if int64(len(aVal)) < int64(len(a.RowIdx)) || int64(len(bVal)) < int64(len(b.ColIdx)) {
		return nil, nil, nil, fmt.Errorf("core: ring value planes shorter than their index arrays (%d < %d or %d < %d): %w",
			len(aVal), len(a.RowIdx), len(bVal), len(b.ColIdx), matrix.ErrShape)
	}
	e, err := newEngine(a, b, opt, LayoutRing)
	if err != nil {
		return nil, nil, nil, err
	}
	p := pooled[ringPool[T]](&e.ws.ring)
	p.bind(e.ws, aVal, bVal, plus, times)
	var v T
	e.ring, e.ringValBytes = p, int64(unsafe.Sizeof(v))
	c, st, err := e.runContained()
	vals := p.r32.out
	if e.wideKeys {
		vals = p.r64.out
	}
	p.bind(e.ws, nil, nil, nil, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, vals, st, nil
}

// growLocals is a no-op: the ring expand writes straight to the bins.
func (l *ring[K, T]) growLocals(e *engine, n int64) {}

// expandRange is one worker's share of expandPanel: each tuple goes
// straight to its bin's cursor, which advances exactly as PB flushes would.
func (l *ring[K, T]) expandRange(e *engine, t, lo int, cursors []int64) {
	a, b := e.a, e.b
	shift, mask, colBits := e.rowShift, e.rowMask, e.colBits
	keys, vals := l.keys.tuple, l.tupleVals
	aVal, bVal, times := l.aVal, l.bVal, l.times

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
			av := aVal[p]
			localRow := K(r&mask) << colBits
			bin := r >> shift
			c := cursors[bin]
			for q := bLo; q < bHi; q++ {
				keys[c] = localRow | K(uint32(b.ColIdx[q]))
				vals[c] = times(av, bVal[q])
				c++
			}
			cursors[bin] = c
		}
	}
}

// fuseBin sorts the bin stably and folds it left to right: the fused (+)
// sort's fold order, with Plus.
func (l *ring[K, T]) fuseBin(e *engine, worker int, lo, hi int64) int64 {
	l.sortSeg(e, sortSeg{start: lo, end: hi, arg: -1, worker: worker})
	return l.compressBin(e, lo, hi)
}

// compressBin is kv.compressBin folding with Plus.
func (l *ring[K, T]) compressBin(e *engine, lo, hi int64) int64 {
	keys := l.keys.tuple[lo:hi]
	vals := l.tupleVals[lo:hi]
	if len(keys) == 0 {
		return 0
	}
	plus := l.plus
	p2 := 0
	for p1 := 1; p1 < len(keys); p1++ {
		if keys[p1] == keys[p2] {
			vals[p2] = plus(vals[p2], vals[p1])
			continue
		}
		p2++
		keys[p2] = keys[p1]
		vals[p2] = vals[p1]
	}
	return int64(p2 + 1)
}

// foldRuns is the ring's k-way merge walk: kv.mergeBin's select-min order
// and fold order, with Plus. It hands the j-th distinct key of bin and its
// folded value to put and returns the distinct-key count.
func (l *ring[K, T]) foldRuns(e *engine, worker, bin int, put func(j int64, key K, v T)) int64 {
	group := e.runGroup(bin)
	heads := e.mergeHeads(worker, group)
	var n int64
	var last K
	var acc T
	for {
		best, key := minHead(l.keys.run, e.ws.runStart, group, heads)
		if best >= 0 && n > 0 && key == last {
			acc = l.plus(acc, l.runVals[heads[best]])
			heads[best]++
			continue
		}
		if n > 0 {
			put(n-1, last, acc)
		}
		if best < 0 {
			return n
		}
		last, acc = key, l.runVals[heads[best]]
		heads[best]++
		n++
	}
}

func (l *ring[K, T]) mergeBin(e *engine, worker, bin int) {
	ws, kp := e.ws, l.keys
	base := ws.mergedStart[bin]
	n := l.foldRuns(e, worker, bin, func(j int64, key K, v T) {
		kp.merged[base+j], l.mergedVals[base+j] = key, v
	})
	ws.binOut[bin] = n
	tallyKeys(e, kp.merged[base:base+n], ws.rowCounts, bin)
}

func (l *ring[K, T]) emitMergeBin(e *engine, c *matrix.CSR, binOutStart []int64, worker, bin int) {
	dst, cm := binOutStart[bin], K(1)<<e.colBits-1
	l.foldRuns(e, worker, bin, func(j int64, key K, v T) {
		c.ColIdx[dst+j], l.out[dst+j] = int32(key&cm), v
	})
}
