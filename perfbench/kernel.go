package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"pbspgemm"
	"pbspgemm/internal/matrix"
)

const (
	// kernelThreads is the library workloads' WithThreads value: both
	// cores of the 2-vCPU reference host.
	kernelThreads = 2
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// verifyTol is the relative tolerance of real-valued result checks:
	// kernels sum products in different orders.
	verifyTol = 1e-9
	// sideReps is how many times a traced run times a side call (Plan,
	// PlanBlocks, a replayed product) after the measured loop.
	sideReps = 5
)

func runERDRAM(cfg runConfig) (*runResult, error) {
	return runKernel(cfg, tierDRAM, erDRAMInputs)
}

func runRMATLLC(cfg runConfig) (*runResult, error) {
	return runKernel(cfg, tierLLC, rmatLLCInputs)
}

// runKernel is the closed loop of the library workloads: one caller,
// Engine.Multiply with the default PB kernel, every result checked against
// pbspgemm.Reference outside the timed call.
func runKernel(cfg runConfig, tier string, inputs func(uint64) (a, b *pbspgemm.CSR)) (*runResult, error) {
	r := newRunResult()
	ctx := context.Background()
	llc := llcBytes()
	var dramGBs, llcGBs float64
	if cfg.rec != nil {
		dramGBs, llcGBs = triads(llc, kernelThreads)
	}

	var (
		a, b *pbspgemm.CSR
		eng  *pbspgemm.Engine
		warm *pbspgemm.Result
	)
	setups := make([]float64, setupReps)
	for i := range setups {
		a, b, eng, warm = nil, nil, nil, nil
		runtime.GC()
		start := time.Now()
		a, b = inputs(cfg.seed)
		var err error
		if eng, err = pbspgemm.NewEngine(pbspgemm.WithThreads(kernelThreads)); err != nil {
			return nil, err
		}
		if warm, err = eng.Multiply(ctx, a, b); err != nil {
			return nil, fmt.Errorf("warm-up multiply: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	nnzC := warm.C.NNZ()
	t := checkTier(tier, kernelWorkingSet(a, b, warm.Flops, warm.PB.TupleBytes, nnzC), llc)
	r.tier = &t
	warm = nil
	ref := reference(a, b)

	var (
		lats, tracedLats, plainLats, selfs []float64
		stats                              []pbspgemm.PhaseStats
		flops, peak                        int64
		busy                               time.Duration
	)
	// peak_rss_mib covers the first measured call, run with the collector
	// paused: the workload's live data plus everything one call
	// allocates. Later calls add collector headroom that depends on when
	// collections happen, which made the figure bimodal.
	startPeakWindow(r)
	var gcPercent int
	gc := startGCClock()
	loopStart := time.Now()
	for op := int64(0); time.Since(loopStart) < cfg.duration; op++ {
		rec := cfg.traced(op)
		if op == 0 {
			gcPercent = debug.SetGCPercent(-1)
		}
		start := time.Now()
		id := rec.begin("engine.Multiply", op, 0)
		res, err := eng.Multiply(ctx, a, b)
		rec.end(id)
		d := time.Since(start)
		if op == 0 {
			peak = peakRSSBytes()
			debug.SetGCPercent(gcPercent)
		}
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.checked++
		if !pbspgemm.EqualWithin(res.C, ref, verifyTol) {
			r.failed++
			r.wrong++
			continue
		}
		lats = append(lats, ms(d))
		flops += res.Flops
		busy += d
		switch {
		case cfg.rec == nil:
		case rec == nil:
			plainLats = append(plainLats, ms(d))
		default:
			tracedLats = append(tracedLats, ms(d))
			selfs = append(selfs, ms(d-res.PB.Total))
			stats = append(stats, *res.PB)
		}
	}
	gcFrac := gc.frac()
	r.e2e["setup_s"] = median(setups)
	loopE2E(r, lats, flops, busy, peak)

	if cfg.rec == nil {
		return r, nil
	}
	ref = nil
	l := r.layer
	coreLayer(l, stats, tierTriad(tier, dramGBs, llcGBs), a.NNZ(), b.NNZ())
	streamLayer(l, dramGBs, llcGBs)
	l["engine.call_ms"] = median(tracedLats)
	l["engine.self_ms"] = median(selfs)
	l["engine.self_frac"] = median(selfs) / median(tracedLats)
	plan, planMs, err := timePlan(ctx, eng, a, b)
	if err != nil {
		return nil, err
	}
	l["engine.plan_ms"] = planMs
	l["engine.nnzc_est_ratio"] = float64(plan.EstNNZC) / float64(nnzC)
	if plan.Chosen == pbspgemm.Hash {
		l["engine.auto_chosen_hash_share"] = 1
	}
	eng = nil // its pooled workspaces must not count as live data below
	ratio, err := footprintRatio(ctx, r, a, b, plan.PredictedFootprintBytes)
	if err != nil {
		return nil, err
	}
	l["engine.footprint_ratio"] = ratio
	l["runtime.gc_cpu_frac"] = gcFrac
	l["trace.overhead_frac"] = median(tracedLats)/median(plainLats) - 1
	return r, nil
}

// loopE2E fills the end-to-end metrics of a single-caller closed loop
// whose verified operations took lats (ms) and busy wall time in total,
// and whose first operation peaked at peak resident bytes.
func loopE2E(r *runResult, lats []float64, flops int64, busy time.Duration, peak int64) {
	r.e2e["gflops"] = float64(flops) / busy.Seconds() / 1e9
	r.e2e["req_per_s"] = float64(len(lats)) / busy.Seconds()
	tailLatency(r, lats)
	r.e2e["ok_frac"] = 1 - frac(r.failed, r.attempted)
	r.e2e["peak_rss_mib"] = float64(peak) / (1 << 20)
}

// tailLatency reports the median and the tail of lats: p99 when at least
// ten samples lie beyond it, else the highest quantile that leaves ten
// beyond it, else the median. The report names the percentile and count.
func tailLatency(r *runResult, lats []float64) {
	q := tailQuantile(len(lats), 0.99)
	r.e2e["latency_p50_ms"] = median(lats)
	r.e2e["latency_p99_ms"] = quantile(lats, q)
	r.info["latency_tail_percentile"] = 100 * q
	r.info["latency_samples"] = len(lats)
	r.layer["latency_samples"] = float64(len(lats))
}

// timePlan times Engine.Plan on a, b sideReps times and returns the last
// plan with the median time in ms.
func timePlan(ctx context.Context, eng *pbspgemm.Engine, a, b *pbspgemm.CSR) (*pbspgemm.Plan, float64, error) {
	var plan *pbspgemm.Plan
	times := make([]float64, sideReps)
	for i := range times {
		start := time.Now()
		var err error
		if plan, err = eng.Plan(ctx, a, b); err != nil {
			return nil, 0, fmt.Errorf("plan: %w", err)
		}
		times[i] = ms(time.Since(start))
	}
	return plan, median(times), nil
}

// footprintRatio measures the resident growth of one multiply on a fresh
// Engine — peak RSS during the call minus RSS before it — as a share of
// the planner's predicted footprint.
func footprintRatio(ctx context.Context, r *runResult, a, b *pbspgemm.CSR, predicted int64) (float64, error) {
	eng, err := pbspgemm.NewEngine(pbspgemm.WithThreads(kernelThreads))
	if err != nil {
		return 0, err
	}
	if !startPeakWindow(r) {
		return 0, nil // no peak of this call alone to compare
	}
	before := rssBytes()
	if _, err := eng.Multiply(ctx, a, b); err != nil {
		return 0, err
	}
	return float64(peakRSSBytes()-before) / float64(predicted), nil
}

// coreLayer fills the kernel metrics from the phase breakdowns of traced
// PB calls (medians over the calls). triadGBs is the STREAM Triad of the
// tier the product's working set lives in.
func coreLayer(l map[string]float64, stats []pbspgemm.PhaseStats, triadGBs float64, nnzA, nnzB int64) {
	pick := func(f func(s *pbspgemm.PhaseStats) float64) float64 {
		xs := make([]float64, len(stats))
		for i := range stats {
			xs[i] = f(&stats[i])
		}
		return median(xs)
	}
	gbs := func(bytes int64, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(bytes) / d.Seconds() / 1e9
	}
	// modelRatio is measured time over the time the phase's computed bytes
	// take at the Triad rate: 1 means the phase streams at the roof.
	modelRatio := func(bytes int64, d time.Duration) float64 {
		if bytes == 0 {
			return 0
		}
		return d.Seconds() / (float64(bytes) / (triadGBs * 1e9))
	}
	l["core.expand_ms"] = pick(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Expand) })
	l["core.fuse_ms"] = pick(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Fuse) })
	l["core.merge_ms"] = pick(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Merge) })
	l["core.assemble_ms"] = pick(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Assemble) })
	l["core.symbolic_ms"] = pick(func(s *pbspgemm.PhaseStats) float64 { return ms(s.Symbolic) })
	l["core.expand_pct_triad"] = pick(func(s *pbspgemm.PhaseStats) float64 { return 100 * gbs(s.ExpandBytes, s.Expand) / triadGBs })
	l["core.fuse_pct_triad"] = pick(func(s *pbspgemm.PhaseStats) float64 { return 100 * gbs(s.FusedBytes, s.Fuse) / triadGBs })
	l["core.expand_roofline_ratio"] = pick(func(s *pbspgemm.PhaseStats) float64 { return modelRatio(s.ExpandBytes, s.Expand) })
	l["core.fuse_roofline_ratio"] = pick(func(s *pbspgemm.PhaseStats) float64 { return modelRatio(s.FusedBytes, s.Fuse) })
	l["core.roofline_frac"] = pick(func(s *pbspgemm.PhaseStats) float64 {
		achieved := float64(s.Flops) / s.Total.Seconds() / 1e9
		return achieved / pbspgemm.PredictGFLOPS(triadGBs, nnzA, nnzB, s.Flops, s.NNZC)
	})
	l["core.steal_frac"] = pick(func(s *pbspgemm.PhaseStats) float64 { return frac(s.SortStolen, s.SortOwned+s.SortStolen) })
	l["core.panels"] = pick(func(s *pbspgemm.PhaseStats) float64 { return float64(s.NPanels) })
	l["core.tuple_bytes"] = pick(func(s *pbspgemm.PhaseStats) float64 { return float64(s.TupleBytes) })
}

// streamLayer reports both STREAM roofs.
func streamLayer(l map[string]float64, dramGBs, llcGBs float64) {
	l["stream.triad_dram_gbs"] = dramGBs
	l["stream.triad_llc_gbs"] = llcGBs
}

// reference computes A·B with pbspgemm.Reference, one row band of A per
// core, and stacks the bands back into one CSR.
func reference(a, b *pbspgemm.CSR) *pbspgemm.CSR {
	cuts := matrix.SplitPoints(a.NumRows, runtime.GOMAXPROCS(0))
	parts := make([]*pbspgemm.CSR, len(cuts)-1)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = pbspgemm.Reference(matrix.Block(a, cuts[i], cuts[i+1], 0, a.NumCols), b)
		}()
	}
	wg.Wait()
	out := &pbspgemm.CSR{NumCols: b.NumCols, RowPtr: []int64{0}}
	for _, p := range parts {
		base := out.RowPtr[len(out.RowPtr)-1]
		for _, q := range p.RowPtr[1:] {
			out.RowPtr = append(out.RowPtr, base+q)
		}
		out.ColIdx = append(out.ColIdx, p.ColIdx...)
		out.Val = append(out.Val, p.Val...)
		out.NumRows += p.NumRows
	}
	return out
}

// gcClock measures the share of the process's busy CPU time spent in the
// garbage collector, from runtime/metrics.
type gcClock struct{ gc0, busy0 float64 }

func startGCClock() gcClock {
	gc, busy := gcSample()
	return gcClock{gc, busy}
}

func (c gcClock) frac() float64 {
	gc, busy := gcSample()
	if busy <= c.busy0 {
		return 0
	}
	return (gc - c.gc0) / (busy - c.busy0)
}

func gcSample() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}
