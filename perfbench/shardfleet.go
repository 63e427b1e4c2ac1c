package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"pbspgemm"
	"pbspgemm/internal/serve"
	"pbspgemm/internal/shard"
)

// The shard-fleet sizing: ER 2^15 with 8 nonzeros per column. Blocks of a
// 2×2×2 grid predict ~9.6 MB and those of 4×2×2 ~4.9 MB, so a 6 MiB block
// target makes the coordinator's grid growth stop at 4×2×2 (16 blocks).
const (
	shardDim           = 1 << 15
	shardEF            = 8
	shardMaxBlockBytes = 6 << 20
	shardPeers         = 2
	// shardPeerCeiling admits two blocks at a time on each peer, as on a
	// node sized for the grid; more queue at the peer's admission control.
	shardPeerCeiling = 2 * shardMaxBlockBytes
)

// shardFleetInputs are integer-valued ER factors: every sum of their
// product is exact, so the sharded product must equal a direct PB call
// bit for bit whatever the grid.
func shardFleetInputs(seed uint64) (a, b *pbspgemm.CSR) {
	return pair(seed, func(s uint64) *pbspgemm.CSR {
		return integerValued(pbspgemm.NewER(shardDim, shardEF, s), s^1)
	})
}

// timedBackend records one span per block attempt, parented on the
// product span carried by the context.
type timedBackend struct {
	shard.Backend
	kind string
}

func (t timedBackend) Multiply(ctx context.Context, a, b *pbspgemm.CSR) (*pbspgemm.CSR, error) {
	sc, ok := spanFrom(ctx)
	if !ok {
		return t.Backend.Multiply(ctx, a, b)
	}
	id := sc.rec.begin("shard.block."+t.kind, sc.op, sc.id)
	c, err := t.Backend.Multiply(ctx, a, b)
	sc.rec.end(id)
	return c, err
}

// fleet is the coordinator, its local engine and the in-process peers.
type fleet struct {
	eng   *pbspgemm.Engine
	coord *shard.Coordinator
	peers []*serveEnv
}

func (f *fleet) stop() {
	for _, p := range f.peers {
		p.stop()
	}
}

// startFleet starts the peers (result caches off: every block is computed,
// not served from a previous product) and the coordinator over a local
// pool plus one PeerClient per peer.
func startFleet() (*fleet, error) {
	eng, err := pbspgemm.NewEngine()
	if err != nil {
		return nil, err
	}
	f := &fleet{eng: eng}
	backends := []shard.Backend{timedBackend{shard.NewEnginePool("local", eng, 1), "local"}}
	for i := 0; i < shardPeers; i++ {
		p, err := startServer(serve.Config{CacheBudgetBytes: -1, MemoryCeilingBytes: shardPeerCeiling})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.peers = append(f.peers, p)
		backends = append(backends, timedBackend{serve.NewPeerClient(p.url, nil), "peer"})
	}
	if f.coord, err = shard.New(shard.Config{Local: eng, Backends: backends, MaxBlockBytes: shardMaxBlockBytes}); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func runShardFleet(cfg runConfig) (*runResult, error) {
	r := newRunResult()
	ctx := context.Background()
	llc := llcBytes()
	var dramGBs, llcGBs float64
	if cfg.rec != nil {
		dramGBs, llcGBs = triads(llc, runtime.GOMAXPROCS(0))
	}
	var (
		a, b *pbspgemm.CSR
		f    *fleet
	)
	setups := make([]float64, setupReps)
	for i := range setups {
		if f != nil {
			f.stop()
			f = nil
		}
		runtime.GC()
		start := time.Now()
		a, b = shardFleetInputs(cfg.seed)
		var err error
		if f, err = startFleet(); err != nil {
			return nil, err
		}
		if _, err := f.coord.Multiply(ctx, a, b); err != nil {
			f.stop()
			return nil, fmt.Errorf("warm-up product: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	defer f.stop()
	direct, err := f.eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
	if err != nil {
		return nil, fmt.Errorf("direct product: %w", err)
	}

	var (
		lats, tracedLats, plainLats []float64
		productIDs                  []int64
		flops                       int64
		busy                        time.Duration
		grid                        pbspgemm.Grid
		blocks, hedges, retries     int64
		fallbacks, peak             int64
	)
	// As in runKernel, peak_rss_mib covers the first product with the
	// collector paused.
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
		id := rec.begin("shard.Coordinator.Multiply", op, 0)
		res, err := f.coord.Multiply(withSpan(ctx, rec, op, id), a, b)
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
		if !bitIdentical(res.C, direct.C) {
			r.failed++
			r.wrong++
			continue
		}
		lats = append(lats, ms(d))
		flops += res.Flops
		busy += d
		grid = res.Grid
		blocks += int64(res.Blocks)
		hedges += res.Hedges
		retries += res.Retries
		fallbacks += res.Fallbacks
		switch {
		case cfg.rec == nil:
		case rec == nil:
			plainLats = append(plainLats, ms(d))
		default:
			tracedLats = append(tracedLats, ms(d))
			productIDs = append(productIDs, id)
		}
	}
	gcFrac := gc.frac()
	r.e2e["setup_s"] = median(setups)
	loopE2E(r, lats, flops, busy, peak)
	r.info["grid"] = grid.String()

	if cfg.rec == nil {
		return r, nil
	}
	l := r.layer
	l["shard.product_ms"] = median(tracedLats)
	selfs := make([]float64, len(productIDs))
	for i, id := range productIDs {
		s := cfg.rec.get(id)
		selfs[i] = ms(selfTime(interval{s.Start, s.End}, cfg.rec.children(id)))
	}
	l["shard.self_ms"] = median(selfs)
	l["shard.block_ms_local"] = spanMedian(cfg.rec, "shard.block.local")
	l["shard.block_ms_peer"] = spanMedian(cfg.rec, "shard.block.peer")
	l["shard.blocks"] = float64(blocks)
	l["shard.hedges"] = float64(hedges)
	l["shard.retries"] = float64(retries)
	l["shard.fallbacks"] = float64(fallbacks)
	l["shard.hedge_waste"] = frac(hedges, blocks)
	l["runtime.gc_cpu_frac"] = gcFrac
	l["trace.overhead_frac"] = median(tracedLats)/median(plainLats) - 1

	planBlocks := make([]float64, sideReps)
	for i := range planBlocks {
		start := time.Now()
		if _, err := f.eng.PlanBlocks(ctx, a, b, grid); err != nil {
			return nil, fmt.Errorf("plan blocks: %w", err)
		}
		planBlocks[i] = ms(time.Since(start))
	}
	l["shard.plan_blocks_ms"] = median(planBlocks)
	plan, planMs, err := timePlan(ctx, f.eng, a, b)
	if err != nil {
		return nil, err
	}
	l["engine.plan_ms"] = planMs
	l["engine.nnzc_est_ratio"] = float64(plan.EstNNZC) / float64(direct.C.NNZ())

	// The grid overhead: direct PB calls and sharded products interleaved
	// on the same inputs, so host drift hits both sides alike.
	var stats []pbspgemm.PhaseStats
	var directs, products, engSelfs []float64
	for i := 0; i < sideReps; i++ {
		start := time.Now()
		res, err := f.eng.Multiply(ctx, a, b, pbspgemm.WithAlgorithm(pbspgemm.PB))
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("direct product: %w", err)
		}
		directs = append(directs, ms(d))
		engSelfs = append(engSelfs, ms(d-res.PB.Total))
		stats = append(stats, *res.PB)
		start = time.Now()
		if _, err := f.coord.Multiply(ctx, a, b); err != nil {
			return nil, fmt.Errorf("sharded product: %w", err)
		}
		products = append(products, ms(time.Since(start)))
	}
	l["shard.vs_direct"] = median(products) / median(directs)
	l["engine.call_ms"] = median(directs)
	l["engine.self_ms"] = median(engSelfs)
	l["engine.self_frac"] = median(engSelfs) / median(directs)
	ws := kernelWorkingSet(a, b, direct.Flops, direct.PB.TupleBytes, direct.C.NNZ())
	coreLayer(l, stats, tierTriad(tierFor(ws, llc), dramGBs, llcGBs), a.NNZ(), b.NNZ())
	streamLayer(l, dramGBs, llcGBs)
	return r, nil
}

// spanMedian is the median duration (ms) of the spans called name.
func spanMedian(rec *recorder, name string) float64 {
	var xs []float64
	for _, s := range rec.named(name) {
		xs = append(xs, ms(s.End.Sub(s.Start)))
	}
	return median(xs)
}

// bitIdentical reports whether x and y have the same shape, structure and
// value bits.
func bitIdentical(x, y *pbspgemm.CSR) bool {
	if x.NumRows != y.NumRows || x.NumCols != y.NumCols ||
		len(x.RowPtr) != len(y.RowPtr) || len(x.ColIdx) != len(y.ColIdx) || len(x.Val) != len(y.Val) {
		return false
	}
	for i := range x.RowPtr {
		if x.RowPtr[i] != y.RowPtr[i] {
			return false
		}
	}
	for i := range x.ColIdx {
		if x.ColIdx[i] != y.ColIdx[i] || math.Float64bits(x.Val[i]) != math.Float64bits(y.Val[i]) {
			return false
		}
	}
	return true
}
