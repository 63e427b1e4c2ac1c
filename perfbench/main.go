// Command perfbench is the repository benchmark: four closed-loop
// workloads that drive the PB-SpGEMM stack from the kernel up through the
// Engine, the pbspgemmd serving layer and the 2D shard coordinator, each
// on inputs generated from --seed. See README.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
//	perfbench --workload er-dram --seed 1 --seconds 10 --trace 0
//	perfbench compare old-report.json new-report.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1. The line
// before it is the full report (host fingerprint, memory-tier guard, sample
// counts), which --out also writes to a file for compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"gflops", "GFLOP/s"},
	{"req_per_s", "req/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_frac", "ratio"},
	{"peak_rss_mib", "MiB"},
}

// perLayer are the metrics of single layers, reported by a traced run. A
// metric of a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"core.expand_ms", "ms"},
	{"core.fuse_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.symbolic_ms", "ms"},
	{"core.expand_pct_triad", "%"},
	{"core.fuse_pct_triad", "%"},
	{"core.expand_roofline_ratio", "ratio"},
	{"core.fuse_roofline_ratio", "ratio"},
	{"core.roofline_frac", "ratio"},
	{"core.steal_frac", "ratio"},
	{"core.panels", "count"},
	{"core.tuple_bytes", "B"},
	{"stream.triad_dram_gbs", "GB/s"},
	{"stream.triad_llc_gbs", "GB/s"},
	{"engine.call_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"engine.self_frac", "ratio"},
	{"engine.plan_ms", "ms"},
	{"engine.nnzc_est_ratio", "ratio"},
	{"engine.footprint_ratio", "ratio"},
	{"engine.auto_chosen_hash_share", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"serve.hit_ms", "ms"},
	{"serve.cold_ms", "ms"},
	{"serve.semiring_ms", "ms"},
	{"serve.degraded_ms", "ms"},
	{"serve.upload_ms", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.engine_share", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.double_plan_frac", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.queued", "count"},
	{"serve.shed", "count"},
	{"serve.degraded", "count"},
	{"serve.resp_bytes", "B"},
	{"shard.product_ms", "ms"},
	{"shard.block_ms_local", "ms"},
	{"shard.block_ms_peer", "ms"},
	{"shard.self_ms", "ms"},
	{"shard.plan_blocks_ms", "ms"},
	{"shard.vs_direct", "ratio"},
	{"shard.blocks", "count"},
	{"shard.hedges", "count"},
	{"shard.retries", "count"},
	{"shard.fallbacks", "count"},
	{"shard.hedge_waste", "ratio"},
	{"fail_frac", "ratio"},
	{"latency_samples", "count"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is one invocation's workload parameters.
type runConfig struct {
	seed     uint64
	duration time.Duration
	// rec is non-nil in a traced run; workloads hand it to every other
	// operation so the untraced ones measure the tracing overhead.
	rec *recorder
}

// traced reports whether operation op records spans.
func (c runConfig) traced(op int64) *recorder {
	if c.rec == nil || op%2 == 0 {
		return nil
	}
	return c.rec
}

// runResult is what a workload measured.
type runResult struct {
	attempted, failed int64
	// checked counts outputs verified against a reference; wrong counts
	// the ones that disagreed (they are part of failed too).
	checked, wrong int64
	e2e            map[string]float64
	layer          map[string]float64
	tier           *tierReport
	info           map[string]any
}

func newRunResult() *runResult {
	return &runResult{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*runResult, error){
	"er-dram":     runERDRAM,
	"rmat-llc":    runRMATLLC,
	"serve-mix":   runServeMix,
	"shard-fleet": runShardFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the full record of one run: what compare reads.
type report struct {
	Workload    string         `json:"workload"`
	Seed        uint64         `json:"seed"`
	Seconds     int            `json:"seconds"`
	Trace       int            `json:"trace"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Tier        *tierReport    `json:"tier,omitempty"`
	Info        map[string]any `json:"info,omitempty"`
	Outcome     outcome        `json:"outcome"`
	Started     time.Time      `json:"started"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name: er-dram, rmat-llc, serve-mix or shard-fleet")
		seed     = fs.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds  = fs.Int("seconds", 10, "measured seconds")
		trace    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out      = fs.String("out", "", "also write the full report to this file")
		spans    = fs.String("spans", "", "traced run: write the recorded spans to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		cfg.rec = &recorder{}
	}
	rep := report{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Fingerprint: hostFingerprint(), Started: time.Now(),
	}
	res, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", *workload, err)
		return 1
	}
	if res.tier != nil {
		if w := res.tier.warn(); w != "" {
			fmt.Fprintln(stderr, "perfbench: "+w)
		}
	}
	defs, values := endToEnd, res.e2e
	if *trace == 1 {
		defs, values = perLayer, res.layer
		res.layer["fail_frac"] = frac(res.failed, res.attempted)
	}
	rep.Tier, rep.Info = res.tier, res.info
	rep.Outcome = outcome{
		Correct:   res.checked > 0 && res.wrong == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && *trace == 0 {
			fmt.Fprintf(stderr, "perfbench %s: end-to-end metric %s was not measured\n", *workload, d.name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A ratio with nothing to divide by: every operation failed,
			// or a traced run too short to trace any.
			v = 0
		}
		rep.Outcome.Metrics[d.name] = metricValue{v, d.unit}
	}
	if *trace == 1 && *spans != "" {
		if err := cfg.rec.write(*spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, line, 0o644); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
			return 1
		}
	}
	last, err := json.Marshal(rep.Outcome)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", line, last)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// frac is num/den, 0 for an empty denominator.
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
