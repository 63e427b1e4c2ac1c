package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"pbspgemm"
	"pbspgemm/internal/serve"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0.5}, {19, 0.5}, {20, 0.5}, {40, 0.75}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {5000, 0.99},
	} {
		if got := tailQuantile(tc.n, 0.99); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestTailHasTenBeyond checks the selection against data: at every sample
// count, exactly ten samples lie above the reported tail value (at least
// ten once the p99 cap applies), so it is the highest such quantile.
func TestTailHasTenBeyond(t *testing.T) {
	for n := 20; n <= 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		q := tailQuantile(n, 0.99)
		v := quantile(xs, q)
		beyond := n - sort.SearchFloat64s(xs, v+1e-9)
		if beyond < tailMinBeyond || (q < 0.99 && beyond != tailMinBeyond) {
			t.Errorf("n=%d: p%.2f = %v has %d samples beyond it", n, 100*q, v, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"one child", []interval{{at(10), at(30)}}, 80 * time.Millisecond},
		// [10,30) and [20,40) overlap: their union is 30 ms, not 40.
		{"overlapping", []interval{{at(20), at(40)}, {at(10), at(30)}}, 70 * time.Millisecond},
		// Parts outside the parent do not count.
		{"clipped", []interval{{at(-5), at(5)}, {at(90), at(120)}}, 85 * time.Millisecond},
		{"nested", []interval{{at(10), at(60)}, {at(20), at(30)}}, 50 * time.Millisecond},
		{"covering", []interval{{at(-1), at(101)}}, 0},
		{"outside", []interval{{at(200), at(300)}}, 100 * time.Millisecond},
		{"mixed", []interval{{at(-5), at(5)}, {at(10), at(30)}, {at(20), at(40)}, {at(90), at(120)}}, 55 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSeedInputs checks every workload's inputs: the same seed generates
// identical matrices (by content hash), a different seed different ones.
func TestSeedInputs(t *testing.T) {
	serveSet := func(seed uint64) []*pbspgemm.CSR {
		in, err := serveMixInputs(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return append(append([]*pbspgemm.CSR{in.wide}, in.bases...), in.fresh[0][1], in.fresh[1][1])
	}
	pairSet := func(f func(uint64) (a, b *pbspgemm.CSR)) func(uint64) []*pbspgemm.CSR {
		return func(seed uint64) []*pbspgemm.CSR {
			a, b := f(seed)
			return []*pbspgemm.CSR{a, b}
		}
	}
	for name, inputs := range map[string]func(uint64) []*pbspgemm.CSR{
		"er-dram":     pairSet(erDRAMInputs),
		"rmat-llc":    pairSet(rmatLLCInputs),
		"shard-fleet": pairSet(shardFleetInputs),
		"serve-mix":   serveSet,
	} {
		hashes := func(seed uint64) string {
			var hs []string
			for _, m := range inputs(seed) {
				hs = append(hs, serve.HashMatrix(m))
			}
			return strings.Join(hs, ",")
		}
		first, again, other := hashes(7), hashes(7), hashes(8)
		if first != again {
			t.Errorf("%s: seed 7 generated different inputs on two calls", name)
		}
		if first == other {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
		for _, h := range strings.Split(first, ",") {
			if strings.Contains(other, h) {
				t.Errorf("%s: an input of seed 7 reappears under seed 8", name)
			}
		}
	}
}

func TestShardInputsAreIntegerValued(t *testing.T) {
	a, b := shardFleetInputs(3)
	for _, m := range []*pbspgemm.CSR{a, b} {
		for _, v := range m.Val {
			if v != float64(int64(v)) || v < 1 || v > 9 {
				t.Fatalf("value %v is not an integer in [1, 9]", v)
			}
		}
	}
}

func TestCompareRefusesDifferentHosts(t *testing.T) {
	base := report{Workload: "er-dram", Seconds: 10, Fingerprint: fingerprint{
		NProc: 2, GOMAXPROCS: 2, LLCBytes: 105 << 20, GOAMD64: "v1", GoVersion: "go1.24.0",
		MemLimitBytes: 8 << 30, MemLimitSource: "MemTotal",
	}}
	if err := comparable(base, base); err != nil {
		t.Fatalf("identical reports refused: %v", err)
	}
	for name, mutate := range map[string]func(r *report){
		"nproc":    func(r *report) { r.Fingerprint.NProc = 4 },
		"llc":      func(r *report) { r.Fingerprint.LLCBytes = 32 << 20 },
		"goamd64":  func(r *report) { r.Fingerprint.GOAMD64 = "v3" },
		"go":       func(r *report) { r.Fingerprint.GoVersion = "go1.25.0" },
		"memory":   func(r *report) { r.Fingerprint.MemLimitBytes = 4 << 30 },
		"workload": func(r *report) { r.Workload = "rmat-llc" },
	} {
		other := base
		mutate(&other)
		if comparable(base, other) == nil {
			t.Errorf("%s: reports from different hosts or runs were not refused", name)
		}
	}
}

func TestCheckTier(t *testing.T) {
	const llc = 100 << 20
	for _, tc := range []struct {
		tier string
		ws   int64
		ok   bool
	}{
		{tierDRAM, 4 * llc, true},
		{tierDRAM, 4*llc - 1, false},
		{tierLLC, llc, true},
		{tierLLC, llc + 1, false},
	} {
		if got := checkTier(tc.tier, tc.ws, llc); got.OK != tc.ok {
			t.Errorf("checkTier(%s, %d) ok = %v, want %v", tc.tier, tc.ws, got.OK, tc.ok)
		}
	}
	if checkTier(tierLLC, 1, 0).OK {
		t.Error("an unknown LLC passed the tier guard")
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"107520K": 107520 << 10, "4M": 4 << 20, "1G": 1 << 30, "512": 512} {
		if got, ok := parseCacheSize(in); !ok || got != want {
			t.Errorf("parseCacheSize(%q) = %d, %v; want %d", in, got, ok, want)
		}
	}
	for _, in := range []string{"", "K", "-1K", "12X"} {
		if _, ok := parseCacheSize(in); ok {
			t.Errorf("parseCacheSize(%q) accepted", in)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, tc := range []struct {
		section string
		listed  []struct{ Name, Unit string }
		defs    []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(tc.listed) != len(tc.defs) {
			t.Errorf("%s lists %d metrics, the program reports %d", tc.section, len(tc.listed), len(tc.defs))
			continue
		}
		for i, m := range tc.listed {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("%s[%d] = %s (%s), program has %s (%s)", tc.section, i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}
