package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestGFLOPSAndGBs(t *testing.T) {
	if got := GFLOPS(2e9, time.Second); got != 2 {
		t.Fatalf("GFLOPS = %v, want 2", got)
	}
	if got := GBs(5e9, 2*time.Second); got != 2.5 {
		t.Fatalf("GBs = %v, want 2.5", got)
	}
	if GFLOPS(1, 0) != 0 || GBs(1, 0) != 0 {
		t.Fatal("zero duration must yield 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 4, 1, 5})
	if s.Min != 1 || s.Max != 5 || s.N != 5 {
		t.Fatalf("min/max/n wrong: %+v", s)
	}
	if math.Abs(s.Mean-2.8) > 1e-12 {
		t.Fatalf("mean = %v, want 2.8", s.Mean)
	}
	if s.Median != 3 {
		t.Fatalf("median = %v, want 3", s.Median)
	}
	even := Summarize([]float64{1, 2, 3, 4})
	if even.Median != 2.5 {
		t.Fatalf("even median = %v, want 2.5", even.Median)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty summary must have N=0")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	s := Summarize(xs)
	// Linear interpolation between order statistics: pos = q*(n-1).
	if math.Abs(s.P50-50.5) > 1e-12 {
		t.Fatalf("P50 = %v, want 50.5", s.P50)
	}
	if math.Abs(s.P95-95.05) > 1e-12 {
		t.Fatalf("P95 = %v, want 95.05", s.P95)
	}
	if math.Abs(s.P99-99.01) > 1e-12 {
		t.Fatalf("P99 = %v, want 99.01", s.P99)
	}
	if s.P50 != s.Median {
		t.Fatalf("P50 %v != Median %v", s.P50, s.Median)
	}
}

func TestQuantile(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty slice must yield 0")
	}
	if Quantile([]float64{7}, 0.99) != 7 {
		t.Fatal("single element must yield itself at any q")
	}
	xs := []float64{4, 1, 3, 2} // unsorted input: Quantile copies + sorts
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 4 {
		t.Fatalf("q=0/q=1 must be min/max, got %v %v", Quantile(xs, 0), Quantile(xs, 1))
	}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "gflops")
	tb.AddRow("pb", 1.234)
	tb.AddRow("hash", 0.5)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "gflops") {
		t.Fatal("missing headers")
	}
	if !strings.Contains(out, "1.23") || !strings.Contains(out, "0.5000") {
		t.Fatalf("missing formatted values:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1234.56: "1234.6",
		12.345:  "12.35",
		0.0625:  "0.0625",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		999:           "999",
		1600:          "1.6K",
		1_600_000:     "1.6M",
		2_100_000_000: "2.1B",
	}
	for in, want := range cases {
		if got := HumanCount(in); got != want {
			t.Errorf("HumanCount(%d) = %q, want %q", in, got, want)
		}
	}
}
