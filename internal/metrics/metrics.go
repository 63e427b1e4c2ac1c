// Package metrics provides timing, throughput and bandwidth accounting plus
// plain-text table rendering for the experiment harness. The paper reports
// two derived quantities everywhere: performance in GFLOPS (multiplications
// per second / 1e9) and sustained bandwidth in GB/s (modeled bytes moved per
// phase divided by phase time); this package centralizes both.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// GFLOPS converts a flop count and duration into the paper's performance
// metric (billions of multiplications per second).
func GFLOPS(flops int64, d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(flops) / s / 1e9
}

// GBs converts bytes moved and duration into GB/s (1e9 bytes per second).
func GBs(bytes int64, d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(bytes) / s / 1e9
}

// Summary holds simple statistics over repeated measurements. P50/P95/P99
// are the tail quantiles serving-latency reports care about (P50 equals
// Median up to the interpolation convention).
type Summary struct {
	Min, Max, Mean, Median float64
	P50, P95, P99          float64
	N                      int
}

// Summarize computes Summary over xs; it returns the zero Summary for empty
// input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1), N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	s.P50 = quantileSorted(sorted, 0.50)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs with linear
// interpolation between order statistics; xs need not be sorted. It returns
// 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted interpolates the q-th quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Table renders aligned text tables for harness output, mirroring the rows
// and series the paper's figures plot.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v unless already strings.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = FormatFloat(v)
		case float32:
			row[i] = FormatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// FormatFloat renders a float compactly: 3 significant decimals for small
// magnitudes, fewer for large ones.
func FormatFloat(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e15:
		return fmt.Sprintf("%.0f", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// HumanCount formats a count the way the paper's tables do (1.6M, 800.8K).
func HumanCount(v int64) string {
	switch {
	case v >= 1_000_000_000:
		return fmt.Sprintf("%.1fB", float64(v)/1e9)
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fK", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
