package main

import (
	"math"
	"sort"
	"time"

	"pbspgemm/internal/metrics"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer behind it is a handful of outliers,
// not a tail.
const tailMinBeyond = 10

// tailQuantile returns the highest quantile, capped at max, that leaves
// tailMinBeyond of n samples above it: 1 − 10/n. Below 20 samples no
// quantile above the median qualifies and it returns the median's 0.5.
// The quantile moves smoothly with n, so runs whose sample counts differ
// report nearby ranks rather than jumping between fixed percentiles.
func tailQuantile(n int, max float64) float64 {
	if n < 2*tailMinBeyond {
		return 0.5
	}
	return math.Min(max, 1-float64(tailMinBeyond)/float64(n))
}

// quantile is the interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 { return metrics.Quantile(xs, q) }

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return metrics.Quantile(xs, 0.5) }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open [Start, End) stretch of wall time.
type interval struct{ Start, End time.Time }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (parallel blocks) and may start or
// end outside the parent; only their union inside the parent counts, so
// overlapping children are not subtracted twice.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start.Before(clipped[j].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return parent.End.Sub(parent.Start) - covered
}
