package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
)

// compareCmd prints each metric of NEW relative to OLD. Reports from hosts
// with different fingerprints, or of different workloads, run lengths or
// trace modes, are refused rather than printed as a delta.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD-REPORT NEW-REPORT")
		return 2
	}
	old, err := readReport(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	cur, err := readReport(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if err := comparable(old, cur); err != nil {
		fmt.Fprintf(stderr, "perfbench compare: refused: %v\n", err)
		return 3
	}
	names := make([]string, 0, len(cur.Outcome.Metrics))
	for name := range cur.Outcome.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-32s %14s %14s %9s\n", "metric", "old", "new", "delta")
	for _, name := range names {
		n := cur.Outcome.Metrics[name]
		o, ok := old.Outcome.Metrics[name]
		delta := "n/a"
		if ok && o.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(n.Value-o.Value)/o.Value)
		}
		fmt.Fprintf(stdout, "%-32s %14.4f %14.4f %9s %s\n", name, o.Value, n.Value, delta, n.Unit)
	}
	return 0
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// comparable explains why two reports must not be compared, or returns nil.
func comparable(a, b report) error {
	var diffs []string
	va, vb := reflect.ValueOf(a.Fingerprint), reflect.ValueOf(b.Fingerprint)
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Interface(), vb.Field(i).Interface(); x != y {
			diffs = append(diffs, fmt.Sprintf("%s %v != %v", va.Type().Field(i).Tag.Get("json"), x, y))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("host fingerprints differ: %s", strings.Join(diffs, ", "))
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("runs differ: %s/%ds/trace %d vs %s/%ds/trace %d",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	return nil
}
