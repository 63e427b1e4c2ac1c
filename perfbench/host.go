package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"pbspgemm"
	"pbspgemm/internal/stream"
)

// fingerprint identifies the host a run measured. Figures from hosts with
// different fingerprints are not comparable, and compare refuses them.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	LLCBytes   int64  `json:"llc_bytes"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
	// MemLimitBytes is cgroup v2 memory.max, or MemTotal when the cgroup
	// sets no limit; MemLimitSource says which.
	MemLimitBytes  int64  `json:"mem_limit_bytes"`
	MemLimitSource string `json:"mem_limit_source"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes:   llcBytes(),
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	fp.MemLimitBytes, fp.MemLimitSource = memLimit()
	return fp
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs; 0 when
// sysfs does not describe the caches.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // fails only on a malformed pattern
	var bestLevel, size int64
	for _, d := range dirs {
		level, err := readInt(filepath.Join(d, "level"))
		if err != nil || level < bestLevel {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		if b, ok := parseCacheSize(strings.TrimSpace(string(raw))); ok {
			bestLevel, size = level, b
		}
	}
	return size
}

// parseCacheSize parses sysfs cache sizes such as "107520K" or "4M".
func parseCacheSize(s string) (int64, bool) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

func readInt(path string) (int64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
}

// memLimit returns the cgroup v2 memory limit, falling back to MemTotal.
func memLimit() (int64, string) {
	if raw, err := os.ReadFile("/sys/fs/cgroup/memory.max"); err == nil {
		if n, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64); err == nil {
			return n, "cgroup memory.max"
		}
	}
	if kb := fileFieldKB("/proc/meminfo", "MemTotal"); kb > 0 {
		return kb << 10, "MemTotal"
	}
	return 0, "unknown"
}

// fileFieldKB reads a "Name:   123 kB" field from a /proc status file.
func fileFieldKB(path, field string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0
		}
		return n
	}
	return 0
}

// peakRSSBytes is the process's resident high-water mark (VmHWM).
func peakRSSBytes() int64 { return fileFieldKB("/proc/self/status", "VmHWM") << 10 }

// rssBytes is the process's current resident set (VmRSS).
func rssBytes() int64 { return fileFieldKB("/proc/self/status", "VmRSS") << 10 }

// resetPeakRSS sets VmHWM back to the current RSS, so the next peak read
// covers only what runs after it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// startPeakWindow starts the window peak_rss_mib covers: garbage left by
// set-up is collected and returned, then VmHWM restarts from the live set,
// so the reported peak is the measured loop's own. Where procfs refuses
// the reset it returns false and the peak covers the whole process; r
// records that in the report.
func startPeakWindow(r *runResult) bool {
	releaseMemory()
	if err := resetPeakRSS(); err != nil {
		r.info["peak_rss_window"] = "whole process: " + err.Error()
		return false
	}
	return true
}

// releaseMemory collects garbage and hands freed pages back to the OS, so
// a following measurement starts from the live heap only.
func releaseMemory() { debug.FreeOSMemory() }

// csrBytes is the resident size of a CSR: 8-byte row pointers plus 4-byte
// column indices and 8-byte values.
func csrBytes(m *pbspgemm.CSR) int64 { return int64(len(m.RowPtr))*8 + m.NNZ()*12 }

// kernelWorkingSet is the computed (not measured) set a PB multiply streams
// through memory: both inputs, the expanded tuples, and the kernel's output
// CSR. The Engine's clone of the output is copied after the kernel ends and
// is not part of it.
func kernelWorkingSet(a, b *pbspgemm.CSR, flops, tupleBytes, nnzC int64) int64 {
	return csrBytes(a) + csrBytes(b) + flops*tupleBytes + int64(a.NumRows+1)*8 + nnzC*12
}

// Memory tiers a workload is built for.
const (
	tierDRAM = "dram" // working set ≥ 4× LLC
	tierLLC  = "llc"  // working set ≤ 1× LLC
)

// tierReport is the memory-tier guard of one workload.
type tierReport struct {
	Tier                string  `json:"tier"`
	WorkingSetBytesComp int64   `json:"working_set_bytes_computed"`
	LLCBytes            int64   `json:"llc_bytes"`
	WorkingSetOverLLC   float64 `json:"working_set_over_llc"`
	OK                  bool    `json:"ok"`
	TriadDRAMArrayBytes int64   `json:"triad_dram_array_bytes"`
	TriadLLCArrayBytes  int64   `json:"triad_llc_array_bytes"`
}

// tierFor is the tier a working set of ws bytes lives in.
func tierFor(ws, llc int64) string {
	if ws > llc {
		return tierDRAM
	}
	return tierLLC
}

// defaultLLCBytes stands in for an LLC sysfs does not report.
const defaultLLCBytes = 32 << 20

// triadArrayBytes sizes the two STREAM Triad tiers from the LLC: each DRAM
// array is at least 4× the LLC, and the three LLC arrays together fill
// three quarters of it.
func triadArrayBytes(llc int64) (dram, llcArr int64) {
	if llc <= 0 {
		llc = defaultLLCBytes
	}
	return 4 * llc, llc / 4
}

// checkTier applies the guard: a DRAM-tier working set must be at least
// 4× the LLC, an LLC-tier one at most 1×.
func checkTier(tier string, ws, llc int64) tierReport {
	dram, llcArr := triadArrayBytes(llc)
	t := tierReport{
		Tier: tier, WorkingSetBytesComp: ws, LLCBytes: llc,
		TriadDRAMArrayBytes: dram, TriadLLCArrayBytes: llcArr,
	}
	if llc > 0 {
		t.WorkingSetOverLLC = float64(ws) / float64(llc)
		switch tier {
		case tierDRAM:
			t.OK = t.WorkingSetOverLLC >= 4
		case tierLLC:
			t.OK = t.WorkingSetOverLLC <= 1
		}
	}
	return t
}

// triads measures STREAM Triad at both tiers with threads workers and
// returns the best-of-reps GB/s of each.
func triads(llc int64, threads int) (dramGBs, llcGBs float64) {
	dram, llcArr := triadArrayBytes(llc)
	dramGBs = stream.Beta(stream.Run(stream.Options{
		N: int(dram / 8), Reps: 5, Threads: threads, Kernels: []stream.Kernel{stream.Triad},
	}))
	releaseMemory()
	llcGBs = stream.Beta(stream.Run(stream.Options{
		N: int(llcArr / 8), Reps: 50, Threads: threads, Kernels: []stream.Kernel{stream.Triad},
	}))
	releaseMemory()
	return dramGBs, llcGBs
}

// tierTriad picks the Triad figure of tier.
func tierTriad(tier string, dramGBs, llcGBs float64) float64 {
	if tier == tierDRAM {
		return dramGBs
	}
	return llcGBs
}

func (t tierReport) warn() string {
	if t.OK {
		return ""
	}
	return fmt.Sprintf("tier guard: %s-tier working set is %.2f× the %d-byte LLC (computed %d bytes); the host breaks the tier",
		t.Tier, t.WorkingSetOverLLC, t.LLCBytes, t.WorkingSetBytesComp)
}
