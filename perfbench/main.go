// Command perfbench is the repository's benchmark: one seeded command that
// drives the real user surfaces (the asymsort CLI and the asymsortd daemon,
// solo and as a loopback cluster) as child processes, verifies every output
// outside the timed span, and prints the end-to-end metrics; with -trace 1 it
// prints the per-layer metrics instead, read from the surfaces' own ledgers
// and from timed calls into each module's public functions.
//
//	perfbench -workload ext_merge -seed 1 -seconds 10 -trace 0
//
// It expects to run from the repository root with the binaries built into
// .bench_build/bin (perfbench/run.sh does both). The last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
// before it are the human-readable report, including the workload-specific
// metrics that are not gated. See perfbench/README.md for the workloads and
// what each metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported name with its unit.
type metric struct{ name, unit string }

// e2eMetrics are measured with tracing off on every workload, from the
// built binaries run as child processes. They must match BENCHMARK.json's
// end_to_end list.
var e2eMetrics = []metric{
	{"throughput_mrec_s", "Mrec/s"},
	{"job_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics are the traced run's metrics. They must match
// BENCHMARK.json's per_layer list. A metric of a surface the workload does
// not drive reads 0 (see README.md).
var layerMetrics = []metric{
	{"small_job_p50_ms", "ms"},
	{"small_job_p90_ms", "ms"},
	{"failed_frac", "frac"},
	{"block_reads", "count"},
	{"block_writes", "count"},
	{"io_cost", "count"},
	{"ledger.mismatches", "count"},
	{"wire.encode_mb_s", "MB/s"},
	{"wire.decode_mb_s", "MB/s"},
	{"codec.binary_stage_mb_s", "MB/s"},
	{"codec.binary_stream_mb_s", "MB/s"},
	{"cli.stage_ms", "ms"},
	{"cli.sort_ms", "ms"},
	{"cli.other_ms", "ms"},
	{"rt.leafsort_mrec_s_p1", "Mrec/s"},
	{"rt.leafsort_mrec_s_p2", "Mrec/s"},
	{"blockfile.read_mb_s", "MB/s"},
	{"blockfile.write_mb_s", "MB/s"},
	{"extmem.form_s", "s"},
	{"extmem.merge_s", "s"},
	{"extmem.runs", "count"},
	{"extmem.levels", "count"},
	{"extmem.k", "count"},
	{"extmem.fan_in", "count"},
	{"extmem.merge_width", "count"},
	{"extmem.level0.reads", "count"},
	{"extmem.level0.writes", "count"},
	{"extmem.level1.reads", "count"},
	{"extmem.level1.writes", "count"},
	{"extmem.sort_s_p1", "s"},
	{"extmem.sort_s_p2", "s"},
	{"extmem.speedup_p2", "x"},
	{"serve.stage_ms_p50", "ms"},
	{"serve.stage_ms_p90", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p90", "ms"},
	{"serve.sort_ms_p50", "ms"},
	{"serve.sort_ms_p90", "ms"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.stream_ms_p90", "ms"},
	{"serve.native_frac", "frac"},
	{"serve.grant_recs_p50", "count"},
	{"serve.block_reads_per_rec", "blk/rec"},
	{"serve.block_writes_per_rec", "blk/rec"},
	{"serve.omega_effective_min", "x"},
	{"serve.omega_effective_max", "x"},
	{"serve.k_distinct", "count"},
	{"cluster.stage_ms_p50", "ms"},
	{"cluster.split_ms_p50", "ms"},
	{"cluster.scatter_ms_p50", "ms"},
	{"cluster.stream_ms_p50", "ms"},
	{"cluster.shard_skew", "x"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"bench.gen_lag_p90_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// run is one benchmark invocation's shared state and tallies.
type run struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	bin     string // directory holding the built asymsort and asymsortd
	dir     string // scratch directory of this invocation, removed at exit

	attempted, failed int
	// e2e holds the gated end-to-end metrics, layer the traced run's
	// per-layer ones.
	e2e, layer map[string]float64
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"ext_merge":    func(r *run) error { return runExt(r, extMerge) },
	"ext_select":   func(r *run) error { return runExt(r, extSelect) },
	"served_mixed": runServed,
	"cluster_sort": runCluster,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: ext_merge | ext_select | served_mixed | cluster_sort")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per load")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (ext_merge | ext_select | served_mixed | cluster_sort), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	code, err := r.execute(*workload, drive)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

// execute runs the workload and prints the report; it returns the exit
// code. A workload error (a surface that could not be started, a broken
// harness) prints no result line at all; incorrect outputs print the
// result with correct=false and exit 1.
func (r *run) execute(workload string, drive func(*run) error) (int, error) {
	wd, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	r.bin = filepath.Join(wd, ".bench_build", "bin")
	for _, b := range []string{"asymsort", "asymsortd"} {
		if _, err := os.Stat(filepath.Join(r.bin, b)); err != nil {
			return 2, fmt.Errorf("missing %s binary (build with perfbench/run.sh): %w", b, err)
		}
	}
	r.dir, err = os.MkdirTemp(filepath.Join(wd, ".bench_build"), "run-"+workload+"-")
	if err != nil {
		return 2, err
	}
	defer os.RemoveAll(r.dir)

	printStamp(workload, r, wd)
	r.zeroLayers()
	cpu0 := readCPU()
	if err := drive(r); err != nil {
		return 2, err
	}
	if cpu0 != nil {
		if cpu1 := readCPU(); cpu1 != nil {
			note("host: cpu busy %.0f%%, steal %.1f%% of this machine's CPU time during the run",
				100*cpuShare(cpu0, cpu1, func(c cpuTimes) float64 { return c.busy }),
				100*cpuShare(cpu0, cpu1, func(c cpuTimes) float64 { return c.steal }))
		}
	}
	if r.attempted < 1 {
		return 2, fmt.Errorf("%s ran no jobs", workload)
	}
	r.figure("failed_frac", float64(r.failed)/float64(r.attempted))
	// The traced run measures its untraced load too, so both modes print
	// the end-to-end metrics; the result line carries the mode's list.
	out, err := report(e2eMetrics, r.e2e, r.failed > 0)
	if err == nil && r.trace {
		out, err = report(layerMetrics, r.layer, r.failed > 0)
	}
	if err != nil {
		return 2, fmt.Errorf("%s: %w", workload, err)
	}
	correct := r.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return 2, err
	}
	fmt.Println(string(line))
	if !correct {
		return 1, fmt.Errorf("%s: %d of %d jobs failed or did not verify", workload, r.failed, r.attempted)
	}
	return 0, nil
}

// report prints one metric line per entry of list and returns the values
// for the result line. A metric left unmeasured is an error unless jobs
// failed, when there may have been nothing verified to measure it on; it
// then reads 0 and the run fails anyway.
func report(list []metric, vals map[string]float64, failed bool) (map[string]any, error) {
	out := map[string]any{}
	for _, m := range list {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !failed {
				return nil, fmt.Errorf("metric %s was not measured", m.name)
			}
			v = 0
		}
		fmt.Printf("metric %-28s %14.4f %s\n", m.name, v, m.unit)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out, nil
}

// note prints one line of the human-readable report.
func note(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

// fail counts one failed job and says why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Printf("  FAIL: "+format+"\n", args...)
}

// printStamp prints the recording's identity: machine, toolchain, source.
func printStamp(workload string, r *run, root string) {
	stamp := map[string]any{
		"workload":   workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(root),
		"source":     sourceDigest(root),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(stamp) // a map of plain values always marshals
	fmt.Printf("stamp %s\n", b)
}

// gitCommit reads HEAD's commit from .git without running git; a checkout
// exported without .git reports "none" (the source digest still identifies
// the tree).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, ref, ok := strings.Cut(line, " "); ok && ref == name {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under the root (build
// output excluded), so two recordings of the same source say so even
// without git.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s %d\n", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkBenchmarkJSON fails when BENCHMARK.json's metric lists drift from
// the tables above, so the driver and the program cannot disagree silently.
func checkBenchmarkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(list []metric, spec []struct{ Name, Unit string }) bool {
		return slices.EqualFunc(list, spec, func(m metric, s struct{ Name, Unit string }) bool {
			return m.name == s.Name && m.unit == s.Unit
		})
	}
	if !same(e2eMetrics, spec.EndToEnd) || !same(layerMetrics, spec.PerLayer) {
		return fmt.Errorf("%s metric lists differ from perfbench's tables", path)
	}
	return nil
}

// cpuTimes is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuTimes struct{ total, busy, steal float64 }

// readCPU reads /proc/stat's aggregate line; nil where it is unavailable.
func readCPU() *cpuTimes {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var c cpuTimes
	for i, v := range f[1:9] { // user nice system idle iowait irq softirq steal
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil
		}
		c.total += x
		if i != 3 && i != 4 {
			c.busy += x
		}
		if i == 7 {
			c.steal = x
		}
	}
	return &c
}

// cpuShare is one component's share of the CPU time between two readings.
func cpuShare(a, b *cpuTimes, part func(cpuTimes) float64) float64 {
	if d := b.total - a.total; d > 0 {
		return (part(*b) - part(*a)) / d
	}
	return 0
}
