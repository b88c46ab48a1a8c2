// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each invocation runs one workload in-process through the
// public session, harness, service and gateway APIs and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) records spans around every call into the program and
// reports per-layer metrics instead. Inputs — report options, request
// streams, client programs, fault schedules — are generated from -seed.
// BENCHMARK.json at the repository root documents the workloads and
// metrics.
//
// Usage (from the repository root; run.sh builds the tool first):
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --ab ../other-checkout --pairs 10 --workloads report,serve
//	bash perfbench/run.sh --pin    # regenerate perfbench/pins.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// scratchRoot holds each run's private scratch directory, relative to
// the checkout root the tool runs from.
const scratchRoot = ".bench_build/perfbench"

// runCfg is one invocation's settings.
type runCfg struct {
	seed    int64
	seconds time.Duration // how long the run measures at least
	traced  bool
	dir     string // private scratch directory inside the checkout
	pins    *pinSet
}

// A run times cold set-ups in two rounds, one before its measured
// window and one after it, each at least minSetups set-ups and at least
// setupTime long; setup_s is the median of both rounds. Two rounds half
// a minute apart sample two stretches of the host's speed instead of one
// second of one.
const (
	minSetups = 21
	setupTime = time.Second
)

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	mismatches        []string // first few correctness failures, for stderr

	setup []float64 // seconds per cold set-up
	units []float64 // seconds per unit of work (one report, one block of requests)
	lat   []float64 // per-operation latency in ms
	ops   int64     // operations completed in the measured window
	busy  float64   // seconds the measured window lasted

	layers map[string]float64 // per-layer metrics (traced runs)
	stolen []string           // each report's stolen share, for stderr
}

// timeSetups times one round of the run's cold set-ups.
func timeSetups(out *outcome, setup func() (float64, error)) error {
	start := time.Now()
	for n := 0; n < minSetups || time.Since(start) < setupTime; n++ {
		s, err := setup()
		if err != nil {
			return err
		}
		out.setup = append(out.setup, s)
	}
	return nil
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.mismatches) < 8 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	run  func(c *runCfg) (*outcome, error)
}

var workloads = []benchWorkload{
	{"report", func(c *runCfg) (*outcome, error) { return runReport(c, false) }},
	{"report-sampled", func(c *runCfg) (*outcome, error) { return runReport(c, true) }},
	{"serve", runServe},
	{"fleet", runFleet},
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: report, report-sampled, serve or fleet")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Int("seconds", 30, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		ab      = flag.String("ab", "", "A/B mode: a second checkout to compare this one against")
		pairs   = flag.Int("pairs", 10, "A/B mode: interleaved run pairs per workload")
		abLoads = flag.String("workloads", "", "A/B mode: comma-separated workloads (default all)")
		pin     = flag.Bool("pin", false, "recompute the pinned simulated counters into perfbench/pins.json")
	)
	flag.Parse()
	if *ab != "" {
		return runAB(*ab, *pairs, *abLoads, *seed, *seconds)
	}
	if *pin {
		if err := writePins(filepath.Join("perfbench", "pins.json")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// Run scratch (the fleet's stores) stays inside the checkout.
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	c := &runCfg{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: dir, pins: pins}
	out, err := w.run(c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if !c.traced {
		return printMetrics(w.name, out)
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", m)
	}
	if len(out.layers) != len(layerNames) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d layer metrics, want %d\n", w.name, len(out.layers), len(layerNames))
		return 1
	}
	line := resultLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for k, v := range out.layers {
		line.Metrics[k] = metric{Value: v, Unit: layerUnit(k)}
	}
	return printLine(line)
}

// printMetrics prints an untraced run's end-to-end metrics.
func printMetrics(name string, out *outcome) int {
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", m)
	}
	p50, _ := percentile(out.lat, 50)
	p99, ok := percentile(out.lat, 99)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples; p99 needs %d\n", len(out.lat), samplesFor(99))
		return 1
	}
	q1, q3 := quartiles(out.setup)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d setups (quartiles %.4g, %.4g s), %d units, %d latency samples, %d ops in %.2fs, GOMAXPROCS=%d NumCPU=%d\n",
		name, len(out.setup), q1, q3, len(out.units), len(out.lat), out.ops, out.busy, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if len(out.stolen) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: stolen share removed per report: %s\n", name, strings.Join(out.stolen, ", "))
	}
	return printLine(resultLine{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(out.setup), "s"},
			"wall_s":      {median(out.units), "s"},
			"ops_per_s":   {float64(out.ops) / out.busy, "1/s"},
			"p50_ms":      {p50, "ms"},
			"p99_ms":      {p99, "ms"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	})
}

// printLine prints v as one JSON line on standard output.
func printLine(v any) int {
	enc, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(enc))
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// layerNames are the per-layer metrics every traced run reports, in
// BENCHMARK.json order; a layer a workload does not exercise reads 0.
var layerNames = []string{
	"ooo.runs", "ooo.busy_s", "ooo.ns_per_inst", "ooo.interval_busy_s", "ooo.interval_ns_per_inst", "ooo.share",
	"emu.busy_s", "emu.ns_per_inst", "ctxswitch.busy_s",
	"sample.scan_busy_s", "sample.scan_ns_per_inst", "sample.scan_share",
	"sample.intervals_measured", "sample.intervals_total", "sample.aggregate_busy_s",
	"runner.jobs", "runner.queue_wait_s", "runner.utilization", "runner.cache_hit_ratio", "runner.compiles",
	"runner.machine_reuse_ratio", "runner.emu_reuse_ratio", "runner.checkpoint_reuse_ratio",
	"build.count", "build.ms",
	"rewrite.annotate_calls", "rewrite.annotate_ms", "rewrite.infer_builds",
	"harness.render_s",
	"service.requests", "service.execute_ms", "service.queue_wait_ms", "service.render_s",
	"service.overhead_ms", "service.rejected",
	"gateway.hop_ms", "gateway.attempts", "gateway.hedges", "gateway.hedge_wins", "gateway.retries",
	"gateway.fallback_local", "gateway.wasted_ratio", "gateway.backend_share",
	"store.gets", "store.hits", "store.get_ms", "store.quarantined",
	"obs.trace_overhead",
	"sim.committed", "sim.cycles",
}

func newLayers() map[string]float64 {
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	return m
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "ns_per_inst"):
		return "ns"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "share"),
		strings.HasSuffix(name, "utilization"), strings.HasSuffix(name, "overhead"):
		return "ratio"
	}
	return "count"
}

// resetPeakRSS keeps the benchmark's own input generation (the client
// programs, the fleet's pre-pass daemons) out of peak_rss_mb: it returns
// the freed memory to the kernel and resets the process's high-water
// mark (VmHWM) to its current resident set. Where the kernel refuses,
// the peak includes the generation, and standard error says so.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), &kb)
			return kb / 1024
		}
	}
	return 0
}

// printLayers writes per-layer metrics to stderr, sorted by name.
func printLayers(name string, layers map[string]float64) {
	keys := make([]string, 0, len(layers))
	for k := range layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %s layer %-32s %.6g\n", name, k, layers[k])
	}
}
