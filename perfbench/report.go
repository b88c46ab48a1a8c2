package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dvi/internal/harness"
	"dvi/internal/obs"
	"dvi/internal/prog"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// The report workloads regenerate the paper's nine figures the way a
// researcher does (dvibench's default budgets) on 2 engine workers, each
// report in a fresh Session. An operation is one engine job: its latency
// runs from the worker picking it up to its completion, as the runner's
// progress hook reports them.

const engineWorkers = 2

// minReports is how many reports a run times at least; wall_s is their
// median.
const minReports = 3

// reportOptions are dvibench's defaults at 2 workers.
func reportOptions(sampled bool) harness.Options {
	opt := harness.Options{Scale: 1, MaxInsts: 400_000, SweepMaxInsts: 150_000, Workers: engineWorkers}
	if sampled {
		opt.Sampling = &sample.Options{}
	}
	return opt
}

// buildKey is one binary the report needs.
type buildKey struct {
	w     workload.Spec
	scale int
	opt   workload.BuildOptions
}

// reportKeys lists every distinct build key of the report's grids.
func reportKeys(opt harness.Options) []buildKey {
	seen := map[workload.BuildKey]bool{}
	var keys []buildKey
	for _, id := range harness.ReportIDs() {
		fig, _ := harness.FigureByID(id)
		if fig.Jobs == nil {
			continue
		}
		for _, j := range fig.Jobs(opt) {
			k := j.Workload.Key(j.Scale, j.Build)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, buildKey{j.Workload, j.Scale, j.Build})
			}
		}
	}
	return keys
}

// jobClock turns progress events into per-job latencies (and, traced,
// into spans under the current report span).
type jobClock struct {
	t      *tracer
	mu     sync.Mutex
	parent int64
	open   map[string]time.Time
	lat    []float64
	jobs   int64
	failed int64
}

func (jc *jobClock) observe(ev runner.Event) {
	now := time.Now()
	key := ev.Label + "#" + strconv.Itoa(ev.Index)
	jc.mu.Lock()
	defer jc.mu.Unlock()
	if ev.Phase == runner.JobStart {
		jc.open[key] = now
		return
	}
	st, ok := jc.open[key]
	if !ok {
		return
	}
	delete(jc.open, key)
	jc.jobs++
	if ev.Phase == runner.JobFailed {
		jc.failed++
	}
	jc.lat = append(jc.lat, float64(now.Sub(st))/float64(time.Millisecond))
	if jc.t != nil {
		jc.t.add(span{id: jc.t.ids.Add(1), parent: jc.parent, name: "bench.progress-job",
			start: int64(st.Sub(jc.t.epoch)), end: int64(now.Sub(jc.t.epoch))})
	}
}

// compileHook wraps the default compile function in a benchmark span.
func compileHook(t *tracer) runner.CompileFunc {
	if t == nil {
		return nil
	}
	return func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		_, sp := t.start(context.Background(), "bench.compile-func")
		defer sp.end()
		return workload.CompileSpec(s, scale, opt)
	}
}

// reportSetup constructs a fresh session and builds every key cold.
func reportSetup(ctx context.Context, t *tracer, workers int, keys []buildKey, jc *jobClock) (*session.Session, float64, error) {
	runtime.GC()
	ctx, sp := t.start(ctx, "bench.setup")
	defer sp.end()
	if t != nil {
		ctx = obs.WithRecorder(ctx, t.recorder())
	}
	start := time.Now()
	opts := []session.Option{session.WithWorkers(workers), session.WithProgress(jc.observe)}
	if hook := compileHook(t); hook != nil {
		opts = append(opts, session.WithCompile(hook))
	}
	sess := session.New(opts...)
	for _, k := range keys {
		if _, _, err := sess.Cache().Get(ctx, k.w, k.scale, k.opt); err != nil {
			return nil, 0, fmt.Errorf("build %s: %w", k.w.Key(k.scale, k.opt), err)
		}
	}
	return sess, time.Since(start).Seconds(), nil
}

// reportUnit runs one full report on sess and checks every result cell
// against the pins. It returns the wall time and the results.
func reportUnit(ctx context.Context, t *tracer, sess *session.Session, opt harness.Options, jc *jobClock, name string, pins *pinSet, out *outcome) (float64, harness.ResultSet, error) {
	runtime.GC()
	ctx, sp := t.start(ctx, "bench.report")
	defer sp.end()
	jc.mu.Lock()
	jc.parent = sp.id()
	jc.mu.Unlock()
	rctx := ctx
	if t != nil {
		rctx = obs.WithRecorder(ctx, t.recorder())
	}
	ids := harness.ReportIDs()
	start := time.Now()
	_, cs := t.start(ctx, "bench.harness-collect")
	rs, err := harness.CollectResults(rctx, sess, opt, ids)
	cs.end()
	if err != nil {
		return 0, nil, err
	}
	var buf bytes.Buffer
	for _, id := range ids {
		fig, _ := harness.FigureByID(id)
		_, rsp := t.start(ctx, "bench.harness-render")
		tables, err := fig.Render(opt, rs)
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", id, err)
		}
		for _, tb := range tables {
			fmt.Fprintln(&buf, tb)
		}
		rsp.end()
	}
	wall := time.Since(start).Seconds()
	if buf.Len() == 0 {
		out.fail("%s rendered no tables", name)
	}
	checkReport(name, rs, pins, out)
	return wall, rs, nil
}

// checkReport compares every result cell's counters with the pins.
func checkReport(name string, rs harness.ResultSet, pins *pinSet, out *outcome) {
	want := pins.Report[name]
	for _, id := range harness.ReportIDs() {
		got := rs[id]
		w := want[id]
		if len(got) != len(w) {
			out.fail("%s %s: %d result cells, pinned %d", name, id, len(got), len(w))
			continue
		}
		for i, r := range got {
			if d := digest(resultCounters(r)); d != w[i] {
				out.fail("%s %s cell %d (%s): counters %s, pinned %s", name, id, i, r.Job.Label, d, w[i])
			}
		}
	}
}

// resultCounters is the fixed list of simulated counters a job answers
// with: cycles, committed instructions, eliminated saves and restores,
// and the functional counts.
func resultCounters(r runner.Result) []uint64 {
	switch r.Job.Kind {
	case runner.Timing:
		c := timingCounters(r.Timing)
		for _, cs := range r.CtxStats {
			c = append(c, cs.Committed, cs.ElimSaves, cs.ElimRests)
		}
		if r.Sampled != nil {
			c = append(c, uint64(r.Sampled.Measured), uint64(r.Sampled.Intervals))
		}
		return c
	case runner.Functional:
		return funcCounters(r.Func)
	case runner.CtxSwitch:
		return switchCounters(r.Switch.Samples, r.Switch.Hist[:])
	case runner.Build:
		return []uint64{uint64(r.Image.TextWords())}
	}
	return nil
}

func runReport(c *runCfg, sampled bool) (*outcome, error) {
	name := "report"
	if sampled {
		name = "report-sampled"
	}
	opt := reportOptions(sampled)
	keys := reportKeys(opt)
	ctx := context.Background()
	out := &outcome{}
	jc := &jobClock{open: map[string]time.Time{}}

	if c.traced {
		return traceReport(ctx, c, name, opt, keys, jc, out)
	}
	setup := func() (float64, error) {
		_, s, err := reportSetup(ctx, nil, opt.Workers, keys, jc)
		return s, err
	}
	if err := timeSetups(out, setup); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(out.units) < minReports || time.Since(start) < c.seconds || len(jc.lat) < samplesFor(99) {
		sess, _, err := reportSetup(ctx, nil, opt.Workers, keys, jc)
		if err != nil {
			return nil, err
		}
		before := readHostTicks()
		wall, _, err := reportUnit(ctx, nil, sess, opt, jc, name, c.pins, out)
		if err != nil {
			return nil, err
		}
		stolen := stolenShare(before, readHostTicks())
		out.stolen = append(out.stolen, fmt.Sprintf("%.2f%%", 100*stolen))
		out.units = append(out.units, wall*(1-stolen))
		out.busy += wall * (1 - stolen)
	}
	if err := timeSetups(out, setup); err != nil {
		return nil, err
	}
	out.lat = jc.lat
	out.ops = jc.jobs
	out.attempted = jc.jobs
	out.failed += jc.failed
	recordUntraced(name, median(out.units))
	return out, nil
}

// traceReport is the traced run: one traced set-up, then one traced
// report, the window the per-layer metrics describe.
func traceReport(ctx context.Context, c *runCfg, name string, opt harness.Options, keys []buildKey, jc *jobClock, out *outcome) (*outcome, error) {
	t := newTracer()
	jc.t = t
	sess, _, err := reportSetup(ctx, t, opt.Workers, keys, jc)
	if err != nil {
		return nil, err
	}
	eng := snapEngines(sess)
	from, ticks := t.now(), readHostTicks()
	wall, rs, err := reportUnit(ctx, t, sess, opt, jc, name, c.pins, out)
	if err != nil {
		return nil, err
	}
	stolen := stolenShare(ticks, readHostTicks())
	to := t.now()
	out.attempted = jc.jobs
	out.failed += jc.failed

	all := t.all()
	spans := within(all, from, to)
	by := sumByName(spans)
	L := newLayers()
	sim := simTotalsOf(rs)
	L["sim.committed"] = float64(sim.committed)
	L["sim.cycles"] = float64(sim.cycles)
	jobBusy := by["job"].total.Seconds()
	scan, agg := by["scan"], by["aggregate"]
	engineBusy := jobBusy + scan.total.Seconds() + agg.total.Seconds()
	timing, interval := by["timing"], by["interval"]

	L["ooo.runs"] = float64(timing.n + interval.n)
	L["ooo.busy_s"] = timing.own.Seconds()
	L["ooo.ns_per_inst"] = nsPer(timing.own, sim.timingInsts)
	L["ooo.interval_busy_s"] = interval.own.Seconds()
	L["ooo.interval_ns_per_inst"] = nsPer(interval.own, sim.detailedInsts)
	L["ooo.share"] = share(timing.own.Seconds()+interval.own.Seconds(), engineBusy)
	L["emu.busy_s"] = by["functional"].own.Seconds()
	L["emu.ns_per_inst"] = nsPer(by["functional"].own, sim.funcInsts)
	L["ctxswitch.busy_s"] = by["ctxswitch"].own.Seconds()
	L["sample.scan_busy_s"] = scan.own.Seconds()
	rounds := 1.0
	if n := by["sample"].n; n > 0 {
		rounds = float64(scan.n) / float64(n)
	}
	L["sample.scan_ns_per_inst"] = nsPer(scan.own, uint64(float64(sim.scanInsts)*rounds))
	L["sample.scan_share"] = share(scan.own.Seconds(), engineBusy)
	L["sample.intervals_measured"] = float64(sim.measured)
	L["sample.intervals_total"] = float64(sim.intervals)
	L["sample.aggregate_busy_s"] = agg.own.Seconds()

	L["runner.jobs"] = float64(by["job"].n)
	L["runner.queue_wait_s"] = attrSum(spans, "job", "queue_wait_ms") / 1000
	L["runner.utilization"] = share(engineBusy, wall*float64(opt.Workers))
	engineLayers(L, eng, snapEngines(sess))
	setupLayers(L, all)
	L["harness.render_s"] = by["bench.harness-render"].total.Seconds()
	L["obs.trace_overhead"] = traceOverhead(name, wall*(1-stolen))
	out.layers = L
	printLayers(name, L)
	return out, nil
}

// simTotals are the deterministic simulated counts of a report.
type simTotals struct {
	committed, cycles uint64
	timingInsts       uint64 // committed by exact timing runs
	detailedInsts     uint64 // simulated in detail by sampled intervals, warm-up included
	funcInsts         uint64 // executed by functional runs
	scanInsts         uint64 // covered by sampled runs' functional scans
	measured          int
	intervals         int
}

func simTotalsOf(rs harness.ResultSet) simTotals {
	var s simTotals
	for _, id := range harness.ReportIDs() {
		for _, r := range rs[id] {
			switch r.Job.Kind {
			case runner.Timing:
				s.committed += r.Timing.Committed
				s.cycles += r.Timing.Cycles
				if r.Sampled != nil {
					s.detailedInsts += r.Sampled.DetailedInsts
					s.scanInsts += r.Sampled.TotalInsts
					s.measured += r.Sampled.Measured
					s.intervals += r.Sampled.Intervals
				} else {
					s.timingInsts += r.Timing.Committed
				}
			case runner.Functional:
				s.funcInsts += r.Func.Total
			}
		}
	}
	return s
}

// engineSnap is the runner's cumulative cache and pool counters,
// summed over the engines of one or more sessions.
type engineSnap struct {
	hits, misses, compiles int64
	pool                   runner.PoolStats
}

func snapEngines(sessions ...*session.Session) engineSnap {
	var e engineSnap
	for _, s := range sessions {
		h, m := s.Cache().Stats()
		e.hits, e.misses, e.compiles = e.hits+h, e.misses+m, e.compiles+s.Cache().Compiles()
		p := s.PoolStats()
		e.pool.MachineReuse += p.MachineReuse
		e.pool.MachineFresh += p.MachineFresh
		e.pool.EmuReuse += p.EmuReuse
		e.pool.EmuFresh += p.EmuFresh
		e.pool.CheckpointReuse += p.CheckpointReuse
		e.pool.CheckpointFresh += p.CheckpointFresh
	}
	return e
}

// engineLayers fills the runner's cache and pool ratios of the window
// between two snapshots, and runner.compiles from the sessions'
// construction on: compiles are set-up work, like build.count.
func engineLayers(L map[string]float64, before, after engineSnap) {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	a, b := after.pool, before.pool
	ratio := func(reuse, fresh int64) float64 { return share(float64(reuse), float64(reuse+fresh)) }
	L["runner.cache_hit_ratio"] = ratio(hits, misses)
	L["runner.compiles"] = float64(after.compiles)
	L["runner.machine_reuse_ratio"] = ratio(a.MachineReuse-b.MachineReuse, a.MachineFresh-b.MachineFresh)
	L["runner.emu_reuse_ratio"] = ratio(a.EmuReuse-b.EmuReuse, a.EmuFresh-b.EmuFresh)
	L["runner.checkpoint_reuse_ratio"] = ratio(a.CheckpointReuse-b.CheckpointReuse, a.CheckpointFresh-b.CheckpointFresh)
}

// setupLayers fills the build layers from every span of a traced run —
// its one set-up and its window — because builds are set-up work
// (setup_s is what they move), apart from serve's new client programs.
func setupLayers(L map[string]float64, all []span) {
	var n int
	var total time.Duration
	for _, s := range all {
		if s.name == "compile" {
			n++
			total += s.dur()
		}
	}
	L["build.count"] = float64(n)
	L["build.ms"] = msPer(total, n)
	L["rewrite.infer_builds"] = float64(countKeyed(all, "compile", "/infer"))
}

func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}

func nsPer(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

func msPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / float64(n)
}

// attrSum sums a numeric attribute over spans with the given name.
func attrSum(spans []span, name, attr string) float64 {
	var s float64
	for _, sp := range spans {
		if sp.name != name {
			continue
		}
		if v, ok := sp.attrs[attr].(float64); ok {
			s += v
		}
	}
	return s
}

// countKeyed counts spans named name whose "key" attribute contains sub.
func countKeyed(spans []span, name, sub string) int {
	n := 0
	for _, sp := range spans {
		if k, ok := sp.attrs["key"].(string); ok && sp.name == name && strings.Contains(k, sub) {
			n++
		}
	}
	return n
}
