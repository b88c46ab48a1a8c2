package session_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// samplingTestOpts is a small plan sized for test workloads (scale 1 runs
// are a few hundred thousand instructions).
func samplingTestOpts() sample.Options {
	return sample.Options{Interval: 4000, Warmup: 1000, Period: 4}
}

// TestSampledAccuracyAcrossSuite is the headline acceptance gate: on
// every workload and elimination scheme, the sampled IPC estimate lands
// within its own reported confidence interval of the exact detailed IPC,
// and the exact-side architectural statistics are identical to a
// functional run's.
func TestSampledAccuracyAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite accuracy sweep is not short")
	}
	sess := session.New()
	ctx := context.Background()
	schemes := []emu.Scheme{emu.ElimOff, emu.ElimLVM, emu.ElimLVMStack}

	for _, w := range workload.All() {
		for _, scheme := range schemes {
			so := samplingTestOpts()
			est, err := sess.SimulateSampled(ctx, w,
				session.WithScheme(scheme),
				session.WithSamplingOptions(so))
			if err != nil {
				t.Fatalf("%s/%v: sampled: %v", w.Name, scheme, err)
			}
			exact, err := sess.Simulate(ctx, w, session.WithScheme(scheme))
			if err != nil {
				t.Fatalf("%s/%v: exact: %v", w.Name, scheme, err)
			}
			if diff := math.Abs(est.IPC - exact.IPC()); diff > est.CIHalfWidth {
				t.Errorf("%s/%v: estimate %.4f off exact %.4f by %.4f, CI half-width %.4f",
					w.Name, scheme, est.IPC, exact.IPC(), diff, est.CIHalfWidth)
			}
			// Architectural counts come from the functional pass: exact.
			if est.Stats.ElimSaves != exact.ElimSaves || est.Stats.ElimRests != exact.ElimRests {
				t.Errorf("%s/%v: sampled eliminations %d/%d, exact %d/%d",
					w.Name, scheme, est.Stats.ElimSaves, est.Stats.ElimRests,
					exact.ElimSaves, exact.ElimRests)
			}
			if est.Stats.Committed != exact.Committed {
				t.Errorf("%s/%v: sampled committed %d, exact %d",
					w.Name, scheme, est.Stats.Committed, exact.Committed)
			}
			if est.DetailedInsts >= est.TotalInsts {
				t.Errorf("%s/%v: %d detailed instructions of %d total — sampling saved nothing",
					w.Name, scheme, est.DetailedInsts, est.TotalInsts)
			}
		}
	}
}

// TestSampledDeterministicAcrossWorkerCounts pins the scheduling
// determinism contract: the same plan yields bit-identical estimates at
// one worker and at eight.
func TestSampledDeterministicAcrossWorkerCounts(t *testing.T) {
	ctx := context.Background()
	w, _ := workload.ByName("go")
	so := samplingTestOpts()

	run := func(workers int) sample.Estimate {
		t.Helper()
		sess := session.New(session.WithWorkers(workers))
		est, err := sess.SimulateSampled(ctx, w,
			session.WithScheme(emu.ElimLVMStack),
			session.WithSamplingOptions(so))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return est
	}

	one := run(1)
	eight := run(8)
	if !reflect.DeepEqual(one, eight) {
		t.Errorf("estimates differ across worker counts:\n-j1: %+v\n-j8: %+v", one, eight)
	}
	// And re-running in the same session (pooled, warm instances) is
	// also identical.
	again := run(1)
	if !reflect.DeepEqual(one, again) {
		t.Errorf("estimate changed between runs:\nfirst: %+v\nagain: %+v", one, again)
	}
}

// TestSimulateRoutesThroughSampler pins that WithSampling changes
// Simulate's path: the returned stats are the estimate's rendering
// (identical to SimulateSampled's Stats), not an exact run.
func TestSimulateRoutesThroughSampler(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	w, _ := workload.ByName("li")
	so := samplingTestOpts()

	est, err := sess.SimulateSampled(ctx, w, session.WithSamplingOptions(so))
	if err != nil {
		t.Fatal(err)
	}
	viaSimulate, err := sess.Simulate(ctx, w, session.WithSamplingOptions(so))
	if err != nil {
		t.Fatal(err)
	}
	if viaSimulate != est.Stats {
		t.Errorf("Simulate(WithSampling) = %+v\nwant %+v", viaSimulate, est.Stats)
	}
}

// TestSampledTargetCIDensifies pins adaptive densification: demanding a
// tighter CI than the initial sparse plan delivers makes the sampler
// measure more intervals, and the final estimate reports a CI no wider
// than the target (or a full census).
func TestSampledTargetCIDensifies(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	w, _ := workload.ByName("go")

	loose, err := sess.SimulateSampled(ctx, w,
		session.WithSamplingOptions(sample.Options{Interval: 4000, Warmup: 1000, Period: 8}))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := sess.SimulateSampled(ctx, w,
		session.WithSamplingOptions(sample.Options{
			Interval: 4000, Warmup: 1000, Period: 8,
			TargetCI: loose.RelCI * 0.9,
		}))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Measured <= loose.Measured {
		t.Errorf("target CI %.4f did not densify: measured %d, loose plan measured %d",
			loose.RelCI*0.9, tight.Measured, loose.Measured)
	}
	if tight.RelCI > loose.RelCI*0.9 && tight.Measured < tight.Intervals {
		t.Errorf("final RelCI %.4f misses target %.4f with %d/%d intervals measured",
			tight.RelCI, loose.RelCI*0.9, tight.Measured, tight.Intervals)
	}
}

// TestCollectSampledMixedBatch pins CollectSampled's contract: Timing
// jobs come back with estimates and rendered stats, non-Timing jobs run
// exactly, and results keep submission order.
func TestCollectSampledMixedBatch(t *testing.T) {
	ctx := context.Background()
	sess := session.New()
	li, _ := workload.ByName("li")
	goW, _ := workload.ByName("go")

	timing := func(w workload.Spec, scheme emu.Scheme) session.Job {
		cfg := ooo.DefaultConfig()
		cfg.Emu = session.EmuConfigFor(core.Full, scheme)
		return session.Job{
			Workload: w, Scale: 1,
			Build:   session.BuildOptionsFor(core.Full),
			Kind:    runner.Timing,
			Machine: cfg,
		}
	}
	functional := func(w workload.Spec, scheme emu.Scheme) session.Job {
		return session.Job{
			Workload: w, Scale: 1,
			Build: session.BuildOptionsFor(core.Full),
			Kind:  runner.Functional,
			Emu:   session.EmuConfigFor(core.Full, scheme),
		}
	}

	jobs := []session.Job{
		timing(li, emu.ElimLVMStack),
		functional(goW, emu.ElimLVMStack),
		timing(goW, emu.ElimOff),
	}

	results, err := sess.CollectSampled(ctx, jobs, samplingTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, res := range results {
		if res.Index != i {
			t.Errorf("result %d has index %d", i, res.Index)
		}
	}
	if results[0].Sampled == nil || results[2].Sampled == nil {
		t.Error("timing results missing sampled estimates")
	}
	if results[1].Sampled != nil {
		t.Error("functional result carries a sampled estimate")
	}
	if results[0].Timing != results[0].Sampled.Stats {
		t.Error("timing stats do not match the estimate's rendering")
	}
	if results[1].Func.Original() == 0 {
		t.Error("functional job did not run")
	}
}

// TestSampledFrontDoorsCheckMachine sends the sampler's front doors
// machines it cannot run: two contexts, a 65-entry LVM-Stack and a
// negative window. Each answers an error that names the problem, before
// any build, where they used to panic in a worker and end the process.
func TestSampledFrontDoorsCheckMachine(t *testing.T) {
	ctx := context.Background()
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()), session.WithWorkers(2))
	li, _ := workload.ByName("li")
	plan := session.WithSamplingOptions(samplingTestOpts())

	if _, err := sess.SimulateSampled(ctx, li, plan, session.WithContexts(2)); err == nil ||
		!strings.Contains(err.Error(), "single-context") {
		t.Errorf("SimulateSampled at 2 contexts: err = %v, want the single-context error", err)
	}
	deep := ooo.DefaultConfig()
	deep.Emu.DVI.StackDepth = 65
	if _, err := sess.SimulateSampled(ctx, li, plan, session.WithMachineConfig(deep)); err == nil ||
		!strings.Contains(err.Error(), "stack_depth") {
		t.Errorf("SimulateSampled with stack depth 65: err = %v, want a stack_depth error", err)
	}
	good := ooo.DefaultConfig()
	bad := ooo.DefaultConfig()
	bad.WindowSize = -1
	jobs := []session.Job{
		{Label: "good", Workload: li, Scale: 1, Build: session.BuildOptionsFor(core.Full), Kind: runner.Timing, Machine: good},
		{Label: "negative window", Workload: li, Scale: 1, Build: session.BuildOptionsFor(core.Full), Kind: runner.Timing, Machine: bad},
	}
	if _, err := sess.CollectSampled(ctx, jobs, samplingTestOpts()); err == nil ||
		!strings.Contains(err.Error(), "negative window") || !strings.Contains(err.Error(), "window_size") {
		t.Errorf("CollectSampled with window -1: err = %v, want an error naming the job and window_size", err)
	}
	if n := rc.count.Load(); n != 0 {
		t.Errorf("%d builds ran before the machine checks failed, want 0", n)
	}
}

// TestSampledFrontDoorsRefuseTrace sends the sampler's front doors a
// traced machine. Every interval job would emit into its one trace
// buffer at once, and the buffer has no lock; each front door answers
// sample.ErrTraced instead, before any build.
func TestSampledFrontDoorsRefuseTrace(t *testing.T) {
	ctx := context.Background()
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()), session.WithWorkers(4))
	compress, _ := workload.ByName("compress")
	traced := ooo.DefaultConfig()
	traced.MaxInsts = 200_000
	traced.Trace = obs.NewPipeBuffer(0)

	if _, err := sess.SimulateSampled(ctx, compress, session.WithMachineConfig(traced),
		session.WithSampling(4000, 1000, 0)); !errors.Is(err, sample.ErrTraced) {
		t.Errorf("SimulateSampled on a traced machine: err = %v, want sample.ErrTraced", err)
	}
	jobs := []session.Job{{Label: "traced", Workload: compress, Scale: 1,
		Build: session.BuildOptionsFor(core.Full), Kind: runner.Timing, Machine: traced}}
	if _, err := sess.CollectSampled(ctx, jobs, samplingTestOpts()); !errors.Is(err, sample.ErrTraced) ||
		!strings.Contains(err.Error(), "traced") {
		t.Errorf("CollectSampled on a traced machine: err = %v, want sample.ErrTraced naming the job", err)
	}
	if n := rc.count.Load(); n != 0 {
		t.Errorf("%d builds ran before the trace checks failed, want 0", n)
	}
}

// groupGrid is an interleaved CollectSampled batch over one workload:
// four timing jobs on one scan key that differ in the physical
// registers, width, ports and window the figure sweeps vary; two on a
// second key (no elimination, so another emulator configuration); one
// on a third (a shorter instruction cap); and a functional job. groupA
// indexes the first key's jobs.
func groupGrid(maxInsts uint64) (jobs []session.Job, groupA []int) {
	w, _ := workload.ByName("go")
	build := session.BuildOptionsFor(core.Full)
	timing := func(label string, scheme emu.Scheme, tweak func(*ooo.Config)) session.Job {
		cfg := ooo.DefaultConfig()
		cfg.Emu = session.EmuConfigFor(core.Full, scheme)
		cfg.MaxInsts = maxInsts
		tweak(&cfg)
		return session.Job{Label: label, Workload: w, Scale: 1, Build: build, Kind: runner.Timing, Machine: cfg}
	}
	jobs = []session.Job{
		timing("a regs", emu.ElimLVMStack, func(c *ooo.Config) { c.PhysRegs = 40 }),
		timing("b base", emu.ElimOff, func(*ooo.Config) {}),
		{Label: "functional", Workload: w, Scale: 1, Build: build, Kind: runner.Functional,
			Emu: session.EmuConfigFor(core.Full, emu.ElimLVMStack)},
		timing("a width", emu.ElimLVMStack, func(c *ooo.Config) { c.IssueWidth = 2 }),
		timing("a ports", emu.ElimLVMStack, func(c *ooo.Config) { c.CachePorts = 1 }),
		timing("b regs", emu.ElimOff, func(c *ooo.Config) { c.PhysRegs = 40 }),
		timing("a window", emu.ElimLVMStack, func(c *ooo.Config) { c.WindowSize = 16 }),
		timing("c shorter", emu.ElimLVMStack, func(c *ooo.Config) { c.MaxInsts = maxInsts * 3 / 4 }),
	}
	return jobs, []int{0, 3, 4, 6}
}

// TestCollectSampledSharedScanMatchesSolo pins that a shared scan gives
// each job the estimate it gets alone: at one and eight workers, at a
// target CI that ends every job after one round and at one that sends
// half of a group to a denser round, and with half of a group answered
// from the store. Members of a group run their intervals concurrently
// from the same checkpoints, which the race detector watches here.
func TestCollectSampledSharedScanMatchesSolo(t *testing.T) {
	ctx := context.Background()
	jobs, groupA := groupGrid(80_000)
	so := samplingTestOpts()

	simulateSampled := func(sess *session.Session, j session.Job, so sample.Options) sample.Estimate {
		t.Helper()
		est, err := sess.SimulateSampled(ctx, j.Workload, session.WithLabel(j.Label),
			session.WithMachineConfig(j.Machine), session.WithSamplingOptions(so))
		if err != nil {
			t.Fatalf("%s alone: %v", j.Label, err)
		}
		return est
	}
	solo := func(so sample.Options) map[int]sample.Estimate {
		sess := session.New()
		out := map[int]sample.Estimate{}
		for i, j := range jobs {
			if j.Kind == runner.Timing {
				out[i] = simulateSampled(sess, j, so)
			}
		}
		return out
	}
	oneRound := solo(so)

	// A target between the second and third of group A's one-round CIs
	// sends two of its members to a denser round and lets two stop.
	var cis []float64
	for _, i := range groupA {
		cis = append(cis, oneRound[i].RelCI)
	}
	sort.Float64s(cis)
	if cis[1] == cis[2] {
		t.Fatalf("group A's CIs %v do not split", cis)
	}
	split := so
	split.TargetCI = (cis[1] + cis[2]) / 2
	denser := solo(split)
	more := 0
	for _, i := range groupA {
		if denser[i].Measured > oneRound[i].Measured {
			more++
		}
	}
	if more != 2 {
		t.Fatalf("target CI %.4f sent %d of group A's 4 members to a second round, want 2", split.TargetCI, more)
	}

	check := func(name string, sess *session.Session, so sample.Options, want map[int]sample.Estimate) {
		t.Helper()
		results, err := sess.CollectSampled(ctx, jobs, so)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, res := range results {
			if res.Index != i {
				t.Errorf("%s: result %d has index %d", name, i, res.Index)
			}
			if jobs[i].Kind != runner.Timing {
				if res.Sampled != nil || res.Func.Original() == 0 {
					t.Errorf("%s: %s did not run exactly", name, jobs[i].Label)
				}
				continue
			}
			if res.Sampled == nil || !reflect.DeepEqual(*res.Sampled, want[i]) {
				t.Errorf("%s: %s: grouped estimate differs from its solo run:\n got %+v\nwant %+v",
					name, jobs[i].Label, res.Sampled, want[i])
			} else if res.Timing != res.Sampled.Stats {
				t.Errorf("%s: %s: timing stats are not the estimate's rendering", name, jobs[i].Label)
			}
		}
	}
	for _, workers := range []int{1, 8} {
		check("one round", session.New(session.WithWorkers(workers)), so, oneRound)
		check("split rounds", session.New(session.WithWorkers(workers)), split, denser)
	}

	st, err := store.Open(store.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sess := session.New(session.WithStore(st), session.WithWorkers(2))
	for _, i := range groupA[:2] {
		simulateSampled(sess, jobs[i], split)
	}
	before := st.Stats()
	check("half stored", sess, split, denser)
	if hits := st.Stats().Hits - before.Hits; hits != 2 {
		t.Errorf("the store answered %d plans, want group A's 2 stored ones", hits)
	}

	// A register-file class (see package sample): members that differ
	// only in PhysRegs, submitted before their leader. The leader's file
	// (128) never fills; its peak M over all intervals bounds every
	// interval's. A member at M+1 and an exact duplicate of the leader
	// are answered from its runs on every interval; one at 34 registers,
	// below every interval's peak, is simulated on each.
	leader := jobs[groupA[0]]
	leader.Label, leader.Machine.PhysRegs = "class leader", 128
	peak := simulateSampled(session.New(), leader, so).Stats.MaxPhysInUse
	if peak >= leader.Machine.PhysRegs {
		t.Fatalf("the leader's %d-register file filled", leader.Machine.PhysRegs)
	}
	member := func(label string, phys int) session.Job {
		j := leader
		j.Label, j.Machine.PhysRegs = label, phys
		return j
	}
	// solo and check read jobs.
	jobs = []session.Job{member("class below", 34), member("class above", peak+1), leader, member("class duplicate", 128)}
	classSolo := solo(so)
	for _, workers := range []int{1, 8} {
		sess := session.New(session.WithWorkers(workers))
		check(fmt.Sprintf("class at %d workers", workers), sess, so, classSolo)
		if workers > 1 {
			continue // which followers find their leader finished varies
		}
		ps := sess.PoolStats()
		if taken, want := ps.MachineReuse+ps.MachineFresh, 2*int64(classSolo[2].Measured); taken != want {
			t.Errorf("the class took %d machines, want %d: the leader's and the 34-register member's intervals",
				taken, want)
		}
	}
}

// TestCollectSampledScansOncePerGroup counts the sampler's spans: a grid
// of N timing jobs over K scan keys, each done after one round, scans
// K times, not N times, and still aggregates every job.
func TestCollectSampledScansOncePerGroup(t *testing.T) {
	var (
		mu     sync.Mutex
		counts = map[string]int{}
	)
	rec := obs.NewRecorder(1)
	rec.OnRecord = func(root *obs.Span) {
		mu.Lock()
		defer mu.Unlock()
		root.Visit(func(s *obs.Span) { counts[s.Name()]++ })
	}
	ctx := obs.WithRecorder(context.Background(), rec)
	jobs, _ := groupGrid(40_000)

	if _, err := session.New().CollectSampled(ctx, jobs, samplingTestOpts()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts["scan"] != 3 || counts["sample"] != 3 {
		t.Errorf("7 timing jobs on 3 scan keys ran %d scans in %d sampler spans, want 3 and 3",
			counts["scan"], counts["sample"])
	}
	if counts["aggregate"] != 7 {
		t.Errorf("%d aggregations, want one per timing job (7)", counts["aggregate"])
	}
}
