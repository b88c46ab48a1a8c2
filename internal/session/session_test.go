package session_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/runner"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// recordingCompile wraps the real compiler and records every requested
// build flavour, so tests can assert which binaries a run asked for.
type recordingCompile struct {
	mu    sync.Mutex
	keys  []workload.BuildKey
	count atomic.Int64
}

func (rc *recordingCompile) fn() runner.CompileFunc {
	return func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		rc.count.Add(1)
		rc.mu.Lock()
		rc.keys = append(rc.keys, s.Key(scale, opt))
		rc.mu.Unlock()
		return workload.CompileSpec(s, scale, opt)
	}
}

func (rc *recordingCompile) edviRequested() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, k := range rc.keys {
		if k.EDVI {
			return true
		}
	}
	return false
}

// TestBuildOptionsForDerivation pins the centralized E-DVI rule: exactly
// the full-DVI level requests annotated binaries.
func TestBuildOptionsForDerivation(t *testing.T) {
	cases := []struct {
		level core.Level
		edvi  bool
	}{
		{core.None, false},
		{core.IDVI, false},
		{core.Full, true},
	}
	for _, c := range cases {
		if got := session.BuildOptionsFor(c.level).EDVI; got != c.edvi {
			t.Errorf("BuildOptionsFor(%v).EDVI = %v, want %v", c.level, got, c.edvi)
		}
	}
}

// timingJob is a Timing job on cfg whose binary flavour follows the
// machine's DVI level, as every front door derives it.
func timingJob(w workload.Spec, cfg ooo.Config) session.Job {
	return session.Job{Workload: w, Scale: 1, Build: session.BuildOptionsFor(cfg.Emu.DVI.Level),
		Kind: runner.Timing, Machine: cfg}
}

// TestIDVIRunsUseNoEDVIBinaries is the satellite regression: IDVI-level
// runs must never request E-DVI binaries, on any job kind. The I-DVI
// hardware exploits only the calling convention; shipping kill
// annotations to it would measure fetch overhead the hardware ignores.
func TestIDVIRunsUseNoEDVIBinaries(t *testing.T) {
	w, _ := workload.ByName("li")
	jobs := func(level core.Level) []session.Job {
		cfg := ooo.DefaultConfig()
		cfg.MaxInsts = 10_000
		cfg.Emu = session.EmuConfigFor(level, emu.ElimLVMStack)
		bopt := session.BuildOptionsFor(level)
		return []session.Job{
			timingJob(w, cfg),
			{Workload: w, Scale: 1, Build: bopt, Kind: runner.Functional, Emu: cfg.Emu},
			{Workload: w, Scale: 1, Build: bopt, Kind: runner.CtxSwitch, Emu: cfg.Emu,
				Interval: 97, EmuBudget: 10_000},
			{Workload: w, Scale: 1, Build: bopt, Kind: runner.Build},
		}
	}
	for _, level := range []core.Level{core.None, core.IDVI} {
		rc := &recordingCompile{}
		sess := session.New(session.WithCompile(rc.fn()), session.WithWorkers(2))
		if _, err := sess.Collect(context.Background(), jobs(level)); err != nil {
			t.Fatal(err)
		}
		if rc.edviRequested() {
			t.Errorf("%v-level runs requested an E-DVI binary; want plain", level)
		}
	}

	// And the full level must request annotated binaries everywhere.
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()))
	if _, err := sess.Collect(context.Background(), jobs(core.Full)); err != nil {
		t.Fatal(err)
	}
	if !rc.edviRequested() {
		t.Error("full-level runs did not request an E-DVI binary")
	}
}

// TestMachineConfigDerivesFlavour checks the rule also fires when the
// level arrives inside a whole machine config (the facade's
// dvi.Simulate(w, scale, cfg) path).
func TestMachineConfigDerivesFlavour(t *testing.T) {
	w, _ := workload.ByName("compress")
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()))

	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 10_000
	cfg.Emu = session.EmuConfigFor(core.IDVI, emu.ElimOff)
	if _, err := sess.Collect(context.Background(), []session.Job{timingJob(w, cfg)}); err != nil {
		t.Fatal(err)
	}
	if rc.edviRequested() {
		t.Error("IDVI machine config requested an E-DVI binary")
	}
}

// TestSimulateMatchesDirect pins the session path against a hand-rolled
// build-and-run: same flavour, same machine, same statistics.
func TestSimulateMatchesDirect(t *testing.T) {
	w, _ := workload.ByName("gcc")
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 50_000

	sess := session.New()
	out, err := sess.Collect(context.Background(), []session.Job{timingJob(w, cfg)})
	if err != nil {
		t.Fatal(err)
	}

	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ooo.New(pr, img, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := out[0].Timing; got != want {
		t.Fatalf("session timing stats differ from direct run:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentSimulateOneCompile mirrors the service's 64-way
// coalescing load test at the session layer: concurrent identical calls
// share one single-flight compile.
func TestConcurrentSimulateOneCompile(t *testing.T) {
	w, _ := workload.ByName("ijpeg")
	rc := &recordingCompile{}
	sess := session.New(session.WithCompile(rc.fn()), session.WithWorkers(8))
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 20_000

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	stats := make([]ooo.Stats, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := sess.Collect(context.Background(), []session.Job{timingJob(w, cfg)})
			if err != nil {
				errs[i] = err
				return
			}
			stats[i] = out[0].Timing
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if stats[i] != stats[0] {
			t.Fatalf("call %d stats differ", i)
		}
	}
	if got := rc.count.Load(); got != 1 {
		t.Fatalf("%d concurrent identical Collect calls compiled %d times, want 1", n, got)
	}
}

// TestBuildCachedVersusFresh checks the artifact ownership contract:
// every job and cache lookup of one key shares one read-only copy,
// compiled once. (dvi.Build's private copy is pinned at the facade.)
func TestBuildCachedVersusFresh(t *testing.T) {
	w, _ := workload.ByName("li")
	sess := session.New()
	ctx := context.Background()
	build := session.Job{Workload: w, Scale: 1, Kind: runner.Build}

	out, err := sess.Collect(ctx, []session.Job{build, build})
	if err != nil {
		t.Fatal(err)
	}
	pr1, img1 := out[0].Program, out[0].Image
	if out[1].Program != pr1 {
		t.Error("two Build jobs in one batch returned different artifacts")
	}
	if img1 == nil || img1.TextWords() == 0 {
		t.Fatal("empty image")
	}
	pr2, _, err := sess.Cache().Get(ctx, w, 1, workload.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pr2 != pr1 {
		t.Error("a cache lookup returned different artifacts than the Build job")
	}
	if _, misses := sess.Cache().Stats(); misses != 1 {
		t.Errorf("one key compiled %d times, want 1", misses)
	}
}

// buildOnly returns a fast fake compile for pure-orchestration tests: the
// artifacts are placeholders and the jobs are Build-kind, so nothing
// executes them.
func buildOnly(delay func(name string)) runner.CompileFunc {
	return func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		if delay != nil {
			delay(s.Name)
		}
		if strings.HasPrefix(s.Name, "fail") {
			return nil, nil, fmt.Errorf("boom: %s", s.Name)
		}
		return &prog.Program{}, &prog.Image{}, nil
	}
}

// spec makes a distinct synthetic spec per name (distinct build keys).
func spec(name string) workload.Spec { return workload.Spec{Name: name} }

// TestRunStreamsInSubmissionOrder floods a multi-worker session with
// out-of-order completions and checks delivery is still 0..n-1, each
// result carrying its index.
func TestRunStreamsInSubmissionOrder(t *testing.T) {
	sess := session.New(session.WithWorkers(4), session.WithCompile(buildOnly(nil)))
	const n = 24
	jobs := make([]session.Job, n)
	for i := range jobs {
		jobs[i] = session.Job{Workload: spec(fmt.Sprintf("w%02d", i)), Kind: runner.Build}
	}
	var order []int
	err := sess.Run(context.Background(), jobs, func(res session.Result) error {
		order = append(order, res.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("delivered %d results, want %d", len(order), n)
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("result %d delivered at position %d", idx, i)
		}
	}
}

// TestRunStreamsPrefixBeforeBatchCompletes proves streaming is real: with
// job 0 gated, nothing is delivered even though the rest finished; once
// the gate opens, everything arrives in order.
func TestRunStreamsPrefixBeforeBatchCompletes(t *testing.T) {
	gate := make(chan struct{})
	var done atomic.Int64
	compile := buildOnly(func(name string) {
		if name == "slow" {
			<-gate
		}
	})
	progress := func(ev runner.Event) {
		if ev.Phase == runner.JobDone {
			done.Add(1)
		}
	}
	sess := session.New(session.WithWorkers(4), session.WithCompile(compile), session.WithProgress(progress))

	jobs := []session.Job{
		{Workload: spec("slow"), Kind: runner.Build},
		{Workload: spec("fast1"), Kind: runner.Build},
		{Workload: spec("fast2"), Kind: runner.Build},
		{Workload: spec("fast3"), Kind: runner.Build},
	}
	var mu sync.Mutex
	var delivered []int
	errCh := make(chan error, 1)
	go func() {
		errCh <- sess.Run(context.Background(), jobs, func(res session.Result) error {
			mu.Lock()
			delivered = append(delivered, res.Index)
			mu.Unlock()
			return nil
		})
	}()

	// All three fast jobs finish while job 0 is gated...
	deadline := time.Now().Add(5 * time.Second)
	for done.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("fast jobs never finished")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	early := len(delivered)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("delivered %d results before the head of the batch finished", early)
	}
	// ...and open the gate: everything must now stream out in order.
	close(gate)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != 4 {
		t.Fatalf("delivered %d results, want 4", len(delivered))
	}
	for i, idx := range delivered {
		if idx != i {
			t.Fatalf("delivery order %v", delivered)
		}
	}
}

// TestRunToleratesPerJobFailures checks the batch contract: a failing job
// arrives as a Result with Err set (wrapped with its label) and the rest
// of the batch still runs.
func TestRunToleratesPerJobFailures(t *testing.T) {
	sess := session.New(session.WithWorkers(2), session.WithCompile(buildOnly(nil)))
	jobs := []session.Job{
		{Workload: spec("ok1"), Kind: runner.Build},
		{Label: "job-two", Workload: spec("fail2"), Kind: runner.Build},
		{Workload: spec("ok3"), Kind: runner.Build},
	}
	var results []session.Result
	err := sess.Run(context.Background(), jobs, func(res session.Result) error {
		results = append(results, res)
		return nil
	})
	if err != nil {
		t.Fatalf("tolerant Run returned batch error: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("delivered %d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs carry errors: %v, %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("failed job delivered without error")
	}
	if msg := results[1].Err.Error(); !strings.Contains(msg, "job-two") || !strings.Contains(msg, "boom") {
		t.Fatalf("error %q does not carry the label and cause", msg)
	}
}

// TestCollectReturnsLowestIndexFailure pins Collect's failure rule: when
// a later job fails first in time, Collect still returns the failure
// with the lowest index, so a failing batch names the same job at any
// worker count.
func TestCollectReturnsLowestIndexFailure(t *testing.T) {
	for _, workers := range []int{1, 8} {
		earlyFailed := make(chan struct{})
		compile := buildOnly(func(name string) {
			switch name {
			case "fail-early":
				close(earlyFailed)
			case "fail-late":
				// With room to run concurrently, the later job fails
				// first; at one worker it has not started, so give up
				// waiting for it.
				select {
				case <-earlyFailed:
					time.Sleep(20 * time.Millisecond)
				case <-time.After(200 * time.Millisecond):
				}
			}
		})
		sess := session.New(session.WithWorkers(workers), session.WithCompile(compile))
		jobs := []session.Job{
			{Label: "first", Workload: spec("ok"), Kind: runner.Build},
			{Label: "late", Workload: spec("fail-late"), Kind: runner.Build},
			{Label: "early", Workload: spec("fail-early"), Kind: runner.Build},
			{Label: "last", Workload: spec("ok2"), Kind: runner.Build},
		}
		_, err := sess.Collect(context.Background(), jobs)
		if err == nil || !strings.Contains(err.Error(), "late: boom: fail-late") {
			t.Errorf("%d workers: Collect returned %v, want job 1's failure", workers, err)
		}
	}
}

// TestRunEmitErrorCancelsBatch: a non-nil error from the callback aborts
// the stream and is returned verbatim.
func TestRunEmitErrorCancelsBatch(t *testing.T) {
	sess := session.New(session.WithWorkers(2), session.WithCompile(buildOnly(nil)))
	var jobs []session.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, session.Job{Workload: spec(fmt.Sprintf("w%d", i)), Kind: runner.Build})
	}
	stop := errors.New("enough")
	seen := 0
	err := sess.Run(context.Background(), jobs, func(res session.Result) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("Run returned %v, want the emit error", err)
	}
	if seen != 2 {
		t.Fatalf("emit called %d times after cancellation, want 2", seen)
	}
}

// TestRunHonoursCancellation: external context cancellation stops the
// stream with the context's error.
func TestRunHonoursCancellation(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	compile := buildOnly(func(name string) {
		if name == "blocked" {
			<-gate
		}
	})
	sess := session.New(session.WithWorkers(1), session.WithCompile(compile))
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []session.Job{
		{Workload: spec("blocked"), Kind: runner.Build},
		{Workload: spec("never"), Kind: runner.Build},
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- sess.Run(ctx, jobs, func(session.Result) error { return nil })
	}()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestEmulateMatchesFacadeConfig checks a Functional job's flavour/stat
// parity with a direct emulator over the same binary.
func TestEmulateMatchesFacadeConfig(t *testing.T) {
	w, _ := workload.ByName("compress")
	sess := session.New()
	ecfg := session.EmuConfigFor(core.Full, emu.ElimLVMStack)

	out, err := sess.Collect(context.Background(), []session.Job{{Workload: w, Scale: 1,
		Build: session.BuildOptionsFor(ecfg.DVI.Level), Kind: runner.Functional, Emu: ecfg}})
	if err != nil {
		t.Fatal(err)
	}
	got := out[0].Func

	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(pr, img, ecfg)
	if err := e.Run(runner.DefaultEmuBudget); err != nil {
		t.Fatal(err)
	}
	if got != e.Stats {
		t.Fatalf("session Functional stats differ from direct emulator:\n got %+v\nwant %+v", got, e.Stats)
	}
}
