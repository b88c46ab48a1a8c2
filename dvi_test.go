package dvi_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"dvi"
	"dvi/internal/obs"
	"dvi/internal/sample"
)

func TestFacadeSimulate(t *testing.T) {
	w, ok := dvi.WorkloadByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 100_000
	stats, err := dvi.Simulate(w, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IPC() <= 0.3 {
		t.Errorf("IPC = %.2f", stats.IPC())
	}
	if stats.ElimSaves == 0 {
		t.Error("full-DVI machine eliminated no saves on gcc")
	}

	// A machine that cannot run is refused before any build.
	cache := dvi.DefaultSession().Cache()
	_, before := cache.Stats()
	bad := cfg
	bad.WindowSize = -1
	if _, err := dvi.Simulate(w, 7, bad); err == nil || !strings.Contains(err.Error(), "window_size") {
		t.Errorf("Simulate with window -1: err = %v, want a window_size error", err)
	}
	if _, after := cache.Stats(); after != before {
		t.Errorf("a refused machine compiled %d binaries", after-before)
	}
}

func TestFacadeSimulateContexts(t *testing.T) {
	w, ok := dvi.WorkloadByName("li")
	if !ok {
		t.Fatal("li workload missing")
	}
	sess := dvi.NewSession()
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 30_000
	smt := cfg
	smt.Contexts, smt.FetchPolicy = 2, dvi.FetchICOUNT
	job := func(cfg dvi.MachineConfig) dvi.RunnerJob {
		return dvi.RunnerJob{Workload: w, Scale: 1, Build: dvi.BuildOptionsFor(cfg.Emu.DVI.Level),
			Kind: dvi.JobTiming, Machine: cfg}
	}
	res, err := sess.Collect(context.Background(), []dvi.RunnerJob{job(smt), job(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	agg, ctxStats := res[0].Timing, res[0].CtxStats
	if len(ctxStats) != 2 {
		t.Fatalf("%d per-context stats, want 2", len(ctxStats))
	}
	var sum uint64
	for i, cs := range ctxStats {
		if cs.Committed == 0 {
			t.Errorf("ctx %d committed nothing", i)
		}
		sum += cs.Committed
	}
	if sum != agg.Committed {
		t.Errorf("per-context commits sum to %d, aggregate %d", sum, agg.Committed)
	}

	// Single-context machines answer with a nil breakdown, matching the
	// wire format's omitted ctx_stats.
	if single := res[1].CtxStats; single != nil {
		t.Errorf("single-context breakdown = %v, want nil", single)
	}
}

func TestFacadeSimulateSampled(t *testing.T) {
	w, ok := dvi.WorkloadByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 100_000
	exact, err := dvi.Simulate(w, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := dvi.SimulateSampled(w, 1, cfg, dvi.SamplingOptions{Interval: 4000, Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if est.Measured == 0 || est.RelCI <= 0 {
		t.Fatalf("estimate %+v carries no sample plan or error bound", est)
	}
	if diff := est.IPC - exact.IPC(); diff > est.CIHalfWidth || -diff > est.CIHalfWidth {
		t.Errorf("sampled IPC %.4f vs exact %.4f exceeds CI half-width %.4f",
			est.IPC, exact.IPC(), est.CIHalfWidth)
	}
	if est.DetailedInsts >= est.TotalInsts {
		t.Errorf("sampler simulated %d of %d instructions in detail — no savings",
			est.DetailedInsts, est.TotalInsts)
	}
	// Sampling is single-context: a 2-context machine is an error, not a
	// panic in a worker.
	smt := cfg
	smt.Contexts = 2
	if _, err := dvi.SimulateSampled(w, 1, smt, dvi.SamplingOptions{}); err == nil {
		t.Error("SimulateSampled accepted a 2-context machine")
	}
	// Every interval job would write into a machine's one trace sink.
	cfg.Trace = obs.NewPipeBuffer(0)
	if _, err := dvi.SimulateSampled(w, 1, cfg, dvi.SamplingOptions{}); !errors.Is(err, sample.ErrTraced) {
		t.Errorf("SimulateSampled on a traced machine: err = %v, want sample.ErrTraced", err)
	}
}

func TestFacadeEmulate(t *testing.T) {
	w, _ := dvi.WorkloadByName("compress")
	e, err := dvi.Emulate(w, 1, dvi.EmulatorConfig{DVI: dvi.DefaultDVIConfig(), Scheme: dvi.ElimLVMStack})
	if err != nil {
		t.Fatal(err)
	}
	if e.Checksum == 0 {
		t.Error("no checksum")
	}
}

func TestFacadeBuildAndRewrite(t *testing.T) {
	w, _ := dvi.WorkloadByName("li")
	pr, img, err := dvi.Build(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if img.TextWords() == 0 {
		t.Fatal("empty image")
	}
	n, err := dvi.InsertKills(pr, dvi.RewriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("rewriter inserted nothing")
	}
	img2, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	if img2.TextWords() != img.TextWords()+n {
		t.Errorf("code grew by %d, want %d", img2.TextWords()-img.TextWords(), n)
	}

	// Build hands out a private copy: the rewrite above reached neither
	// a later Build nor the shared build cache.
	again, againImg, err := dvi.Build(w, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cached, cachedImg, err := dvi.DefaultSession().Cache().Get(context.Background(), w, 1, dvi.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again == pr || cached == pr || cached == again {
		t.Error("Build returned shared artifacts")
	}
	if againImg.TextWords() != img.TextWords() || cachedImg.TextWords() != img.TextWords() {
		t.Errorf("rewritten program leaked: later builds hold %d and %d words, want %d",
			againImg.TextWords(), cachedImg.TextWords(), img.TextWords())
	}
}

// TestFacadeOneShotsDeriveFlavour pins the E-DVI rule at the one-shots:
// Simulate and Emulate compile the plain binary at none and I-DVI and
// the E-DVI one at full, leaving it in the default Session's cache. Each
// call gets a scale of its own, so only that call can have compiled the
// key it is then asked for.
func TestFacadeOneShotsDeriveFlavour(t *testing.T) {
	w, _ := dvi.WorkloadByName("vortex")
	cache := dvi.DefaultSession().Cache()
	scale := 0
	compiled := func(name string, level dvi.DVILevel, run func(scale int) error) {
		t.Helper()
		scale++
		if err := run(scale); err != nil {
			t.Fatalf("%s at %v: %v", name, level, err)
		}
		_, before := cache.Stats()
		if _, _, err := cache.Get(context.Background(), w, scale, dvi.BuildOptionsFor(level)); err != nil {
			t.Fatal(err)
		}
		if _, after := cache.Stats(); after != before {
			t.Errorf("%s at %v did not compile its level's flavour %v", name, level, dvi.BuildOptionsFor(level))
		}
	}
	for _, level := range []dvi.DVILevel{dvi.DVINone, dvi.DVIIDVI, dvi.DVIFull} {
		cfg := dvi.DefaultMachineConfig()
		cfg.Emu = dvi.EmuConfigFor(level, dvi.ElimLVMStack)
		cfg.MaxInsts = 5_000
		compiled("Simulate", level, func(scale int) error {
			_, err := dvi.Simulate(w, scale, cfg)
			return err
		})
		compiled("Emulate", level, func(scale int) error {
			_, err := dvi.Emulate(w, scale, cfg.Emu)
			return err
		})
	}
}

// TestFacadeSimulateAsmWorkload runs a workload given as assembly: the
// text of li's plain build, on a machine without DVI, commits exactly
// what li does. A workload with neither an IR builder nor assembly is
// an error, not a crashed worker.
func TestFacadeSimulateAsmWorkload(t *testing.T) {
	li, _ := dvi.WorkloadByName("li")
	pr, _, err := dvi.Build(li, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dvi.DefaultMachineConfig()
	cfg.Emu = dvi.EmuConfigFor(dvi.DVINone, dvi.ElimOff)
	cfg.MaxInsts = 10_000
	want, err := dvi.Simulate(li, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dvi.Simulate(dvi.Workload{Name: "li-asm", Asm: dvi.FormatAsm(pr)}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("assembly workload stats differ from li's:\n got %+v\nwant %+v", got, want)
	}
	if _, err := dvi.Simulate(dvi.Workload{}, 1, cfg); err == nil {
		t.Error("Simulate accepted a workload with no program")
	}
}

func TestFacadeContextSwitch(t *testing.T) {
	w, _ := dvi.WorkloadByName("perl")
	pr, img, err := dvi.Build(w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dvi.MeasureContextSwitch(pr, img, dvi.EmulatorConfig{DVI: dvi.DefaultDVIConfig()}, 997, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduction <= 0.1 {
		t.Errorf("reduction = %.2f", res.Reduction)
	}
}

func TestWorkloadsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, w := range dvi.Workloads() {
		names[w.Name] = true
	}
	for _, want := range []string{"compress", "go", "ijpeg", "li", "vortex", "perl", "gcc"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
}

func TestExperimentReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	var buf bytes.Buffer
	opt := dvi.ExperimentOptions{Scale: 1, MaxInsts: 30_000, SweepMaxInsts: 15_000}
	// Run only the cheap pieces through the full-report path by patching
	// down the sweep via options; the full RunAll is exercised by
	// cmd/dvibench and the benchmarks.
	if err := dvi.RunAllExperiments(opt, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig2", "fig3", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		if !strings.Contains(out, "=== "+want) {
			t.Errorf("report missing %s", want)
		}
	}
}

// TestFacadeSimulateCompilesOnce pins the Session redesign's payoff at
// the facade: repeated one-shot dvi.Simulate calls for the same
// (workload, scale, flavour) perform exactly one compile, because they
// share the default Session's single-flight build cache — mirroring the
// service's 64-way request-coalescing load test at the library seam.
func TestFacadeSimulateCompilesOnce(t *testing.T) {
	w, ok := dvi.WorkloadByName("ijpeg")
	if !ok {
		t.Fatal("ijpeg workload missing")
	}
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 20_000

	cache := dvi.DefaultSession().Cache()
	_, missesBefore := cache.Stats()

	const calls = 4
	var first dvi.MachineStats
	for i := 0; i < calls; i++ {
		stats, err := dvi.Simulate(w, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = stats
		} else if stats != first {
			t.Fatalf("call %d stats differ from call 0", i)
		}
	}

	hitsAfter, missesAfter := cache.Stats()
	if got := missesAfter - missesBefore; got != 1 {
		t.Fatalf("%d facade Simulate calls compiled %d times, want exactly 1", calls, got)
	}
	if hitsAfter < calls-1 {
		t.Fatalf("expected at least %d build-cache hits, got %d", calls-1, hitsAfter)
	}
}

func TestFacadeRunnerSharesBuilds(t *testing.T) {
	sess := dvi.NewSession(dvi.WithWorkers(4))
	w, _ := dvi.WorkloadByName("gcc")
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 20_000
	res, err := sess.Collect(context.Background(), []dvi.RunnerJob{
		{Workload: w, Scale: 1, Kind: dvi.JobBuild},
		{Workload: w, Scale: 1, Kind: dvi.JobTiming, Machine: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Image == nil || res[0].Image != res[1].Image {
		t.Error("build cache did not share the compiled image across jobs")
	}
	if res[1].Timing.Committed == 0 {
		t.Error("timing job produced no stats")
	}
	if _, misses := sess.Cache().Stats(); misses != 1 {
		t.Errorf("compiled %d binaries for one key, want 1", misses)
	}
}

func TestFacadeExperimentSubset(t *testing.T) {
	opt := dvi.ExperimentOptions{Scale: 1, MaxInsts: 30_000, SweepMaxInsts: 15_000, Workers: 2}
	sess := dvi.NewSession(dvi.WithWorkers(opt.Workers))
	var buf bytes.Buffer
	if err := dvi.RunExperiments(context.Background(), sess, opt, []string{"fig2", "fig9"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== fig2") || !strings.Contains(out, "=== fig9") {
		t.Errorf("subset report missing selected figures:\n%s", out)
	}
	if strings.Contains(out, "=== fig5") {
		t.Error("subset report contains unselected figure")
	}
	if len(dvi.ExperimentIDs()) < 9 {
		t.Errorf("ExperimentIDs = %v", dvi.ExperimentIDs())
	}
}
