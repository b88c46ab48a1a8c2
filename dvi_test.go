package dvi_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dvi"
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
}

func TestFacadeSimulateContexts(t *testing.T) {
	w, ok := dvi.WorkloadByName("li")
	if !ok {
		t.Fatal("li workload missing")
	}
	sess := dvi.NewSession()
	agg, ctxStats, err := sess.SimulateContexts(context.Background(), w,
		dvi.WithContexts(2), dvi.WithFetchPolicy(dvi.FetchICOUNT),
		dvi.WithMaxInsts(30_000))
	if err != nil {
		t.Fatal(err)
	}
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
	_, single, err := sess.SimulateContexts(context.Background(), w, dvi.WithMaxInsts(30_000))
	if err != nil {
		t.Fatal(err)
	}
	if single != nil {
		t.Errorf("single-context breakdown = %v, want nil", single)
	}

	// Sampling is single-context; the multi-context front door rejects it.
	if _, _, err := sess.SimulateContexts(context.Background(), w,
		dvi.WithContexts(2), dvi.WithSampling(4000, 1000, 0)); err == nil {
		t.Error("SimulateContexts accepted a sampling request")
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
	cfg.Contexts = 2
	if _, err := dvi.SimulateSampled(w, 1, cfg, dvi.SamplingOptions{}); err == nil {
		t.Error("SimulateSampled accepted a 2-context machine")
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
	eng := dvi.NewRunner(dvi.RunnerOptions{Workers: 4})
	w, _ := dvi.WorkloadByName("gcc")
	cfg := dvi.DefaultMachineConfig()
	cfg.MaxInsts = 20_000
	res, err := eng.Run(context.Background(), []dvi.RunnerJob{
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
	if _, misses := eng.Cache().Stats(); misses != 1 {
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
