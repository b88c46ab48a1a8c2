// Benchmarks: one per table and figure of the paper's evaluation, plus the
// ablations from DESIGN.md §7. Each runs its experiment at a reduced scale
// per iteration and reports the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates (small versions of) every result. cmd/dvibench produces the
// full-scale tables recorded in EXPERIMENTS.md.
package dvi_test

import (
	"context"
	"io"
	"strconv"
	"strings"
	"testing"

	"dvi"
	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/harness"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/workload"
)

// benchOpts are per-iteration experiment sizes: large enough for stable
// shapes, small enough for tolerable -bench runtimes.
func benchOpts() harness.Options {
	return harness.Options{Scale: 1, MaxInsts: 60_000, SweepMaxInsts: 25_000}
}

// report runs the selected figures through harness.Report on a fresh
// session, as one batch, and returns their tables (one per figure, in
// registry order) and the batch's results.
func report(b *testing.B, ids ...string) ([]harness.Table, harness.ResultSet) {
	b.Helper()
	opt := benchOpts()
	figs, rs, err := harness.Report(context.Background(), harness.NewSession(opt, nil), opt, ids)
	if err != nil {
		b.Fatal(err)
	}
	tabs := make([]harness.Table, len(figs))
	for i, f := range figs {
		tabs[i] = f.Tables[0]
	}
	return tabs, rs
}

func firstPct(b *testing.B, s string) float64 {
	b.Helper()
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("bad percent %q", s)
	}
	return v
}

// BenchmarkFig02MachineConfig renders the machine configuration table.
func BenchmarkFig02MachineConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t, _ := report(b, "fig2"); len(t[0].Rows) == 0 {
			b.Fatal("empty config")
		}
	}
}

// BenchmarkFig03Characterization regenerates the benchmark
// characterization table (functional runs of all seven programs).
func BenchmarkFig03Characterization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t, _ := report(b, "fig3"); len(t[0].Rows) != 7 {
			b.Fatal("wrong row count")
		}
	}
}

// suiteIPC is the suite-mean IPC of the fig5 grid's runs at one register
// file size and DVI level, summed in grid order as the figure does.
func suiteIPC(res []runner.Result, regs int, level core.Level) float64 {
	var sum float64
	n := 0
	for _, r := range res {
		if r.Job.Machine.PhysRegs == regs && r.Job.Machine.Emu.DVI.Level == level {
			sum += r.Timing.IPC()
			n++
		}
	}
	return sum / float64(n)
}

// BenchmarkFig05RegfileIPC sweeps register file sizes across the three DVI
// levels (reduced grid) and reports the IPC recovered by DVI at the
// smallest file, from the grid's results rather than the table's rounded
// cells.
func BenchmarkFig05RegfileIPC(b *testing.B) {
	saved := harness.Fig5Sizes
	harness.Fig5Sizes = []int{34, 50, 64, 96}
	defer func() { harness.Fig5Sizes = saved }()
	var gain float64
	for i := 0; i < b.N; i++ {
		_, rs := report(b, "fig5")
		gain = suiteIPC(rs["fig5"], 34, core.Full)/suiteIPC(rs["fig5"], 34, core.None) - 1
	}
	b.ReportMetric(100*gain, "%IPC-gain@34regs")
}

// BenchmarkFig06RegfilePerformance runs the reduced sweep and reports the
// peak register file size with DVI (the paper's 64 -> 50 headline).
func BenchmarkFig06RegfilePerformance(b *testing.B) {
	saved := harness.Fig5Sizes
	harness.Fig5Sizes = []int{34, 42, 50, 58, 64, 72, 96}
	defer func() { harness.Fig5Sizes = saved }()
	var peakNote string
	for i := 0; i < b.N; i++ {
		t, _ := report(b, "fig6")
		peakNote = t[0].Notes[0]
	}
	b.Logf("fig6: %s", peakNote)
}

// BenchmarkFig09Eliminated regenerates the save/restore elimination table
// and reports the suite-average LVM-Stack elimination percentage (the
// paper's 46.5%).
func BenchmarkFig09Eliminated(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		t, _ := report(b, "fig9")
		avg = firstPct(b, t[0].Rows[len(t[0].Rows)-1][2])
	}
	b.ReportMetric(avg, "%s/r-eliminated")
}

// BenchmarkFig10IPCSpeedup regenerates the elimination speedup table and
// reports the best per-benchmark LVM-Stack gain (the paper's "up to 5%").
func BenchmarkFig10IPCSpeedup(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		t, _ := report(b, "fig10")
		best = 0
		for _, row := range t[0].Rows {
			if v := firstPct(b, row[3]); v > best {
				best = v
			}
		}
	}
	b.ReportMetric(best, "%best-speedup")
}

// BenchmarkFig11PortSensitivity regenerates the cache bandwidth
// sensitivity table.
func BenchmarkFig11PortSensitivity(b *testing.B) {
	var onePort float64
	for i := 0; i < b.N; i++ {
		t, _ := report(b, "fig11")
		onePort = firstPct(b, t[0].Rows[0][2]) // gcc, 4-way, 1 port
	}
	b.ReportMetric(onePort, "%gcc-4w-1port")
}

// BenchmarkFig12ContextSwitch regenerates the context switch table and
// reports the full-DVI average reduction (the paper's 51%).
func BenchmarkFig12ContextSwitch(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		t, _ := report(b, "fig12")
		avg = firstPct(b, t[0].Rows[len(t[0].Rows)-1][2])
	}
	b.ReportMetric(avg, "%switch-reduction")
}

// BenchmarkFig13EDVIOverhead regenerates the annotation overhead table and
// reports the worst dynamic instruction overhead.
func BenchmarkFig13EDVIOverhead(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		t, _ := report(b, "fig13")
		worst = 0
		for _, row := range t[0].Rows {
			if v := firstPct(b, row[1]); v > worst {
				worst = v
			}
		}
	}
	b.ReportMetric(worst, "%worst-dyn-overhead")
}

// BenchmarkAblationStackDepth sweeps the LVM-Stack depth.
func BenchmarkAblationStackDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "ablation-stack")
	}
}

// BenchmarkAblationKillPlacement compares E-DVI encoding densities.
func BenchmarkAblationKillPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "ablation-kills")
	}
}

// BenchmarkAblationWrongPath measures wrong-path fetch modelling cost.
func BenchmarkAblationWrongPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, "ablation-wrongpath")
	}
}

// BenchmarkStep measures the functional emulator's per-instruction cost.
// The program is re-run on the same warm emulator (ResetFor zeroes the
// memory in place), so the steady-state loop allocates nothing; the
// allocs/op column is part of the result and must stay 0 (the regression
// tests in internal/emu and internal/ooo enforce it).
func BenchmarkStep(b *testing.B) {
	w, _ := workload.ByName("compress")
	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		b.Fatal(err)
	}
	cfg := emu.Config{DVI: core.DefaultConfig(), Scheme: emu.ElimLVMStack}
	e := emu.New(pr, img, cfg)
	if err := e.Run(0); err != nil {
		b.Fatal(err) // warm memory pages and buffer capacities
	}
	e.ResetFor(pr, img, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Halted {
			e.ResetFor(pr, img, cfg)
		}
		e.Step()
	}
}

// BenchmarkMachineCycle measures the out-of-order pipeline's per-cycle
// cost on a warm, reused machine (one op = one bounded simulation).
// Steady state allocates nothing.
func BenchmarkMachineCycle(b *testing.B) {
	w, _ := workload.ByName("gcc")
	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		b.Fatal(err)
	}
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 100_000
	m := ooo.New(pr, img, cfg)
	if _, err := m.Run(); err != nil {
		b.Fatal(err) // warm pages, ring buffers and victim lists
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m.Reset(pr, img, cfg)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		cycles += st.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycle/s")
}

// BenchmarkSimulateInterp runs the full timing simulation of the li
// interpreter workload end to end on a reused machine — the shape of the
// dvid daemon's /v1/simulate hot path once the build cache has the
// binary. Steady state allocates nothing.
func BenchmarkSimulateInterp(b *testing.B) {
	w, _ := workload.ByName("li")
	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		b.Fatal(err)
	}
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 200_000
	m := ooo.New(pr, img, cfg)
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		m.Reset(pr, img, cfg)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		committed += st.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkSimulatorThroughput measures raw simulator speed in simulated
// instructions per second (the reproduction's own engineering metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workload.ByName("gcc")
	pr, img, err := workload.CompileSpec(w, 50, workload.BuildOptions{EDVI: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		cfg := ooo.DefaultConfig()
		cfg.MaxInsts = 500_000
		m := ooo.New(pr, img, cfg)
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += st.Committed
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkEmulatorThroughput measures the functional emulator.
func BenchmarkEmulatorThroughput(b *testing.B) {
	w, _ := workload.ByName("compress")
	pr, img, err := workload.CompileSpec(w, 50, workload.BuildOptions{EDVI: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var total uint64
	for i := 0; i < b.N; i++ {
		e := emu.New(pr, img, emu.Config{DVI: core.DefaultConfig(), Scheme: emu.ElimLVMStack})
		if err := e.Run(1_000_000); err != nil && err != emu.ErrBudget {
			b.Fatal(err)
		}
		total += e.Stats.Total
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkFullReport regenerates the complete report (what cmd/dvibench
// does), discarding the output.
func BenchmarkFullReport(b *testing.B) {
	saved := harness.Fig5Sizes
	harness.Fig5Sizes = []int{34, 64, 96}
	defer func() { harness.Fig5Sizes = saved }()
	opt := harness.Options{Scale: 1, MaxInsts: 25_000, SweepMaxInsts: 12_000}
	for i := 0; i < b.N; i++ {
		if err := dvi.RunAllExperiments(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampledReport regenerates the same reduced report in sampled
// mode: timing figures are estimated from checkpointed intervals instead
// of exact detailed simulation. Compare against BenchmarkFullReport for
// the sampling speedup at this scale.
func BenchmarkSampledReport(b *testing.B) {
	saved := harness.Fig5Sizes
	harness.Fig5Sizes = []int{34, 64, 96}
	defer func() { harness.Fig5Sizes = saved }()
	opt := harness.Options{Scale: 1, MaxInsts: 25_000, SweepMaxInsts: 12_000}
	opt.Sampling = &sample.Options{Interval: 4000, Warmup: 1000, Period: 4}
	for i := 0; i < b.N; i++ {
		if err := dvi.RunAllExperiments(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
