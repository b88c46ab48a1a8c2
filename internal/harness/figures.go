package harness

import (
	"fmt"
	"strings"

	"dvi/internal/cacti"
	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/ooo"
	"dvi/internal/rewrite"
	"dvi/internal/runner"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// ResultSet maps figure IDs to their grid results in submission order.
type ResultSet map[string][]runner.Result

// Figure is one experiment: a declarative job grid plus a renderer that
// turns the grid's results into tables. Separating declaration from
// consumption lets RunAll submit every figure's grid through one shared
// engine and build cache.
type Figure struct {
	// ID is the selection key (cmd/dvibench -figures).
	ID string
	// Title is a one-line description for usage output.
	Title string
	// Needs lists figure IDs whose results Render also consumes (fig6
	// derives from fig5's sweep); their grids run even when only this
	// figure is selected.
	Needs []string
	// Jobs declares the grid. Nil for static or purely derived figures.
	Jobs func(opt Options) []runner.Job
	// Render consumes results (own grid under ID, plus Needs' grids) and
	// produces this figure's tables.
	Render func(opt Options, rs ResultSet) ([]Table, error)
}

// Figures returns every experiment in report order.
func Figures() []Figure {
	return []Figure{
		{ID: "fig2", Title: "machine configuration table", Render: one("fig2", fig2Build)},
		{ID: "fig3", Title: "benchmark characterization", Jobs: fig3Jobs, Render: one("fig3", fig3Build)},
		{ID: "fig5", Title: "IPC vs register file size sweep", Jobs: fig5Jobs, Render: one("fig5", fig5Build)},
		{ID: "fig6", Title: "relative performance vs register file size", Needs: []string{"fig5"},
			Render: one("fig5", fig6Build)},
		{ID: "fig9", Title: "dynamic saves/restores eliminated", Jobs: fig9Jobs, Render: one("fig9", fig9Build)},
		{ID: "fig10", Title: "IPC speedups from save/restore elimination", Jobs: fig10Jobs, Render: one("fig10", fig10Build)},
		{ID: "fig11", Title: "cache bandwidth sensitivity", Jobs: fig11Jobs, Render: one("fig11", fig11Build)},
		{ID: "fig12", Title: "context switch traffic reduction", Jobs: fig12Jobs, Render: one("fig12", fig12Build)},
		{ID: "fig13", Title: "E-DVI annotation overhead", Jobs: fig13Jobs, Render: one("fig13", fig13Build)},
		{ID: "infer", Title: "inferred vs hand-annotated save/restore elimination", Jobs: inferJobs, Render: one("infer", inferBuild)},
		{ID: "smt", Title: "multi-context (SMT) throughput and DVI benefit", Jobs: smtJobs, Render: one("smt", smtBuild)},
		{ID: "ablation-stack", Title: "LVM-Stack depth sweep", Jobs: ablationStackJobs, Render: one("ablation-stack", ablationStackBuild)},
		{ID: "ablation-kills", Title: "kill placement policies", Jobs: ablationKillsJobs, Render: one("ablation-kills", ablationKillsBuild)},
		{ID: "ablation-wrongpath", Title: "wrong-path fetch modelling", Jobs: ablationWrongPathJobs, Render: one("ablation-wrongpath", ablationWrongPathBuild)},
	}
}

// one adapts a single-table builder to the Render signature, feeding it
// the results of grid id (the figure's own, or the one it Needs).
func one(id string, build func(Options, []runner.Result) (Table, error)) func(Options, ResultSet) ([]Table, error) {
	return func(opt Options, rs ResultSet) ([]Table, error) {
		t, err := build(opt, rs[id])
		if err != nil {
			return nil, err
		}
		return []Table{t}, nil
	}
}

// FigureByID finds an experiment.
func FigureByID(id string) (Figure, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// FigureIDs returns every selectable experiment ID in report order.
func FigureIDs() []string {
	var ids []string
	for _, f := range Figures() {
		ids = append(ids, f.ID)
	}
	return ids
}

// ReportIDs returns the nine paper figures RunAll regenerates, in report
// order (the ablations are separate; see AblationIDs).
func ReportIDs() []string {
	return []string{"fig2", "fig3", "fig5", "fig6", "fig9", "fig10", "fig11", "fig12", "fig13"}
}

// AblationIDs returns the ablation study IDs in report order.
func AblationIDs() []string {
	return []string{"ablation-stack", "ablation-kills", "ablation-wrongpath"}
}

// --- job grid helpers ---

// timingJob declares one run on the out-of-order simulator.
func timingJob(label string, s workload.Spec, opt Options, edvi bool, cfg ooo.Config) runner.Job {
	return runner.Job{
		Label:    label,
		Workload: s,
		Scale:    opt.Scale,
		Build:    workload.BuildOptions{EDVI: edvi},
		Kind:     runner.Timing,
		Machine:  cfg,
	}
}

// funcJob declares one run on the functional emulator.
func funcJob(label string, s workload.Spec, opt Options, bopt workload.BuildOptions, cfg emu.Config) runner.Job {
	return runner.Job{
		Label:    label,
		Workload: s,
		Scale:    opt.Scale,
		Build:    bopt,
		Kind:     runner.Functional,
		Emu:      cfg,
	}
}

// --- Figure 2 ---

// fig2Build reproduces the machine configuration table; it has no grid.
func fig2Build(Options, []runner.Result) (Table, error) {
	c := ooo.DefaultConfig()
	h := c.Hierarchy
	return Table{
		ID:     "fig2",
		Title:  "Machine configuration",
		Header: []string{"Parameter", "Value"},
		Rows: [][]string{
			{"Issue Width", fmt.Sprintf("%d", c.IssueWidth)},
			{"Inst. Window", fmt.Sprintf("%d", c.WindowSize)},
			{"Func. Units", fmt.Sprintf("%d int (%d mul/div)", c.IntALUs, c.IntMulDiv)},
			{"Cache Ports", fmt.Sprintf("%d (fully independent)", c.CachePorts)},
			{"L1 D-Cache", fmt.Sprintf("%dKB, %d-way, %d cycle latency", h.L1D.SizeBytes>>10, h.L1D.Assoc, h.L1D.HitLatency)},
			{"L1 I-Cache", fmt.Sprintf("%dKB, %d-way, %d cycle latency", h.L1I.SizeBytes>>10, h.L1I.Assoc, h.L1I.HitLatency)},
			{"L2 Cache", fmt.Sprintf("%dKB, %d-way, %d cycle latency", h.L2.SizeBytes>>10, h.L2.Assoc, h.L2.HitLatency)},
			{"Memory", fmt.Sprintf("%d cycle latency", h.MemLatency)},
			{"Branch Predictor", "16-bit history gshare/bimod combining, BTB, RAS"},
			{"Phys. Registers", fmt.Sprintf("%d (unconstrained; swept in fig5)", c.PhysRegs)},
		},
	}, nil
}

// --- Figure 3 ---

// fig3Jobs declares one baseline functional run per benchmark.
func fig3Jobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, s := range workload.All() {
		jobs = append(jobs, funcJob("fig3 "+s.Name, s, opt,
			workload.BuildOptions{}, emu.Config{DVI: core.Config{Level: core.None}}))
	}
	return jobs
}

// fig3Build renders the characterization table: dynamic instructions, and
// calls, memory references, and saves/restores as a percentage of dynamic
// instructions.
func fig3Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig3",
		Title:  "Benchmark characterization (baseline binaries, functional run)",
		Header: []string{"Benchmark", "Dynamic Inst", "Call Inst", "Mem Inst", "Saves & Restores"},
	}
	for _, r := range res {
		st := r.Func
		t.Rows = append(t.Rows, []string{
			r.Job.Workload.Name,
			u64(st.Original()),
			pct(ratio(st.Calls, st.Original())),
			pct(ratio(st.MemRefs, st.Original())),
			pct(ratio(st.SavesRestores(), st.Original())),
		})
	}
	return t, nil
}

// --- Figures 5 and 6 ---

// fig5Point is one (size, level) IPC measurement.
type fig5Point struct {
	Regs  int
	Level core.Level
	IPC   float64 // unweighted mean over the suite
}

// Fig5Sizes is the register file sweep (the paper's x axis runs 34..96).
var Fig5Sizes = []int{34, 38, 42, 46, 50, 54, 58, 62, 66, 70, 74, 78, 82, 86, 90, 94, 96}

// fig5Jobs declares the (size × level × benchmark) sweep grid.
// Save/restore elimination is off so the register-reclamation effect is
// isolated (§4's subject); E-DVI runs use annotated binaries (their kills
// add fetch overhead but also reclaim callee-saved registers early).
func fig5Jobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, regs := range Fig5Sizes {
		for _, level := range dviLevels {
			for _, s := range workload.All() {
				cfg := timingConfig(level, emu.ElimOff, opt.sweepBudget())
				cfg.PhysRegs = regs
				jobs = append(jobs, timingJob(
					fmt.Sprintf("fig5 %s @%d regs %s", s.Name, regs, level),
					s, opt, session.BuildOptionsFor(level).EDVI, cfg))
			}
		}
	}
	return jobs
}

// fig5Points reduces the sweep grid to per-(size, level) suite-mean IPC
// points. Results arrive in fig5Jobs' declaration order.
func fig5Points(res []runner.Result) ([]fig5Point, error) {
	suite := workload.All()
	if want := len(Fig5Sizes) * len(dviLevels) * len(suite); len(res) != want {
		return nil, fmt.Errorf("fig5: %d results, want %d", len(res), want)
	}
	var points []fig5Point
	idx := 0
	for _, regs := range Fig5Sizes {
		for _, level := range dviLevels {
			var sum float64
			for range suite {
				sum += res[idx].Timing.IPC()
				idx++
			}
			points = append(points, fig5Point{Regs: regs, Level: level, IPC: sum / float64(len(suite))})
		}
	}
	return points, nil
}

// fig5Build renders the sweep table.
func fig5Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig5",
		Title:  "Average IPC vs physical register file size",
		Header: []string{"Regs", "No DVI", "I-DVI", "E-DVI and I-DVI"},
		Notes:  []string{"unweighted arithmetic mean IPC over the 7 benchmarks (paper §4.2)"},
	}
	points, err := fig5Points(res)
	if err != nil {
		return t, err
	}
	ci := anySampled(res)
	if ci {
		t.Header = append(t.Header, "±CI")
		t.Notes = append(t.Notes, sampledNote(res))
	}
	suite := len(workload.All())
	for i, regs := range Fig5Sizes {
		row := []string{fmt.Sprintf("%d", regs)}
		for j := range dviLevels {
			row = append(row, f3(points[i*len(dviLevels)+j].IPC))
		}
		if ci {
			lo := i * len(dviLevels) * suite
			row = append(row, pct(maxRelCI(res[lo:lo+len(dviLevels)*suite]...)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig6Build divides the Figure 5 IPC curves by the CACTI register file
// access time and reports relative performance plus the peak locations
// (the paper's 64-vs-50 result). It renders from fig5's grid results.
func fig6Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig6",
		Title:  "Relative performance (IPC / register file access time) vs size",
		Header: []string{"Regs", "No DVI", "I-DVI", "E-DVI and I-DVI"},
	}
	points, err := fig5Points(res)
	if err != nil {
		return t, err
	}
	model := cacti.Default()
	width := ooo.DefaultConfig().IssueWidth

	perf := map[core.Level]map[int]float64{}
	for _, l := range dviLevels {
		perf[l] = map[int]float64{}
	}
	for _, p := range points {
		perf[p.Level][p.Regs] = model.RelativePerformance(p.IPC, p.Regs, width)
	}
	// Normalize to the no-DVI peak (the paper's horizontal reference).
	base := 0.0
	for _, v := range perf[core.None] {
		if v > base {
			base = v
		}
	}
	if base == 0 {
		return t, fmt.Errorf("fig6: no baseline data")
	}
	peakAt := map[core.Level]int{}
	peakVal := map[core.Level]float64{}
	for _, regs := range Fig5Sizes {
		row := []string{fmt.Sprintf("%d", regs)}
		for _, l := range dviLevels {
			v := perf[l][regs] / base
			row = append(row, f3(v))
			if v > peakVal[l] {
				peakVal[l], peakAt[l] = v, regs
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("peak: No DVI %.3f at %d regs; E+I-DVI %.3f at %d regs", peakVal[core.None], peakAt[core.None], peakVal[core.Full], peakAt[core.Full]),
		fmt.Sprintf("register file size reduction at peak: %.0f%%; performance change: %+.1f%%",
			100*(1-float64(peakAt[core.Full])/float64(peakAt[core.None])),
			100*(peakVal[core.Full]-peakVal[core.None])))
	return t, nil
}

// --- Figure 9 ---

// fig9Schemes are the two elimination schemes measured against the
// ElimOff baseline denominators.
var fig9Schemes = []emu.Scheme{emu.ElimOff, emu.ElimLVM, emu.ElimLVMStack}

// fig9Jobs declares three functional runs per save/restore-active
// benchmark, all on the annotated binary: a no-elimination baseline for
// the denominators, then the LVM and LVM-Stack schemes.
func fig9Jobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, s := range workload.SaveRestoreActive() {
		for _, scheme := range fig9Schemes {
			jobs = append(jobs, funcJob(
				fmt.Sprintf("fig9 %s %s", s.Name, scheme),
				s, opt, workload.BuildOptions{EDVI: true},
				emu.Config{DVI: core.DefaultConfig(), Scheme: scheme}))
		}
	}
	return jobs
}

// fig9Build renders dynamic saves and restores eliminated as a
// percentage of (a) total saves+restores, (b) total memory references,
// and (c) total instructions, for the LVM and LVM-Stack schemes. These
// are program properties, so the functional emulator suffices (paper:
// "independent of the processor configuration").
func fig9Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:    "fig9",
		Title: "Dynamic saves and restores eliminated (E-DVI and I-DVI binaries)",
		Header: []string{"Benchmark",
			"LVM %s/r", "LVM-Stack %s/r",
			"LVM %mem", "LVM-Stack %mem",
			"LVM %inst", "LVM-Stack %inst"},
	}
	var aggSR, aggMem, aggInst [2]float64
	n := 0
	for i := 0; i+2 < len(res); i += 3 {
		base, lvm, stack := res[i].Func, res[i+1].Func, res[i+2].Func
		totSR := base.SavesRestores()
		totMem := base.MemRefs
		totInst := base.Original()

		row := []string{res[i].Job.Workload.Name}
		var frSR, frMem, frInst [2]float64
		for j, st := range []emu.Stats{lvm, stack} {
			elim := st.SavesElim + st.RestoresElim
			frSR[j] = ratio(elim, totSR)
			frMem[j] = ratio(elim, totMem)
			frInst[j] = ratio(elim, totInst)
			aggSR[j] += frSR[j]
			aggMem[j] += frMem[j]
			aggInst[j] += frInst[j]
		}
		row = append(row, pct(frSR[0]), pct(frSR[1]), pct(frMem[0]), pct(frMem[1]), pct(frInst[0]), pct(frInst[1]))
		t.Rows = append(t.Rows, row)
		n++
	}
	t.Rows = append(t.Rows, []string{"average",
		pct(aggSR[0] / float64(n)), pct(aggSR[1] / float64(n)),
		pct(aggMem[0] / float64(n)), pct(aggMem[1] / float64(n)),
		pct(aggInst[0] / float64(n)), pct(aggInst[1] / float64(n))})
	return t, nil
}

// --- Figure 10 ---

// fig10Jobs declares, per benchmark, a no-DVI baseline and the two
// elimination schemes on annotated binaries.
func fig10Jobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, s := range workload.SaveRestoreActive() {
		jobs = append(jobs,
			timingJob("fig10 "+s.Name+" base", s, opt, false, timingConfig(core.None, emu.ElimOff, opt.MaxInsts)),
			timingJob("fig10 "+s.Name+" lvm", s, opt, true, timingConfig(core.Full, emu.ElimLVM, opt.MaxInsts)),
			timingJob("fig10 "+s.Name+" stack", s, opt, true, timingConfig(core.Full, emu.ElimLVMStack, opt.MaxInsts)))
	}
	return jobs
}

// fig10Build renders IPC gains from save/restore elimination: the LVM
// scheme (saves only) and the LVM-Stack scheme against a no-DVI baseline
// on unannotated binaries.
func fig10Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig10",
		Title:  "IPC speedups from dead save/restore elimination",
		Header: []string{"Benchmark", "Base IPC", "LVM (saves)", "LVM-Stack (saves+restores)"},
	}
	ci := anySampled(res)
	if ci {
		t.Header = append(t.Header, "±CI")
		t.Notes = append(t.Notes, sampledNote(res))
	}
	for i := 0; i+2 < len(res); i += 3 {
		base, lvm, stack := res[i].Timing, res[i+1].Timing, res[i+2].Timing
		row := []string{
			res[i].Job.Workload.Name, f2(base.IPC()),
			fmt.Sprintf("%+.1f%%", 100*(lvm.IPC()/base.IPC()-1)),
			fmt.Sprintf("%+.1f%%", 100*(stack.IPC()/base.IPC()-1)),
		}
		if ci {
			row = append(row, pct(maxRelCI(res[i], res[i+1], res[i+2])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// --- Figure 11 ---

var (
	fig11Benchmarks = []string{"gcc", "ijpeg"}
	fig11Widths     = []int{4, 8}
	fig11Ports      = []int{1, 2, 3}
)

// fig11Jobs declares baseline/optimized timing pairs across the
// (width × ports) grid for the paper's two example benchmarks.
func fig11Jobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, name := range fig11Benchmarks {
		s, _ := workload.ByName(name)
		for _, width := range fig11Widths {
			for _, ports := range fig11Ports {
				baseCfg := timingConfig(core.None, emu.ElimOff, opt.MaxInsts)
				baseCfg.IssueWidth, baseCfg.CachePorts = width, ports
				optCfg := timingConfig(core.Full, emu.ElimLVMStack, opt.MaxInsts)
				optCfg.IssueWidth, optCfg.CachePorts = width, ports
				tag := fmt.Sprintf("fig11 %s %dw %dp", name, width, ports)
				jobs = append(jobs,
					timingJob(tag+" base", s, opt, false, baseCfg),
					timingJob(tag+" opt", s, opt, true, optCfg))
			}
		}
	}
	return jobs
}

// fig11Build renders the cache bandwidth sensitivity study: LVM-Stack
// speedup over baseline for 1/2/3 cache ports at 4- and 8-wide issue.
func fig11Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig11",
		Title:  "Cache bandwidth sensitivity of save/restore elimination",
		Header: []string{"Benchmark", "Width", "1 Port", "2 Ports", "3 Ports"},
	}
	ci := anySampled(res)
	if ci {
		t.Header = append(t.Header, "±CI")
		t.Notes = append(t.Notes, sampledNote(res))
	}
	idx := 0
	for _, name := range fig11Benchmarks {
		for _, width := range fig11Widths {
			row := []string{name, fmt.Sprintf("%d-way", width)}
			rowLo := idx
			for range fig11Ports {
				base, st := res[idx].Timing, res[idx+1].Timing
				idx += 2
				row = append(row, fmt.Sprintf("%+.1f%%", 100*(st.IPC()/base.IPC()-1)))
			}
			if ci {
				row = append(row, pct(maxRelCI(res[rowLo:idx]...)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// --- Figure 12 ---

// fig12Jobs declares, per benchmark, context-switch measurements with
// I-DVI only and with full (E-DVI and I-DVI) tracking.
func fig12Jobs(opt Options) []runner.Job {
	budget := opt.MaxInsts
	if budget == 0 {
		budget = 400_000
	}
	var jobs []runner.Job
	for _, s := range workload.SaveRestoreActive() {
		for _, cfg := range []emu.Config{
			{DVI: core.Config{Level: core.IDVI, ABI: isa.DefaultABI()}},
			{DVI: core.DefaultConfig()},
		} {
			jobs = append(jobs, runner.Job{
				Label:     fmt.Sprintf("fig12 %s %s", s.Name, cfg.DVI.Level),
				Workload:  s,
				Scale:     opt.Scale,
				Build:     workload.BuildOptions{EDVI: true},
				Kind:      runner.CtxSwitch,
				Emu:       cfg,
				Interval:  997,
				EmuBudget: budget,
			})
		}
	}
	return jobs
}

// fig12Build renders the reduction in integer registers saved and
// restored at context switch time.
func fig12Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig12",
		Title:  "Context switch saves and restores eliminated",
		Header: []string{"Benchmark", "I-DVI", "E-DVI and I-DVI", "Avg live (full DVI)"},
	}
	var sumI, sumF float64
	n := 0
	for i := 0; i+1 < len(res); i += 2 {
		iRes, fRes := res[i].Switch, res[i+1].Switch
		t.Rows = append(t.Rows, []string{res[i].Job.Workload.Name,
			pct(iRes.Reduction), pct(fRes.Reduction), f2(fRes.AvgLive)})
		sumI += iRes.Reduction
		sumF += fRes.Reduction
		n++
	}
	t.Rows = append(t.Rows, []string{"average", pct(sumI / float64(n)), pct(sumF / float64(n)), ""})
	return t, nil
}

// --- Figure 13 ---

var fig13ICacheKB = []int{32, 64}

// fig13Jobs declares, per benchmark: a plain build (static size), one
// functional run of the annotated binary with DVI off (dynamic kill
// overhead), and baseline/annotated timing pairs at each I-cache size.
func fig13Jobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, s := range workload.All() {
		jobs = append(jobs,
			runner.Job{Label: "fig13 " + s.Name + " plain build", Workload: s, Scale: opt.Scale, Kind: runner.Build},
			funcJob("fig13 "+s.Name+" kills", s, opt,
				workload.BuildOptions{EDVI: true}, emu.Config{DVI: core.Config{Level: core.None}}))
		for _, icacheKB := range fig13ICacheKB {
			for _, edvi := range []bool{false, true} {
				cfg := timingConfig(core.None, emu.ElimOff, opt.MaxInsts)
				cfg.Hierarchy.L1I.SizeBytes = icacheKB << 10
				jobs = append(jobs, timingJob(
					fmt.Sprintf("fig13 %s %dK edvi=%v", s.Name, icacheKB, edvi),
					s, opt, edvi, cfg))
			}
		}
	}
	return jobs
}

// fig13Build renders the cost of the kill annotations with the DVI
// optimizations disabled: dynamic fetched-instruction overhead, static
// code growth, and the IPC deltas with 32KB and 64KB instruction caches.
func fig13Build(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "fig13",
		Title:  "E-DVI overhead (DVI optimizations disabled)",
		Header: []string{"Benchmark", "Dyn Inst", "Code Size", "IPC ovhd 32K I$", "IPC ovhd 64K I$"},
	}
	const perBench = 6 // build, kills, then 2 I$ sizes × (base, with)
	for i := 0; i+perBench-1 < len(res); i += perBench {
		plainImg := res[i].Image
		kills := res[i+1]
		// Dynamic overhead: kills fetched per original instruction.
		dyn := ratio(kills.Func.Kills, kills.Func.Original())
		static := float64(kills.Image.TextWords())/float64(plainImg.TextWords()) - 1

		row := []string{res[i].Job.Workload.Name, pct(dyn), pct(static)}
		for j := 0; j < len(fig13ICacheKB); j++ {
			base := res[i+2+2*j].Timing
			with := res[i+3+2*j].Timing
			// Overhead: positive = slower with annotations.
			row = append(row, fmt.Sprintf("%+.2f%%", 100*(base.IPC()/with.IPC()-1)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "IPC counts original instructions only; kills are pure fetch/decode overhead (paper §3)")
	return t, nil
}

// --- smt (multi-context) ---

var (
	// smtContexts is the hardware-context sweep (the single-context point
	// anchors the curves to the paper machine).
	smtContexts = []int{1, 2, 4, 8}
	// smtPolicies are the fetch arbitration policies compared at each
	// context count.
	smtPolicies = []ooo.FetchPolicy{ooo.FetchRoundRobin, ooo.FetchICOUNT}
	// smtBenchmarks are the multiprogramming workloads: both are
	// save/restore-active, so DVI's elimination benefit is visible per
	// context.
	smtBenchmarks = []string{"li", "gcc"}
)

// smtPoliciesFor returns the fetch policies worth running at n contexts:
// arbitration cannot matter with one context, so the single-context
// anchor runs once under the default policy.
func smtPoliciesFor(n int) []ooo.FetchPolicy {
	if n == 1 {
		return smtPolicies[:1]
	}
	return smtPolicies
}

// smtLevels are the two DVI configurations each grid cell compares.
var smtLevels = []core.Level{core.None, core.Full}

// smtJobs declares the multiprogramming grid: per benchmark and context
// count, a (fetch policy × DVI level) block where every context runs its
// own copy of the workload through one shared core. The physical register
// file scales as 32·N architectural mappings plus the paper machine's 64
// renaming registers, so rename headroom per context is constant across
// the sweep and DVI's early reclamation stays comparable to the
// single-context runs.
func smtJobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, name := range smtBenchmarks {
		s, _ := workload.ByName(name)
		for _, n := range smtContexts {
			for _, policy := range smtPoliciesFor(n) {
				for _, level := range smtLevels {
					scheme := emu.ElimOff
					if level == core.Full {
						scheme = emu.ElimLVMStack
					}
					cfg := timingConfig(level, scheme, opt.MaxInsts)
					cfg.Contexts = n
					cfg.FetchPolicy = policy
					cfg.PhysRegs = 32*n + 64
					jobs = append(jobs, timingJob(
						fmt.Sprintf("smt %s %dctx %s %s", name, n, policy, level),
						s, opt, session.BuildOptionsFor(level).EDVI, cfg))
				}
			}
		}
	}
	return jobs
}

// smtCheck enforces the per-context accounting invariant the figure
// reports: context committed-instruction and save/restore-elimination
// counts must sum to the machine's aggregate.
func smtCheck(r runner.Result) error {
	if len(r.CtxStats) == 0 {
		return nil
	}
	var committed, elim uint64
	for _, c := range r.CtxStats {
		committed += c.Committed
		elim += c.ElimSaves + c.ElimRests
	}
	if committed != r.Timing.Committed || elim != r.Timing.ElimSaves+r.Timing.ElimRests {
		return fmt.Errorf("smt %s: per-context accounting (committed %d, elim %d) does not sum to aggregate (committed %d, elim %d)",
			r.Job.Label, committed, elim, r.Timing.Committed, r.Timing.ElimSaves+r.Timing.ElimRests)
	}
	return nil
}

// smtPerCtx renders one column value per hardware context, separated by
// "/" (single-context machines report the aggregate, which is the only
// context).
func smtPerCtx(r runner.Result, f func(ooo.Stats) string) string {
	if len(r.CtxStats) == 0 {
		return f(r.Timing)
	}
	parts := make([]string, len(r.CtxStats))
	for i, c := range r.CtxStats {
		parts[i] = f(c)
	}
	return strings.Join(parts, "/")
}

// smtBuild renders the multi-context study: aggregate throughput without
// and with DVI, the DVI speedup, each context's share of the throughput,
// each context's save/restore eliminations, and the change in L1 D-cache
// misses per thousand committed instructions (elimination removes stack
// traffic, so the delta should be negative where saves/restores are hot).
func smtBuild(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:    "smt",
		Title: "Multi-context (SMT) throughput and DVI benefit",
		Header: []string{"Benchmark", "Ctxs", "Fetch", "IPC no DVI", "IPC full DVI", "DVI gain",
			"Per-ctx IPC (full)", "S/R elim per ctx", "dL1D miss/kI"},
		Notes: []string{
			"each context runs its own copy of the benchmark through one shared core; PhysRegs = 32*N + 64",
			"dL1D miss/kI: L1 D-cache misses per 1000 committed instructions, full DVI minus no DVI",
		},
	}
	mpki := func(st ooo.Stats) float64 { return 1000 * ratio(st.L1D.Misses, st.Committed) }
	idx := 0
	for _, name := range smtBenchmarks {
		for _, n := range smtContexts {
			for _, policy := range smtPoliciesFor(n) {
				if idx+1 >= len(res) {
					return t, fmt.Errorf("smt: %d results, grid needs more", len(res))
				}
				base, full := res[idx], res[idx+1]
				idx += 2
				if err := smtCheck(base); err != nil {
					return t, err
				}
				if err := smtCheck(full); err != nil {
					return t, err
				}
				t.Rows = append(t.Rows, []string{
					name,
					fmt.Sprintf("%d", n),
					policy.String(),
					f3(base.Timing.IPC()),
					f3(full.Timing.IPC()),
					fmt.Sprintf("%+.1f%%", 100*(full.Timing.IPC()/base.Timing.IPC()-1)),
					smtPerCtx(full, func(st ooo.Stats) string { return f2(st.IPC()) }),
					smtPerCtx(full, func(st ooo.Stats) string { return u64(st.ElimSaves + st.ElimRests) }),
					fmt.Sprintf("%+.2f", mpki(full.Timing)-mpki(base.Timing)),
				})
			}
		}
	}
	return t, nil
}

// --- ablations ---

var ablationDepths = []int{1, 2, 4, 8, 16, 32, 64}

// ablationStackJobs sweeps the LVM-Stack depth per benchmark.
func ablationStackJobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, s := range workload.SaveRestoreActive() {
		for _, d := range ablationDepths {
			jobs = append(jobs, funcJob(
				fmt.Sprintf("ablation-stack %s depth=%d", s.Name, d),
				s, opt, workload.BuildOptions{EDVI: true},
				emu.Config{
					DVI:    core.Config{Level: core.Full, ABI: isa.DefaultABI(), StackDepth: d},
					Scheme: emu.ElimLVMStack,
				}))
		}
	}
	return jobs
}

// ablationStackBuild renders restores eliminated vs stack depth (paper
// §5.2: 16 entries capture nearly all of the benefit; li needs the most).
func ablationStackBuild(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:    "ablation-stack",
		Title: "Restores eliminated vs LVM-Stack depth (fraction of depth-64 benefit)",
		Header: append([]string{"Benchmark"}, func() []string {
			var h []string
			for _, d := range ablationDepths {
				h = append(h, fmt.Sprintf("%d", d))
			}
			return h
		}()...),
	}
	for i := 0; i+len(ablationDepths)-1 < len(res); i += len(ablationDepths) {
		best := res[i+len(ablationDepths)-1].Func.RestoresElim
		row := []string{res[i].Job.Workload.Name}
		for j := range ablationDepths {
			row = append(row, pct(ratio(res[i+j].Func.RestoresElim, best)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

var killPolicies = []rewrite.Policy{rewrite.KillsBeforeCalls, rewrite.KillsAtDeath}

// ablationKillsJobs compares the two kill placement encodings per
// benchmark. The policy is part of the build key, so the two runs use
// distinct cached binaries.
func ablationKillsJobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, s := range workload.SaveRestoreActive() {
		for _, policy := range killPolicies {
			jobs = append(jobs, funcJob(
				fmt.Sprintf("ablation-kills %s policy=%d", s.Name, policy),
				s, opt, workload.BuildOptions{EDVI: true, Policy: policy},
				emu.Config{DVI: core.DefaultConfig(), Scheme: emu.ElimLVMStack}))
		}
	}
	return jobs
}

// ablationKillsBuild renders the paper's kills-before-calls encoding
// against the denser kills-at-death placement (§9 "interesting design
// points").
func ablationKillsBuild(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "ablation-kills",
		Title:  "E-DVI encoding density: kills before calls vs kills at death",
		Header: []string{"Benchmark", "Kills/inst (calls)", "Kills/inst (death)", "s/r elim (calls)", "s/r elim (death)"},
	}
	for i := 0; i+1 < len(res); i += 2 {
		var killFrac, elimFrac [2]float64
		for j := 0; j < 2; j++ {
			st := res[i+j].Func
			killFrac[j] = ratio(st.Kills, st.Original())
			elimFrac[j] = ratio(st.SavesElim+st.RestoresElim, st.SavesRestores())
		}
		t.Rows = append(t.Rows, []string{res[i].Job.Workload.Name,
			pct(killFrac[0]), pct(killFrac[1]), pct(elimFrac[0]), pct(elimFrac[1])})
	}
	return t, nil
}

var wrongPathBenchmarks = []string{"gcc", "li", "go"}

// ablationWrongPathJobs declares wrong-path-on/off timing pairs at a
// small register file.
func ablationWrongPathJobs(opt Options) []runner.Job {
	var jobs []runner.Job
	for _, name := range wrongPathBenchmarks {
		s, _ := workload.ByName(name)
		on := timingConfig(core.Full, emu.ElimLVMStack, opt.sweepBudget())
		on.PhysRegs = 38
		off := on
		off.WrongPathFetch = false
		jobs = append(jobs,
			timingJob("ablation-wrongpath "+name+" on", s, opt, true, on),
			timingJob("ablation-wrongpath "+name+" off", s, opt, true, off))
	}
	return jobs
}

// ablationWrongPathBuild renders the effect of wrong-path fetch
// modelling on the Figure 5 register pressure result.
func ablationWrongPathBuild(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:     "ablation-wrongpath",
		Title:  "Wrong-path fetch modelling (38-register file, full DVI)",
		Header: []string{"Benchmark", "IPC (wrong-path fetch)", "IPC (fetch stall)", "Wrong-path insts"},
	}
	ci := anySampled(res)
	if ci {
		t.Header = append(t.Header, "±CI")
		t.Notes = append(t.Notes, sampledNote(res))
	}
	for i := 0; i+1 < len(res); i += 2 {
		stOn, stOff := res[i].Timing, res[i+1].Timing
		row := []string{res[i].Job.Workload.Name,
			f3(stOn.IPC()), f3(stOff.IPC()), u64(stOn.WrongPath)}
		if ci {
			row = append(row, pct(maxRelCI(res[i], res[i+1])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// --- Inferred-annotation study ---

// inferJobs declares, per benchmark (all seven — inference must handle
// compress's structure too, even if it eliminates little there), two
// functional runs under the LVM-Stack scheme: the hand-annotated E-DVI
// binary and the inferred flavour, whose kills the interprocedural
// analysis discovers from the machine code alone.
func inferJobs(opt Options) []runner.Job {
	cfg := emu.Config{DVI: core.DefaultConfig(), Scheme: emu.ElimLVMStack}
	var jobs []runner.Job
	for _, s := range workload.All() {
		jobs = append(jobs,
			funcJob("infer "+s.Name+" hand", s, opt, workload.BuildOptions{EDVI: true}, cfg),
			funcJob("infer "+s.Name+" inferred", s, opt, workload.BuildOptions{Infer: true}, cfg))
	}
	return jobs
}

// inferBuild renders the elimination rate each annotation engine reaches
// (eliminated saves+restores over total save/restore instances) and the
// recovery share: the fraction of the hand-annotated engine's
// eliminations the inference pass recovers without any compiler hints.
// Both flavours run the same program, so the architectural work count
// must agree — a mismatch is a soundness bug, not a measurement.
func inferBuild(opt Options, res []runner.Result) (Table, error) {
	t := Table{
		ID:    "infer",
		Title: "Save/restore elimination: inferred annotations vs hand annotations (LVM-Stack)",
		Header: []string{"Benchmark",
			"Hand elim", "Inferred elim", "Hand %s/r", "Inferred %s/r", "Recovery"},
		Notes: []string{
			"Recovery = inferred eliminations / hand eliminations; the inference pass sees only the machine code.",
		},
	}
	var aggHand, aggInf, aggRec float64
	n := 0
	for i := 0; i+1 < len(res); i += 2 {
		hand, inf := res[i].Func, res[i+1].Func
		if hand.Original() != inf.Original() {
			return Table{}, fmt.Errorf("infer %s: architectural work differs between flavours (%d vs %d insts)",
				res[i].Job.Workload.Name, hand.Original(), inf.Original())
		}
		handElim := hand.SavesElim + hand.RestoresElim
		infElim := inf.SavesElim + inf.RestoresElim
		frHand := ratio(handElim, hand.SavesRestores())
		frInf := ratio(infElim, inf.SavesRestores())
		rec := ratio(infElim, handElim)
		t.Rows = append(t.Rows, []string{res[i].Job.Workload.Name,
			u64(handElim), u64(infElim), pct(frHand), pct(frInf), pct(rec)})
		aggHand += frHand
		aggInf += frInf
		aggRec += rec
		n++
	}
	if n > 0 {
		t.Rows = append(t.Rows, []string{"average", "", "",
			pct(aggHand / float64(n)), pct(aggInf / float64(n)), pct(aggRec / float64(n))})
	}
	return t, nil
}
