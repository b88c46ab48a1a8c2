// dvibench regenerates the paper's tables and figures, running the
// experiment grids concurrently over a shared memoized build cache. The
// report on stdout is byte-identical at any -j; progress goes to stderr.
//
// Usage:
//
//	dvibench                          # everything, -j GOMAXPROCS
//	dvibench -figures fig5,fig6 -j 4  # one sweep, four workers
//	dvibench -figures ablations       # the three ablation studies
//	dvibench -list                    # show selectable experiment IDs
//	dvibench -scale 2 -maxinsts 2000000
//	dvibench -json > bench.json       # the same figures as one JSON document
//	dvibench -cpuprofile cpu.pprof    # profile the run (go tool pprof)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"dvi/internal/harness"
	"dvi/internal/obs"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
)

func main() {
	// run carries the real work so its defers (the pprof writers) flush
	// before the process exits; os.Exit here would discard them.
	os.Exit(run())
}

func run() int {
	var (
		figures  = flag.String("figures", "", "comma-separated experiment subset (IDs from -list, or all|ablations); default all")
		list     = flag.Bool("list", false, "print selectable experiment IDs and exit")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent simulation workers")
		quiet    = flag.Bool("q", false, "suppress per-job progress on stderr")
		scale    = flag.Int("scale", 1, "workload scale factor")
		max      = flag.Uint64("maxinsts", 400_000, "instruction budget per timing run")
		sweep    = flag.Uint64("sweepinsts", 150_000, "instruction budget per sweep point (fig5)")
		asJSON   = flag.Bool("json", false, "emit the selected figures' tables and per-figure aggregates as JSON on stdout")
		sampled  = flag.Bool("sampling", false, "estimate timing figures by statistical sampling (checkpointed intervals simulated in parallel, ±CI columns)")
		interval = flag.Uint64("interval", 0, "sampled-interval length in instructions (0 = default; implies -sampling)")
		warmup   = flag.Uint64("warmup", 0, "detailed warmup before each measured interval (0 = interval/5; implies -sampling)")
		targetCI = flag.Float64("ci", 0, "target relative CI half-width, e.g. 0.05; sampler densifies until met (implies -sampling)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
		phases   = flag.Bool("phases", false, "print a per-phase wall-clock breakdown (build, scan, interval, render, ...) on stderr after the run")
	)
	flag.Parse()

	if *list {
		for _, f := range harness.Figures() {
			fmt.Printf("%-18s %s\n", f.ID, f.Title)
		}
		return 0
	}

	ids, err := selectIDs(*figures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvibench:", err)
		return 2
	}

	// Profiling hooks: scheduler and engine work is measured with the
	// standard pprof toolchain instead of ad-hoc harnesses. The profiles
	// are flushed by defer even when the run fails — that is when they
	// are most wanted.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dvibench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dvibench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dvibench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transients
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dvibench:", err)
			}
		}()
	}

	opt := harness.Options{Scale: *scale, MaxInsts: *max, SweepMaxInsts: *sweep, Workers: *jobs}
	if *sampled || *interval != 0 || *warmup != 0 || *targetCI > 0 {
		opt.Sampling = &sample.Options{Interval: *interval, Warmup: *warmup, TargetCI: *targetCI}
	}

	var progress runner.ProgressFunc
	if !*quiet {
		progress = func(ev runner.Event) {
			if line := progressLine(ev); line != "" {
				fmt.Fprint(os.Stderr, line) // one write per line
			}
		}
	}

	// -phases installs a span recorder on the run's context: every job
	// the engine executes becomes a root span whose children (build,
	// scan, interval, render, ...) are folded into per-phase totals as
	// the trees complete.
	ctx := context.Background()
	var acc *phaseAcc
	if *phases {
		acc = newPhaseAcc()
		rec := obs.NewRecorder(1) // the ring is unused; OnRecord does the work
		rec.OnRecord = acc.fold
		ctx = obs.WithRecorder(ctx, rec)
	}

	sess := harness.NewSession(opt, progress)
	start := time.Now()
	if *asJSON {
		if err := emitJSON(ctx, os.Stdout, sess, opt, ids); err != nil {
			fmt.Fprintln(os.Stderr, "dvibench:", err)
			return 1
		}
	} else if err := harness.RunFigures(ctx, sess, opt, ids, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dvibench:", err)
		return 1
	}
	if !*quiet {
		hits, misses := sess.Cache().Stats()
		fmt.Fprintf(os.Stderr, "dvibench: done in %s (%d workers, %d binaries compiled, %d build cache hits)\n",
			time.Since(start).Round(time.Millisecond), sess.Workers(), misses, hits)
	}
	if acc != nil {
		acc.print(os.Stderr)
	}
	return 0
}

// phaseAcc accumulates span durations by phase name across all recorded
// span trees. fold runs on engine worker goroutines as trees complete.
type phaseAcc struct {
	mu     sync.Mutex
	totals map[string]time.Duration
	counts map[string]int
}

func newPhaseAcc() *phaseAcc {
	return &phaseAcc{totals: map[string]time.Duration{}, counts: map[string]int{}}
}

func (a *phaseAcc) fold(root *obs.Span) {
	a.mu.Lock()
	defer a.mu.Unlock()
	root.Visit(func(s *obs.Span) {
		a.totals[s.Name()] += s.Duration()
		a.counts[s.Name()]++
	})
}

// print writes the per-phase breakdown, widest total first. Phase totals
// overlap (a job span contains its build span; workers run in parallel),
// so the column sums to more than wall-clock by design.
func (a *phaseAcc) print(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.totals))
	for name := range a.totals {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return a.totals[names[i]] > a.totals[names[j]] })
	fmt.Fprintf(w, "dvibench: per-phase breakdown (cumulative across workers; phases nest)\n")
	for _, name := range names {
		n := a.counts[name]
		total := a.totals[name]
		fmt.Fprintf(w, "dvibench:   %-12s %10s  %6d spans  avg %s\n",
			name, total.Round(time.Microsecond), n, (total / time.Duration(n)).Round(time.Microsecond))
	}
}

// benchFigure is one figure's machine-readable record: its rendered
// tables plus aggregate counters over its own grid. Every field is always
// present; a figure without the jobs a field counts reports zero (or an
// empty list).
type benchFigure struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Jobs  int    `json:"jobs"`
	// Cycles and committed count the grid's timing jobs; eliminations
	// count its timing and functional jobs.
	Cycles       uint64  `json:"cycles"`
	Committed    uint64  `json:"committed"`
	IPC          float64 `json:"ipc"` // committed/cycles over the grid
	ElimSaves    uint64  `json:"elim_saves"`
	ElimRestores uint64  `json:"elim_restores"`
	// Sampled-mode error bounds: the worst-case confidence-interval
	// half-width over the figure's grid, and how much detail the sampler
	// actually simulated.
	CIHalfWidth       float64 `json:"ci_half_width"` // on IPC, worst row
	RelCI             float64 `json:"rel_ci"`        // worst relative half-width
	IntervalsMeasured int     `json:"intervals_measured"`
	IntervalsTotal    int     `json:"intervals_total"`
	// Multi-context aggregates over the grid's multi-context timing jobs:
	// the widest machine, and per hardware context the committed
	// instructions and save/restore eliminations (entry i is context i).
	MaxContexts  int      `json:"max_contexts"`
	CtxCommitted []uint64 `json:"ctx_committed"`
	CtxElim      []uint64 `json:"ctx_elim"`
	// The share of ElimSaves/ElimRestores achieved by binaries whose
	// kills the inference pass discovered, and how many jobs ran that
	// flavour.
	InferJobs         int    `json:"infer_jobs"`
	InferElimSaves    uint64 `json:"infer_elim_saves"`
	InferElimRestores uint64 `json:"infer_elim_restores"`

	Tables []harness.Table `json:"tables"`
}

// benchSampling records the effective sampling plan of a -sampling run.
type benchSampling struct {
	Interval   uint64  `json:"interval"`
	Warmup     uint64  `json:"warmup"`
	Period     int     `json:"period"`
	TargetCI   float64 `json:"target_ci"`
	Confidence float64 `json:"confidence"`
}

// benchReport is the -json document. It holds only results, so it is
// byte-identical at any worker count; perfbench measures time.
type benchReport struct {
	Schema        string         `json:"schema"`
	Scale         int            `json:"scale"`
	MaxInsts      uint64         `json:"max_insts"`
	SweepMaxInsts uint64         `json:"sweep_max_insts"`
	Sampling      *benchSampling `json:"sampling"` // null in exact mode
	Figures       []benchFigure  `json:"figures"`
	Compiles      int64          `json:"compiles"`
	CacheHits     int64          `json:"cache_hits"`
}

// gridIPC aggregates committed/cycles over a figure's grid. A figure
// whose grid has no timing jobs (fig2 has no grid at all; fig6 renders
// from fig5's results) has zero cycles: that must yield 0, not NaN —
// json.Marshal rejects NaN and would fail the whole report.
func gridIPC(committed, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(committed) / float64(cycles)
}

// figureStats forms one figure's record from its tables and its grid's
// results.
func figureStats(f harness.Rendered, res []runner.Result) benchFigure {
	bf := benchFigure{ID: f.ID, Title: f.Title, CtxCommitted: []uint64{}, CtxElim: []uint64{}, Tables: f.Tables}
	for _, r := range res {
		bf.Jobs++
		var saves, rests uint64
		switch r.Job.Kind {
		case runner.Timing:
			bf.Cycles += r.Timing.Cycles
			bf.Committed += r.Timing.Committed
			saves, rests = r.Timing.ElimSaves, r.Timing.ElimRests
		case runner.Functional:
			saves, rests = r.Func.SavesElim, r.Func.RestoresElim
		}
		bf.ElimSaves += saves
		bf.ElimRestores += rests
		if r.Job.Build.Infer {
			bf.InferJobs++
			bf.InferElimSaves += saves
			bf.InferElimRestores += rests
		}
		if n := len(r.CtxStats); n > 1 {
			bf.MaxContexts = max(bf.MaxContexts, n)
			for len(bf.CtxCommitted) < n {
				bf.CtxCommitted = append(bf.CtxCommitted, 0)
				bf.CtxElim = append(bf.CtxElim, 0)
			}
			for i, c := range r.CtxStats {
				bf.CtxCommitted[i] += c.Committed
				bf.CtxElim[i] += c.ElimSaves + c.ElimRests
			}
		}
		if est := r.Sampled; est != nil {
			if est.CIHalfWidth > bf.CIHalfWidth {
				bf.CIHalfWidth = est.CIHalfWidth
			}
			if est.RelCI > bf.RelCI {
				bf.RelCI = est.RelCI
			}
			bf.IntervalsMeasured += est.Measured
			bf.IntervalsTotal += est.Intervals
		}
	}
	bf.IPC = gridIPC(bf.Committed, bf.Cycles)
	return bf
}

// buildReport runs the selected figures as one batch, as the text report
// does, and assembles the machine-readable report: each selected figure's
// tables and its aggregates over its own grid.
func buildReport(ctx context.Context, sess *session.Session, opt harness.Options, ids []string) (benchReport, error) {
	rep := benchReport{
		Schema:        "dvibench/v6",
		Scale:         opt.Scale,
		MaxInsts:      opt.MaxInsts,
		SweepMaxInsts: opt.SweepMaxInsts,
	}
	if opt.Sampling != nil {
		eff := opt.Sampling.WithDefaults()
		rep.Sampling = &benchSampling{
			Interval:   eff.Interval,
			Warmup:     eff.Warmup,
			Period:     eff.Period,
			TargetCI:   eff.TargetCI,
			Confidence: sample.Confidence,
		}
	}
	figs, rs, err := harness.Report(ctx, sess, opt, ids)
	if err != nil {
		return rep, err
	}
	for _, f := range figs {
		rep.Figures = append(rep.Figures, figureStats(f, rs[f.ID]))
	}
	rep.CacheHits, rep.Compiles = sess.Cache().Stats()
	return rep, nil
}

// emitJSON writes the machine-readable report for ids to w.
func emitJSON(ctx context.Context, w io.Writer, sess *session.Session, opt harness.Options, ids []string) error {
	rep, err := buildReport(ctx, sess, opt, ids)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// progressLine renders the stderr line for a finished job: its place in
// its own engine batch over that batch's size. A report runs several
// batches (the figure grids, then each sampled scan group's intervals),
// so a count kept across batches would run past the total. Other phases
// get no line (""): a JobFailed's label and cause come back in the run's
// error, which main reports.
func progressLine(ev runner.Event) string {
	if ev.Phase != runner.JobDone {
		return ""
	}
	return fmt.Sprintf("dvibench: [%d/%d] %s\n", ev.Index+1, ev.Total, ev.Label)
}

// selectIDs resolves the -figures selection into figure IDs.
func selectIDs(figures string) ([]string, error) {
	if figures == "" || figures == "all" {
		return harness.FigureIDs(), nil
	}
	var ids []string
	for _, id := range strings.Split(figures, ",") {
		id = strings.TrimSpace(id)
		switch id {
		case "":
		case "all":
			ids = append(ids, harness.FigureIDs()...)
		case "ablations":
			ids = append(ids, harness.AblationIDs()...)
		default:
			if _, ok := harness.FigureByID(id); !ok {
				return nil, fmt.Errorf("unknown figure %q (have %s)",
					id, strings.Join(append(harness.FigureIDs(), "ablations"), ", "))
			}
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("empty -figures selection")
	}
	return ids, nil
}
