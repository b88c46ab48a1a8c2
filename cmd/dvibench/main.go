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
//	dvibench -json > bench.json       # machine-readable per-figure stats
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
		asJSON   = flag.Bool("json", false, "emit machine-readable per-figure stats as JSON on stdout")
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
		var mu sync.Mutex
		done := 0
		progress = func(ev runner.Event) {
			mu.Lock()
			defer mu.Unlock()
			// JobFailed is not printed here: the run's returned error
			// carries the same label and cause, and main reports it.
			if ev.Phase == runner.JobDone {
				done++
				fmt.Fprintf(os.Stderr, "dvibench: [%d/%d] %s\n", done, ev.Total, ev.Label)
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
		if err := emitJSON(ctx, os.Stdout, sess, opt, ids, start); err != nil {
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

// benchFigure is one figure's machine-readable record: per-figure
// wall-clock plus aggregate counters from its own job grid, alongside
// the rendered tables (cell values remain the precise per-row numbers).
type benchFigure struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
	Jobs   int     `json:"jobs"`
	// Aggregates over the figure's timing jobs (absent when it has none).
	Cycles       uint64  `json:"cycles,omitempty"`
	Committed    uint64  `json:"committed,omitempty"`
	IPC          float64 `json:"ipc,omitempty"` // committed/cycles over the grid
	ElimSaves    uint64  `json:"elim_saves,omitempty"`
	ElimRestores uint64  `json:"elim_restores,omitempty"`
	// MinstPerS is simulator throughput: committed (simulated) timing
	// instructions per wall-clock second of this figure's run — the
	// engineering metric the perf trajectory tracks (since dvibench/v2).
	MinstPerS float64 `json:"minst_per_s,omitempty"`
	// Sampled-mode error bounds (dvibench/v3, absent in exact mode):
	// the worst-case confidence-interval half-width over the figure's
	// grid, and how much detail the sampler actually simulated.
	CIHalfWidth       float64 `json:"ci_half_width,omitempty"` // on IPC, worst row
	RelCI             float64 `json:"rel_ci,omitempty"`        // worst relative half-width
	IntervalsMeasured int     `json:"intervals_measured,omitempty"`
	IntervalsTotal    int     `json:"intervals_total,omitempty"`
	// Multi-context aggregates (dvibench/v4, absent when the grid has no
	// multi-context timing jobs): the widest machine in the grid, and per
	// hardware context — summed over the grid's multi-context jobs —
	// committed instructions and save/restore eliminations. Entry i is
	// context i; per-context sums always add up to the corresponding
	// share of the aggregate counters above.
	MaxContexts  int      `json:"max_contexts,omitempty"`
	CtxCommitted []uint64 `json:"ctx_committed,omitempty"`
	CtxElim      []uint64 `json:"ctx_elim,omitempty"`
	// Inferred-annotation aggregates (dvibench/v5, absent when the grid
	// runs no inferred-flavour builds): the share of ElimSaves/ElimRestores
	// above achieved by binaries whose kills the interprocedural inference
	// pass discovered from the machine code alone, and how many of the
	// grid's jobs ran that flavour.
	InferJobs         int    `json:"infer_jobs,omitempty"`
	InferElimSaves    uint64 `json:"infer_elim_saves,omitempty"`
	InferElimRestores uint64 `json:"infer_elim_restores,omitempty"`

	Tables []harness.Table `json:"tables"`
}

// benchSampling records the effective sampling plan a -sampling run used
// (dvibench/v3). Absent in exact mode, so v2 consumers that ignore
// unknown fields keep working.
type benchSampling struct {
	Interval   uint64  `json:"interval"`
	Warmup     uint64  `json:"warmup"`
	Period     int     `json:"period"`
	TargetCI   float64 `json:"target_ci,omitempty"`
	Confidence float64 `json:"confidence"`
}

// benchReport is the -json document: the perf trajectory format the
// BENCH_*.json history records.
type benchReport struct {
	Schema        string         `json:"schema"`
	Workers       int            `json:"workers"`
	Scale         int            `json:"scale"`
	MaxInsts      uint64         `json:"max_insts"`
	SweepMaxInsts uint64         `json:"sweep_max_insts"`
	Sampling      *benchSampling `json:"sampling,omitempty"`
	Figures       []benchFigure  `json:"figures"`
	Compiles      int64          `json:"compiles"`
	CacheHits     int64          `json:"cache_hits"`
	TotalWallMS   float64        `json:"total_wall_ms"`
}

// gridIPC aggregates committed/cycles over a figure's grid. A figure
// whose selection contributes no timing jobs (fig2 has no grid at all;
// fig6 renders purely from fig5's results) has zero cycles: that must
// yield 0, not NaN — json.Marshal rejects NaN and would fail the whole
// report.
func gridIPC(committed, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(committed) / float64(cycles)
}

// buildReport runs the selected figures one at a time (sharing sess's
// build cache) so each gets its own wall-clock, and assembles the
// machine-readable report. A figure's Needs grids re-run inside its
// measurement — the timing is per-figure cost, not marginal cost.
func buildReport(ctx context.Context, sess *session.Session, opt harness.Options, ids []string, start time.Time) (benchReport, error) {
	selected := map[string]bool{}
	for _, id := range ids {
		selected[id] = true
	}
	rep := benchReport{
		Schema:        "dvibench/v5",
		Workers:       sess.Workers(),
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
	for _, fig := range harness.Figures() {
		if !selected[fig.ID] {
			continue
		}
		figStart := time.Now()
		rs, err := harness.CollectResults(ctx, sess, opt, []string{fig.ID})
		if err != nil {
			return rep, fmt.Errorf("%s: %w", fig.ID, err)
		}
		tables, err := fig.Render(opt, rs)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", fig.ID, err)
		}
		bf := benchFigure{
			ID:     fig.ID,
			Title:  fig.Title,
			WallMS: float64(time.Since(figStart).Microseconds()) / 1000,
			Tables: tables,
		}
		for _, res := range rs[fig.ID] {
			bf.Jobs++
			switch res.Job.Kind {
			case runner.Timing:
				bf.Cycles += res.Timing.Cycles
				bf.Committed += res.Timing.Committed
				bf.ElimSaves += res.Timing.ElimSaves
				bf.ElimRestores += res.Timing.ElimRests
			case runner.Functional:
				bf.ElimSaves += res.Func.SavesElim
				bf.ElimRestores += res.Func.RestoresElim
			}
			if res.Job.Build.Infer {
				bf.InferJobs++
				switch res.Job.Kind {
				case runner.Timing:
					bf.InferElimSaves += res.Timing.ElimSaves
					bf.InferElimRestores += res.Timing.ElimRests
				case runner.Functional:
					bf.InferElimSaves += res.Func.SavesElim
					bf.InferElimRestores += res.Func.RestoresElim
				}
			}
			if n := len(res.CtxStats); n > 1 {
				if n > bf.MaxContexts {
					bf.MaxContexts = n
				}
				for len(bf.CtxCommitted) < n {
					bf.CtxCommitted = append(bf.CtxCommitted, 0)
					bf.CtxElim = append(bf.CtxElim, 0)
				}
				for i, c := range res.CtxStats {
					bf.CtxCommitted[i] += c.Committed
					bf.CtxElim[i] += c.ElimSaves + c.ElimRests
				}
			}
			if est := res.Sampled; est != nil {
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
		if bf.WallMS > 0 {
			bf.MinstPerS = float64(bf.Committed) / (bf.WallMS / 1000) / 1e6
		}
		rep.Figures = append(rep.Figures, bf)
	}
	rep.CacheHits, rep.Compiles = sess.Cache().Stats()
	rep.TotalWallMS = float64(time.Since(start).Microseconds()) / 1000
	return rep, nil
}

// emitJSON writes the machine-readable report for ids to w.
func emitJSON(ctx context.Context, w io.Writer, sess *session.Session, opt harness.Options, ids []string, start time.Time) error {
	rep, err := buildReport(ctx, sess, opt, ids, start)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
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
