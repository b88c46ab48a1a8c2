package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"dvi/internal/harness"
	"dvi/internal/runner"
	"dvi/internal/sample"
)

// testOptions keeps the grids tiny so the derived-figure selections run in
// well under a second.
func testOptions() harness.Options {
	return harness.Options{Scale: 1, MaxInsts: 5_000, SweepMaxInsts: 2_000, Workers: 1}
}

// TestJSONReportNoTimingJobs pins the zero-cycle guard: selections whose
// figures contribute no timing jobs of their own (fig2 has no grid; fig6
// renders purely from fig5's results) must produce a finite IPC and a
// report json.Marshal accepts — NaN would fail the whole document.
func TestJSONReportNoTimingJobs(t *testing.T) {
	saved := harness.Fig5Sizes
	harness.Fig5Sizes = []int{34, 96}
	defer func() { harness.Fig5Sizes = saved }()

	for _, id := range []string{"fig2", "fig6"} {
		opt := testOptions()
		sess := harness.NewSession(opt, nil)
		rep, err := buildReport(context.Background(), sess, opt, []string{id})
		if err != nil {
			t.Fatalf("%s: buildReport: %v", id, err)
		}
		if len(rep.Figures) != 1 {
			t.Fatalf("%s: %d figures, want 1", id, len(rep.Figures))
		}
		bf := rep.Figures[0]
		if bf.Cycles != 0 {
			t.Fatalf("%s: expected a grid with no timing jobs, got %d cycles", id, bf.Cycles)
		}
		if math.IsNaN(bf.IPC) || math.IsInf(bf.IPC, 0) || bf.IPC != 0 {
			t.Fatalf("%s: IPC = %v, want 0 for a zero-cycle grid", id, bf.IPC)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("%s: marshal: %v", id, err)
		}
	}
}

// TestEmitJSONRoundTrips checks the full -json path writes a decodable
// document with the schema header, and that fields are present even
// where they are zero: an exact run's sampling plan is null and a figure
// with no grid still carries its aggregates.
func TestEmitJSONRoundTrips(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	var buf bytes.Buffer
	if err := emitJSON(context.Background(), &buf, sess, opt, []string{"fig2"}); err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Schema != "dvibench/v6" {
		t.Fatalf("schema %q, want dvibench/v6", rep.Schema)
	}
	for _, field := range []string{`"sampling": null`, `"ctx_committed": []`, `"infer_jobs": 0`} {
		if !bytes.Contains(buf.Bytes(), []byte(field)) {
			t.Errorf("exact-mode fig2 document lacks %s:\n%s", field, buf.Bytes())
		}
	}
}

// TestJSONReportSampling pins the sampled fields: a -sampling run records
// its effective plan in the report header and each timing figure reports
// its worst-case error bound and measured/total interval counts.
func TestJSONReportSampling(t *testing.T) {
	opt := testOptions()
	opt.MaxInsts = 120_000
	opt.Sampling = &sample.Options{Interval: 4000, Warmup: 1000, Period: 4}
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"fig10"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampling == nil {
		t.Fatal("sampled report missing the sampling block")
	}
	if rep.Sampling.Interval != 4000 || rep.Sampling.Warmup != 1000 || rep.Sampling.Period != 4 {
		t.Fatalf("sampling block %+v does not record the effective plan", rep.Sampling)
	}
	if rep.Sampling.Confidence != sample.Confidence {
		t.Fatalf("confidence %v, want %v", rep.Sampling.Confidence, sample.Confidence)
	}
	if len(rep.Figures) != 1 {
		t.Fatalf("%d figures, want 1", len(rep.Figures))
	}
	bf := rep.Figures[0]
	if bf.RelCI <= 0 || math.IsNaN(bf.RelCI) {
		t.Fatalf("rel_ci = %v, want a positive error bound on a sampled timing figure", bf.RelCI)
	}
	if bf.IntervalsMeasured <= 0 || bf.IntervalsTotal < bf.IntervalsMeasured {
		t.Fatalf("interval counts measured=%d total=%d are not a sane sample plan",
			bf.IntervalsMeasured, bf.IntervalsTotal)
	}
	if bf.Cycles == 0 || bf.Committed == 0 {
		t.Fatalf("sampled figure lost its timing aggregates: %+v", bf)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestJSONReportMultiContext pins the multi-context fields: the smt
// figure's record carries per-context aggregates — the widest machine in
// the grid and per-context committed/elimination sums — while
// single-context figures report zero contexts and empty lists.
func TestJSONReportMultiContext(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"smt", "fig10"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 2 {
		t.Fatalf("%d figures, want 2", len(rep.Figures))
	}
	byID := map[string]benchFigure{}
	for _, bf := range rep.Figures {
		byID[bf.ID] = bf
	}
	smt := byID["smt"]
	if smt.MaxContexts != 8 {
		t.Fatalf("smt max_contexts = %d, want 8", smt.MaxContexts)
	}
	if len(smt.CtxCommitted) != 8 || len(smt.CtxElim) != 8 {
		t.Fatalf("smt per-context slices have %d/%d entries, want 8",
			len(smt.CtxCommitted), len(smt.CtxElim))
	}
	for i, c := range smt.CtxCommitted {
		if c == 0 {
			t.Errorf("context %d committed nothing across the smt grid", i)
		}
	}
	fig10 := byID["fig10"]
	if fig10.MaxContexts != 0 || len(fig10.CtxCommitted) != 0 || len(fig10.CtxElim) != 0 {
		t.Errorf("single-context figure carries multi-context fields: %+v", fig10)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestSamplingDefaultsInReport checks a bare -sampling run (zero-valued
// Options) records the defaulted plan, not zeros.
func TestSamplingDefaultsInReport(t *testing.T) {
	opt := testOptions()
	opt.Sampling = &sample.Options{}
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"fig2"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampling == nil || rep.Sampling.Interval == 0 || rep.Sampling.Warmup == 0 || rep.Sampling.Period == 0 {
		t.Fatalf("sampling block %+v should carry WithDefaults values", rep.Sampling)
	}
}

// TestJSONReportInferredElim pins the inferred-flavour fields: the infer
// figure's record carries the inferred-flavour elimination aggregates,
// while figures that run no inferred builds report zeros.
func TestJSONReportInferredElim(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"infer", "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 2 {
		t.Fatalf("%d figures, want 2", len(rep.Figures))
	}
	byID := map[string]benchFigure{}
	for _, bf := range rep.Figures {
		byID[bf.ID] = bf
	}
	inf := byID["infer"]
	if inf.InferJobs != 7 { // one inferred build per benchmark
		t.Fatalf("infer figure ran %d inferred jobs, want 7", inf.InferJobs)
	}
	if inf.InferElimSaves == 0 || inf.InferElimRestores == 0 {
		t.Fatalf("inferred flavour eliminated nothing: %+v", inf)
	}
	if inf.InferElimSaves > inf.ElimSaves || inf.InferElimRestores > inf.ElimRestores {
		t.Fatalf("inferred aggregates exceed the grid totals: %+v", inf)
	}
	fig9 := byID["fig9"]
	if fig9.InferJobs != 0 || fig9.InferElimSaves != 0 || fig9.InferElimRestores != 0 {
		t.Errorf("hand-annotated figure carries inferred aggregates: %+v", fig9)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestJSONReportOneBatch pins -json as a renderer of the text report's
// one batch. On a selection that includes fig5 and fig6, which renders
// from fig5's grid, the document is byte-identical at one and eight
// workers, exact and sampled, and every grid job runs once: fig6 does
// not run fig5's sweep a second time.
func TestJSONReportOneBatch(t *testing.T) {
	saved := harness.Fig5Sizes
	harness.Fig5Sizes = []int{34, 96}
	defer func() { harness.Fig5Sizes = saved }()
	ids := []string{"fig6", "fig5"}

	for _, sampled := range []bool{false, true} {
		opt := testOptions()
		if sampled {
			opt.SweepMaxInsts = 8_000
			opt.Sampling = &sample.Options{Interval: 2000, Warmup: 500, Period: 2}
		}
		var docs [2]bytes.Buffer
		for i, workers := range []int{1, 8} {
			opt.Workers = workers
			var mu sync.Mutex
			runs := map[string]int{}
			sess := harness.NewSession(opt, func(ev runner.Event) {
				if ev.Phase == runner.JobDone {
					mu.Lock()
					runs[ev.Label]++
					mu.Unlock()
				}
			})
			if err := emitJSON(context.Background(), &docs[i], sess, opt, ids); err != nil {
				t.Fatalf("sampled=%v workers=%d: %v", sampled, workers, err)
			}
			if sampled {
				continue // the sampler's scan and interval jobs carry labels of their own
			}
			fig5, _ := harness.FigureByID("fig5")
			jobs := fig5.Jobs(opt)
			if len(runs) != len(jobs) {
				t.Errorf("workers=%d: %d distinct jobs ran, fig5's grid has %d", workers, len(runs), len(jobs))
			}
			for _, j := range jobs {
				if n := runs[j.Label]; n != 1 {
					t.Errorf("workers=%d: %s ran %d times, want once", workers, j.Label, n)
				}
			}
		}
		var rep benchReport
		if err := json.Unmarshal(docs[0].Bytes(), &rep); err != nil {
			t.Fatalf("sampled=%v: decode: %v", sampled, err)
		}
		if fig5 := rep.Figures[0]; fig5.ID != "fig5" || (fig5.IntervalsMeasured > 0) != sampled {
			t.Errorf("sampled=%v: first record %s measured %d intervals", sampled, fig5.ID, fig5.IntervalsMeasured)
		}
		if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
			t.Errorf("sampled=%v: -json document differs between 1 and 8 workers:\n%s\n---\n%s",
				sampled, docs[0].String(), docs[1].String())
		}
	}
}

// TestSelectIDs covers the -figures selection: the default and "all",
// the ablations group, a list with spaces and a group inside it, an
// unknown ID, and a selection that names nothing.
func TestSelectIDs(t *testing.T) {
	all := harness.FigureIDs()
	for _, tc := range []struct {
		figures string
		want    []string
		err     string
	}{
		{figures: "", want: all},
		{figures: "all", want: all},
		{figures: "ablations", want: harness.AblationIDs()},
		{figures: "fig6, fig3,ablations", want: append([]string{"fig6", "fig3"}, harness.AblationIDs()...)},
		{figures: "fig3,fig99", err: `unknown figure "fig99"`},
		{figures: " , ", err: "empty -figures selection"},
	} {
		got, err := selectIDs(tc.figures)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("selectIDs(%q) error = %v, want one containing %q", tc.figures, err, tc.err)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("selectIDs(%q) = %v, %v; want %v", tc.figures, got, err, tc.want)
		}
	}
}

// TestProgressLine pins the progress line to the job's place in its own
// engine batch. The events come from two batches of one report: a figure
// grid, then a sampled scan group's intervals, whose count restarts.
func TestProgressLine(t *testing.T) {
	done := func(idx, total int, label string) runner.Event {
		return runner.Event{Phase: runner.JobDone, Index: idx, Total: total, Label: label}
	}
	for _, c := range []struct {
		name string
		ev   runner.Event
		want string // "" = no line
	}{
		{"grid, first job", done(0, 143, "fig3 compress"), "dvibench: [1/143] fig3 compress\n"},
		{"grid, last job", done(142, 143, "fig13 gcc"), "dvibench: [143/143] fig13 gcc\n"},
		{"interval batch, first job", done(0, 18, "interval 0"), "dvibench: [1/18] interval 0\n"},
		{"interval batch, last job", done(17, 18, "interval 136"), "dvibench: [18/18] interval 136\n"},
		{"start is silent", runner.Event{Phase: runner.JobStart, Index: 3, Total: 18, Label: "interval 24"}, ""},
		{"failure is silent", runner.Event{Phase: runner.JobFailed, Index: 3, Total: 18, Label: "interval 24"}, ""},
	} {
		if got := progressLine(c.ev); got != c.want {
			t.Errorf("%s: progressLine = %q, want %q", c.name, got, c.want)
		}
	}
}
