package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"dvi/internal/harness"
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
		rep, err := buildReport(context.Background(), sess, opt, []string{id}, time.Now())
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
		if bf.MinstPerS != 0 {
			t.Fatalf("%s: minst_per_s = %v, want 0 with no timing jobs", id, bf.MinstPerS)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("%s: marshal: %v", id, err)
		}
	}
}

// TestJSONReportThroughputAggregate pins the dvibench/v2 addition: a
// figure with timing jobs reports its simulator throughput (committed
// simulated instructions per wall second) alongside IPC.
func TestJSONReportThroughputAggregate(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"fig10"}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Figures) != 1 {
		t.Fatalf("%d figures, want 1", len(rep.Figures))
	}
	bf := rep.Figures[0]
	if bf.Committed == 0 || bf.WallMS <= 0 {
		t.Fatalf("fig10 grid ran nothing: %+v", bf)
	}
	if bf.MinstPerS <= 0 || math.IsInf(bf.MinstPerS, 0) || math.IsNaN(bf.MinstPerS) {
		t.Fatalf("minst_per_s = %v, want a positive finite throughput", bf.MinstPerS)
	}
	if want := float64(bf.Committed) / (bf.WallMS / 1000) / 1e6; math.Abs(bf.MinstPerS-want) > 1e-9 {
		t.Fatalf("minst_per_s = %v, want %v", bf.MinstPerS, want)
	}
}

// TestEmitJSONRoundTrips checks the full -json path writes a decodable
// document with the schema header.
func TestEmitJSONRoundTrips(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	var buf bytes.Buffer
	if err := emitJSON(context.Background(), &buf, sess, opt, []string{"fig2"}, time.Now()); err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Schema != "dvibench/v5" {
		t.Fatalf("schema %q, want dvibench/v5", rep.Schema)
	}
	if rep.Sampling != nil {
		t.Fatalf("exact-mode report carries a sampling block: %+v", rep.Sampling)
	}
}

// TestJSONReportSampling pins the dvibench/v3 additions: a -sampling run
// records its effective plan in the report header and each timing figure
// reports its worst-case error bound and measured/total interval counts.
// Exact runs omit all of it (checked by TestEmitJSONRoundTrips above), so
// v2 consumers that ignore unknown fields keep working.
func TestJSONReportSampling(t *testing.T) {
	opt := testOptions()
	opt.MaxInsts = 120_000
	opt.Sampling = &sample.Options{Interval: 4000, Warmup: 1000, Period: 4}
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"fig10"}, time.Now())
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

// TestJSONReportMultiContext pins the dvibench/v4 additions: the smt
// figure's record carries per-context aggregates — the widest machine in
// the grid and per-context committed/elimination sums — while
// single-context figures omit the fields entirely, so v3 consumers that
// ignore unknown fields keep working in exact mode.
func TestJSONReportMultiContext(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"smt", "fig10"}, time.Now())
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
	if fig10.MaxContexts != 0 || fig10.CtxCommitted != nil || fig10.CtxElim != nil {
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
	rep, err := buildReport(context.Background(), sess, opt, []string{"fig2"}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sampling == nil || rep.Sampling.Interval == 0 || rep.Sampling.Warmup == 0 || rep.Sampling.Period == 0 {
		t.Fatalf("sampling block %+v should carry WithDefaults values", rep.Sampling)
	}
}

// TestJSONReportInferredElim pins the dvibench/v5 additions: the infer
// figure's record carries the inferred-flavour elimination aggregates,
// while figures that run no inferred builds omit the fields entirely, so
// v4 consumers that ignore unknown fields keep working.
func TestJSONReportInferredElim(t *testing.T) {
	opt := testOptions()
	sess := harness.NewSession(opt, nil)
	rep, err := buildReport(context.Background(), sess, opt, []string{"infer", "fig9"}, time.Now())
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
