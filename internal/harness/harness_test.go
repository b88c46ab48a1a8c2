package harness

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"dvi/internal/core"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/workload"
)

// small returns options sized for unit testing (seconds, not minutes).
func small() Options {
	return Options{Scale: 1, MaxInsts: 50_000, SweepMaxInsts: 25_000}
}

// render runs the selected figures through Report on a fresh session
// and returns their tables, one per figure, in registry order.
func render(t *testing.T, opt Options, ids ...string) []Table {
	t.Helper()
	figs, _, err := Report(context.Background(), NewSession(opt, nil), opt, ids)
	if err != nil {
		t.Fatal(err)
	}
	var tabs []Table
	for _, f := range figs {
		if len(f.Tables) != 1 {
			t.Fatalf("%s rendered %d tables, want 1", f.ID, len(f.Tables))
		}
		tabs = append(tabs, f.Tables[0])
	}
	return tabs
}

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "Blong"},
		Rows:   [][]string{{"aaa", "b"}, {"a", "bbbbbb"}},
		Notes:  []string{"hello"},
	}
	s := tab.String()
	for _, want := range []string{"=== x: demo ===", "Blong", "aaa", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig2Static(t *testing.T) {
	s := render(t, small(), "fig2")[0].String()
	for _, want := range []string{"Issue Width", "64KB, 4-way", "512KB", "gshare/bimod"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig2 missing %q", want)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	tab := render(t, small(), "fig3")[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("fig3 rows = %d, want 7", len(tab.Rows))
	}
	if tab.Rows[0][0] != "compress" || tab.Rows[6][0] != "gcc" {
		t.Error("fig3 benchmark order wrong")
	}
}

func TestFig9AverageAndOrdering(t *testing.T) {
	tab := render(t, small(), "fig9")[0]
	if len(tab.Rows) != 7 { // 6 benchmarks + average
		t.Fatalf("fig9 rows = %d", len(tab.Rows))
	}
	// LVM-Stack must eliminate at least as much as LVM-only, per row.
	for _, row := range tab.Rows {
		lvm := parsePct(t, row[1])
		stack := parsePct(t, row[2])
		if stack < lvm {
			t.Errorf("%s: LVM-Stack %.1f < LVM %.1f", row[0], stack, lvm)
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad percent %q: %v", s, err)
	}
	return v
}

func TestFig12Reductions(t *testing.T) {
	tab := render(t, small(), "fig12")[0]
	if len(tab.Rows) != 7 {
		t.Fatalf("fig12 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows[:6] {
		idvi := parsePct(t, row[1])
		full := parsePct(t, row[2])
		if full < idvi {
			t.Errorf("%s: full DVI %.1f%% < I-DVI %.1f%%", row[0], full, idvi)
		}
		if idvi < 10 {
			t.Errorf("%s: I-DVI reduction %.1f%% implausibly low", row[0], idvi)
		}
	}
}

func TestFig5And6SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	// A reduced sweep to keep runtime down: patch the sizes temporarily.
	saved := Fig5Sizes
	Fig5Sizes = []int{34, 42, 58, 96}
	defer func() { Fig5Sizes = saved }()

	opt := small()
	figs, rs, err := Report(context.Background(), NewSession(opt, nil), opt, []string{"fig5", "fig6"})
	if err != nil {
		t.Fatal(err)
	}
	tab, t6 := figs[0].Tables[0], figs[1].Tables[0]
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// IPC must be non-decreasing-ish with file size for each level, and
	// DVI must beat no-DVI at the smallest size.
	points, err := fig5Points(rs["fig5"])
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[core.Level][]float64{}
	for _, p := range points {
		byLevel[p.Level] = append(byLevel[p.Level], p.IPC)
	}
	for level, ipcs := range byLevel {
		if ipcs[len(ipcs)-1] < ipcs[0]*0.98 {
			t.Errorf("level %v: IPC decreases with larger file: %v", level, ipcs)
		}
	}
	noDVI := byLevel[core.None]
	idvi := byLevel[core.IDVI]
	if idvi[0] <= noDVI[0] {
		t.Errorf("at 34 regs I-DVI IPC %.3f <= no-DVI %.3f; reclamation should help", idvi[0], noDVI[0])
	}
	// Small files must hurt the no-DVI machine noticeably.
	if noDVI[0] > noDVI[len(noDVI)-1]*0.95 {
		t.Errorf("no-DVI IPC at 34 regs (%.3f) too close to unconstrained (%.3f)",
			noDVI[0], noDVI[len(noDVI)-1])
	}
	if len(t6.Notes) < 2 {
		t.Error("fig6 missing peak notes")
	}
}

func TestFig10AndFig11(t *testing.T) {
	if testing.Short() {
		t.Skip("timing studies in -short mode")
	}
	tabs := render(t, small(), "fig10", "fig11")
	t10, t11 := tabs[0], tabs[1]
	if len(t10.Rows) != 6 {
		t.Fatalf("fig10 rows = %d", len(t10.Rows))
	}
	if len(t11.Rows) != 4 {
		t.Fatalf("fig11 rows = %d", len(t11.Rows))
	}
}

func TestFig13Overheads(t *testing.T) {
	if testing.Short() {
		t.Skip("timing studies in -short mode")
	}
	tab := render(t, small(), "fig13")[0]
	for _, row := range tab.Rows {
		dyn := parsePct(t, row[1])
		if dyn < 0 || dyn > 15 {
			t.Errorf("%s: dynamic overhead %.1f%% out of plausible range", row[0], dyn)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	tabs := render(t, small(), "ablation-stack", "ablation-kills")
	stack, kills := tabs[0], tabs[1]
	for _, row := range stack.Rows {
		// Depth 64 is the normalization target: the last column is 100%.
		if row[len(row)-1] != "100.0%" {
			t.Errorf("%s: depth-64 column = %s", row[0], row[len(row)-1])
		}
		// Monotone non-decreasing in depth.
		prev := -1.0
		for _, c := range row[1:] {
			v := parsePct(t, c)
			if v+0.01 < prev {
				t.Errorf("%s: benefit not monotone with depth: %v", row[0], row[1:])
				break
			}
			prev = v
		}
	}
	for _, row := range kills.Rows {
		ck := parsePct(t, row[1])
		dk := parsePct(t, row[2])
		if dk < ck {
			t.Errorf("%s: at-death kill density %.2f%% < before-calls %.2f%%", row[0], dk, ck)
		}
	}
}

// TestSMTFigure runs a reduced multi-context study and pins its
// contracts: the renderer verifies per-context elim/commit accounting
// sums to the aggregate (it errors otherwise), multi-context rows report
// one IPC per hardware context, and the table is byte-identical at any
// worker count.
func TestSMTFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("timing studies in -short mode")
	}
	savedCtx, savedBench := smtContexts, smtBenchmarks
	smtContexts = []int{1, 2, 4}
	smtBenchmarks = []string{"li"}
	defer func() { smtContexts, smtBenchmarks = savedCtx, savedBench }()

	opt := small()
	opt.Workers = 1
	tab := render(t, opt, "smt")[0]
	// n=1 runs one policy; n=2 and n=4 run both.
	if len(tab.Rows) != 5 {
		t.Fatalf("smt rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		n, _ := strconv.Atoi(row[1])
		perCtx := strings.Split(row[6], "/")
		if len(perCtx) != n {
			t.Errorf("%d-context row reports %d per-ctx IPC values: %q", n, len(perCtx), row[6])
		}
		for _, v := range perCtx {
			ipc, err := strconv.ParseFloat(v, 64)
			if err != nil || ipc <= 0 {
				t.Errorf("per-ctx IPC %q not a positive number", v)
			}
		}
	}
	// The DVI gain column must be a sane percentage (its sign depends on
	// how much kill-annotation fetch overhead the register headroom hides
	// at this budget).
	for _, row := range tab.Rows {
		if gain := parsePct(t, row[5]); gain < -50 || gain > 100 {
			t.Errorf("%s ctx=%s %s: DVI gain %.1f%% out of range", row[0], row[1], row[2], gain)
		}
	}

	opt.Workers = 8
	if tab8 := render(t, opt, "smt")[0]; tab.String() != tab8.String() {
		t.Errorf("smt table differs between -j1 and -j8:\n%s\n---\n%s", tab, tab8)
	}
}

// TestRunAllDeterministicAcrossWorkers asserts the byte-identical-report
// contract: the full RunAll report at -j 1 equals the report at -j 8.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	opt := small()
	opt.Workers = 1
	var seq bytes.Buffer
	if err := RunAll(opt, &seq); err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	var par bytes.Buffer
	if err := RunAll(opt, &par); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("report differs between -j1 (%d bytes) and -j8 (%d bytes)",
			seq.Len(), par.Len())
	}
}

// TestSharedEngineBuildsOncePerKey submits every report figure's grid
// through one engine and checks each distinct (workload, scale, edvi)
// binary was compiled exactly once: the nine figures reference only the
// seven plain and seven annotated binaries.
func TestSharedEngineBuildsOncePerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("full report in -short mode")
	}
	opt := small()
	opt.Workers = 4
	sess := NewSession(opt, nil)
	rs, err := CollectResults(context.Background(), sess, opt, ReportIDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig3", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		if len(rs[id]) == 0 {
			t.Errorf("no results for %s", id)
		}
	}
	hits, misses := sess.Cache().Stats()
	want := int64(2 * len(workload.All())) // plain + edvi per benchmark
	if misses != want {
		t.Errorf("compiled %d distinct binaries, want %d", misses, want)
	}
	if int(misses) != sess.Cache().Len() {
		t.Errorf("misses %d != cache entries %d: some key compiled twice", misses, sess.Cache().Len())
	}
	if hits == 0 {
		t.Error("no cache hits across a full report")
	}
}

// TestRunFiguresSubsetAndUnknown covers -figures selection: a subset
// renders only the selected tables (dependencies run but do not print),
// and unknown IDs fail.
func TestRunFiguresSubsetAndUnknown(t *testing.T) {
	opt := small()
	var buf bytes.Buffer
	sess := NewSession(opt, nil)
	if err := RunFigures(context.Background(), sess, opt, []string{"fig2", "fig3"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "=== fig2") || !strings.Contains(out, "=== fig3") {
		t.Errorf("subset output missing selected figures:\n%s", out)
	}
	if strings.Contains(out, "=== fig9") {
		t.Error("subset output contains unselected figure")
	}
	if err := RunFigures(context.Background(), sess, opt, []string{"fig99"}, &buf); err == nil {
		t.Error("unknown figure did not error")
	}
}

func TestInferFigure(t *testing.T) {
	tab := render(t, small(), "infer")[0]
	if len(tab.Rows) != 8 { // 7 benchmarks + average
		t.Fatalf("infer rows = %d", len(tab.Rows))
	}
	// The inference pass must recover a real share of the hand-annotated
	// eliminations somewhere in the suite; the average row keeps the
	// figure honest about how much.
	avg := tab.Rows[len(tab.Rows)-1]
	if avg[0] != "average" {
		t.Fatalf("last row is %q, want average", avg[0])
	}
	if rec := parsePct(t, avg[5]); rec <= 0 {
		t.Fatalf("average recovery share %.1f%%, want > 0", rec)
	}
	// No ordering assertion between the columns: inference may trail the
	// hand annotations (it is conservative at anything it cannot prove)
	// or beat them (interprocedural faint values reach kills the
	// compiler's per-call-site liveness never sees). Soundness is what
	// inferBuild enforces — both flavours must do identical architectural
	// work — and what the rewrite package's differential fuzz verifies.
	for _, row := range tab.Rows[:7] {
		for _, col := range []int{3, 4} {
			if v := parsePct(t, row[col]); v < 0 || v > 100 {
				t.Errorf("%s: elimination fraction %q out of range", row[0], row[col])
			}
		}
	}
}

// TestFigureGridsPassCheck runs every job of every figure's grid through
// the machine range table the front doors enforce (ooo.Config.Check):
// the ranges must admit every machine the figures build. Functional jobs
// contribute their emulator configuration (the LVM-Stack depth sweep).
func TestFigureGridsPassCheck(t *testing.T) {
	opt := DefaultOptions()
	for _, fig := range Figures() {
		if fig.Jobs == nil {
			continue
		}
		for _, j := range fig.Jobs(opt) {
			cfg := j.Machine
			if j.Kind != runner.Timing {
				cfg = ooo.DefaultConfig()
				cfg.Emu = j.Emu
			}
			if err := cfg.Check(); err != nil {
				t.Errorf("%s: %v", j.Label, err)
			}
		}
	}
}
