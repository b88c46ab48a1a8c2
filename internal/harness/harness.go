// Package harness defines the paper's experiments: one figure per table
// or figure in the evaluation (Figures 2, 3, 5, 6, 9, 10, 11, 12, 13),
// plus the ablations DESIGN.md calls out. Each experiment declares a grid
// of simulation jobs and renders the grid's results into formatted
// Tables; internal/runner executes the grids on a bounded worker pool
// over a shared memoized build cache, so the full report saturates the
// machine while each (workload, scale, edvi) binary is compiled exactly
// once. RunAll writes the full report; reports are byte-identical at any
// worker count.
package harness

import (
	"fmt"
	"strings"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
)

// Options scales the experiments.
type Options struct {
	// Scale multiplies workload iteration counts (1 = a few hundred
	// thousand instructions per benchmark).
	Scale int
	// MaxInsts caps committed instructions per timing simulation
	// (0 = run to completion).
	MaxInsts uint64
	// SweepMaxInsts caps runs inside large parameter sweeps (Figure 5);
	// defaults to MaxInsts.
	SweepMaxInsts uint64
	// Workers bounds the experiment engine's worker pool
	// (<=0 = runtime.GOMAXPROCS(0)). Results are deterministic at any
	// setting; only wall-clock changes.
	Workers int
	// Sampling, when set, runs every single-context timing job through
	// the statistical sampler (internal/sample; CollectResults puts it on
	// each such job) instead of exact detailed simulation:
	// IPC figures become estimates, gain ±CI error-bound columns, and
	// the report runs several times faster. Exact mode (nil) is the
	// default and its output is byte-identical to previous releases.
	Sampling *sample.Options
}

// DefaultOptions returns a configuration that regenerates every figure in
// a few minutes.
func DefaultOptions() Options {
	return Options{Scale: 1, MaxInsts: 400_000, SweepMaxInsts: 120_000}
}

func (o Options) sweepBudget() uint64 {
	if o.SweepMaxInsts != 0 {
		return o.SweepMaxInsts
	}
	return o.MaxInsts
}

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// anySampled reports whether a figure's results came through the
// statistical sampler (Options.Sampling). Renderers use it to gate the
// ±CI error-bound column so exact-mode tables stay byte-identical.
func anySampled(res []runner.Result) bool {
	for _, r := range res {
		if r.Sampled != nil {
			return true
		}
	}
	return false
}

// maxRelCI returns the widest relative confidence-interval half-width
// among the results' sampled estimates — the worst-case error bound for a
// table row derived from them. Exact results contribute zero.
func maxRelCI(res ...runner.Result) float64 {
	var worst float64
	for _, r := range res {
		if r.Sampled != nil && r.Sampled.RelCI > worst {
			worst = r.Sampled.RelCI
		}
	}
	return worst
}

// sampledNote describes a sampled figure's plan for the table notes.
func sampledNote(res []runner.Result) string {
	for _, r := range res {
		if r.Sampled != nil {
			return fmt.Sprintf("sampled: interval %d, warmup %d; ±CI is the row's worst-case %.0f%% relative half-width",
				r.Sampled.Interval, r.Sampled.Warmup, 100*r.Sampled.Confidence)
		}
	}
	return ""
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func u64(x uint64) string  { return fmt.Sprintf("%d", x) }
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// dviLevels are the three Figure 5 configurations in presentation order.
var dviLevels = []core.Level{core.None, core.IDVI, core.Full}

// timingConfig builds the machine for one (level, scheme) combination.
func timingConfig(level core.Level, scheme emu.Scheme, budget uint64) ooo.Config {
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = budget
	cfg.Emu = session.EmuConfigFor(level, scheme)
	return cfg
}
