package harness

import (
	"context"
	"fmt"
	"io"

	"dvi/internal/runner"
	"dvi/internal/session"
)

// NewSession builds a session sized by opt.Workers with an optional
// progress observer. One session should serve a whole report so every
// figure shares its memoized build cache and warm simulator pools.
func NewSession(opt Options, progress runner.ProgressFunc) *session.Session {
	return session.New(session.WithWorkers(opt.Workers), session.WithProgress(progress))
}

// CollectResults resolves ids (plus transitive Needs), submits every
// required figure's job grid through sess as one batch, and returns the
// results keyed by figure ID. Grids are concatenated in registry order,
// so the batch — and therefore any report rendered from it — is
// identical at any worker count.
func CollectResults(ctx context.Context, sess *session.Session, opt Options, ids []string) (ResultSet, error) {
	need := map[string]bool{}
	var add func(id string) error
	add = func(id string) error {
		if need[id] {
			return nil
		}
		fig, ok := FigureByID(id)
		if !ok {
			return fmt.Errorf("harness: unknown figure %q (have %v)", id, FigureIDs())
		}
		need[id] = true
		for _, d := range fig.Needs {
			if err := add(d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if err := add(id); err != nil {
			return nil, err
		}
	}

	type span struct {
		id     string
		lo, hi int
	}
	var (
		jobs  []runner.Job
		spans []span
	)
	for _, fig := range Figures() {
		if !need[fig.ID] || fig.Jobs == nil {
			continue
		}
		js := fig.Jobs(opt)
		spans = append(spans, span{fig.ID, len(jobs), len(jobs) + len(js)})
		jobs = append(jobs, js...)
	}
	if opt.Sampling != nil {
		// A checkpoint restores one architectural state, so multi-context
		// (smt) jobs stay exact.
		for i, j := range jobs {
			if j.Kind == runner.Timing && j.Machine.ContextCount() == 1 {
				jobs[i].Sampling = opt.Sampling
			}
		}
	}
	results, err := sess.Collect(ctx, jobs)
	if err != nil {
		return nil, err
	}
	rs := ResultSet{}
	for _, sp := range spans {
		rs[sp.id] = results[sp.lo:sp.hi]
	}
	return rs, nil
}

// Rendered is one selected figure's tables.
type Rendered struct {
	Figure
	Tables []Table
}

// Report runs the selected figures through sess as one batch (their
// grids and the grids their Needs name, each collected once) and renders
// each selected figure in registry order; selection order does not affect
// the result. It also returns the batch's results keyed by figure ID. Any
// job or render error aborts the whole run.
func Report(ctx context.Context, sess *session.Session, opt Options, ids []string) ([]Rendered, ResultSet, error) {
	rs, err := CollectResults(ctx, sess, opt, ids)
	if err != nil {
		return nil, nil, err
	}
	selected := map[string]bool{}
	for _, id := range ids {
		selected[id] = true
	}
	var out []Rendered
	for _, fig := range Figures() {
		if !selected[fig.ID] {
			continue
		}
		tables, err := fig.Render(opt, rs)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", fig.ID, err)
		}
		out = append(out, Rendered{fig, tables})
	}
	return out, rs, nil
}

// RunFigures runs the selected figures through one shared session and
// writes their tables to w in registry order.
func RunFigures(ctx context.Context, sess *session.Session, opt Options, ids []string, w io.Writer) error {
	figs, _, err := Report(ctx, sess, opt, ids)
	if err != nil {
		return err
	}
	for _, f := range figs {
		for _, t := range f.Tables {
			fmt.Fprintln(w, t)
		}
	}
	return nil
}

// RunAll regenerates the nine paper figures and writes them to w, using
// opt.Workers concurrent workers over one shared build cache. The report
// bytes are identical at any worker count.
func RunAll(opt Options, w io.Writer) error {
	return RunFigures(context.Background(), NewSession(opt, nil), opt, ReportIDs(), w)
}
