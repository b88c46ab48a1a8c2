// Package session is the reproduction's orchestration layer: one
// long-lived, concurrency-safe handle that owns an execution engine
// (bounded worker pool), its single-flight build cache, and the pooled
// machine and emulator instances. Every front door — the dvi facade's
// one-shot runs, the experiment harness and its CLIs, and the HTTP
// service — routes through a Session, so they all share the same
// memoized builds, the same zero-alloc hot path, and the same
// cancellation and progress plumbing.
//
// A Session is constructed once with functional options (WithWorkers,
// WithCacheCapacity, WithProgress, WithCompile, WithStore) and then
// serves any number of concurrent calls. Each run is one Job: the
// workload, scale and binary flavour, the job kind, the machine or
// emulator it runs on, and a sampled Timing job's plan (Job.Sampling).
// BuildOptionsFor and EmuConfigFor derive the flavour and the emulator
// from a DVI level.
//
//	sess := session.New(session.WithWorkers(8))
//	w, _ := workload.ByName("perl")
//	cfg := ooo.DefaultConfig()
//	out, err := sess.Collect(ctx, []session.Job{{Workload: w, Scale: 2,
//	    Build: session.BuildOptionsFor(cfg.Emu.DVI.Level),
//	    Kind:  runner.Timing, Machine: cfg}})
//
// Run, the one batch path under Collect, streams ordered results while
// later jobs still run:
//
//	err := sess.Run(ctx, jobs, func(res session.Result) error {
//	    fmt.Println(res.Index, res.Timing.IPC())
//	    return nil
//	})
package session

import (
	"context"
	"slices"

	"dvi/internal/runner"
)

// Job is one unit of batch work; it is the engine's job type, re-exported
// so batch callers need not import internal/runner alongside session.
type Job = runner.Job

// Result is the outcome of one job, in submission order. Stream-delivered
// results carry per-job failures on Result.Err.
type Result = runner.Result

// Session owns one execution engine: a bounded worker pool over a
// single-flight, LRU-bounded build cache, plus pools of reusable machine
// and emulator instances. All methods are safe for concurrent use; one
// Session should serve a whole process (report, daemon, test suite) so
// every call shares the memoized builds and warm simulator instances.
type Session struct {
	eng *runner.Engine
}

// New builds a Session. With no options it sizes the worker pool to
// runtime.GOMAXPROCS(0), keeps the build cache unbounded (right for
// report runs over the fixed benchmark suite; long-lived daemons serving
// arbitrary client programs should set WithCacheCapacity), and compiles
// through workload.CompileSpec.
func New(opts ...Option) *Session {
	var o runner.Options
	for _, opt := range opts {
		opt(&o)
	}
	return &Session{eng: runner.New(o)}
}

// Engine exposes the session's execution engine (build cache accounting,
// worker count). The engine is owned by the session; callers must not
// submit work that assumes exclusive use.
func (s *Session) Engine() *runner.Engine { return s.eng }

// Workers returns the configured worker pool size.
func (s *Session) Workers() int { return s.eng.Workers() }

// Cache exposes the session's build cache (hit/miss/eviction accounting).
func (s *Session) Cache() *runner.BuildCache { return s.eng.Cache() }

// PoolStats reports the session's simulator instance pool effectiveness:
// how many jobs ran on a reset warm machine or emulator versus having to
// construct a fresh one. A healthy steady state (daemon or report run)
// reuses nearly always; a low reuse ratio means instances are being
// dropped (oversized client programs) or the pool is cold.
func (s *Session) PoolStats() runner.PoolStats { return s.eng.PoolStats() }

// Run is the session's one batch path. It executes a heterogeneous job
// batch and streams results to emit in submission order: result i is
// delivered as soon as results 0..i-1 have been, while later jobs still
// run. Per-job failures arrive on Result.Err (wrapped with the job's
// label) and do not abort the batch. emit is never called concurrently;
// returning a non-nil error cancels the batch and Run returns it.
// External cancellation of ctx returns ctx's error.
//
// A job with a sampling plan (Job.Sampling) must be a single-context
// Timing job whose machine passes sample.CheckMachine, or it fails
// alone before any build. Its result carries the estimate on Sampled
// and the estimate rendered as machine stats on Timing. Sampled jobs run
// first, in groups of equal scan key (binary, emulator, caches,
// predictor, instruction cap) and resolved plan that share one
// functional scan per round; groups run one at a time, in order of
// first appearance, so one group's checkpoints are alive at a time. A
// group's failure fails each of its members, and each estimate is the
// one the job gets alone. The other jobs then run as one engine batch;
// a batch with no plan is exactly runner.Engine.Stream.
func (s *Session) Run(ctx context.Context, jobs []Job, emit func(Result) error) error {
	if !slices.ContainsFunc(jobs, hasPlan) {
		return s.eng.Stream(ctx, jobs, emit)
	}
	buf := make([]Result, len(jobs))
	return s.run(ctx, jobs, buf, func(i int) error {
		err := emit(buf[i])
		buf[i] = Result{} // release its artifacts, as Stream does
		return err
	})
}

// run executes a batch as Run describes, files each result at
// buf[Index], and calls done(i) once results 0..i are all filed; done's
// error cancels the batch and run returns it. The caller owns buf, so
// Collect gathers into its own result slice without a second copy of
// the batch.
func (s *Session) run(ctx context.Context, jobs []Job, buf []Result, done func(i int) error) error {
	ready, next := make([]bool, len(jobs)), 0
	put := func(r Result) error {
		buf[r.Index], ready[r.Index] = r, true
		for ; next < len(jobs) && ready[next]; next++ {
			if err := done(next); err != nil {
				return err
			}
		}
		return nil
	}
	if !slices.ContainsFunc(jobs, hasPlan) {
		return s.eng.Stream(ctx, jobs, put)
	}
	var (
		groups   [][]int // sampled job indices per group key
		byKey    = map[groupKey]int{}
		exact    []Job
		exactIdx []int
	)
	for i, j := range jobs {
		if err := checkPlan(j); err != nil {
			if err := put(Result{Job: j, Index: i, Err: err}); err != nil {
				return err
			}
			continue
		}
		if j.Sampling == nil {
			exact = append(exact, j)
			exactIdx = append(exactIdx, i)
			continue
		}
		k := groupKey{scanKeyOf(j), resolvedPlan(j)}
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	for _, idx := range groups {
		group := make([]Job, len(idx))
		for k, i := range idx {
			group[k] = jobs[i]
		}
		out, err := s.sampleGroup(ctx, group)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		for k, i := range idx {
			r := Result{Job: jobs[i], Err: err}
			if err == nil {
				r = out[k]
			}
			r.Index = i
			if err := put(r); err != nil {
				return err
			}
		}
	}
	return s.eng.Stream(ctx, exact, func(r Result) error {
		r.Index = exactIdx[r.Index]
		return put(r)
	})
}

// Collect executes a job batch as Run does and returns all results in
// submission order. It is all-or-nothing: a sampled job the sampler
// cannot run (see Run) fails the call before any build, and otherwise
// the failure with the lowest index is returned (wrapped with the job's
// label) and the rest of the batch is cancelled, so a failing batch
// names the same job at any worker count. The experiment harness uses it
// because it renders figures only from complete grids.
func (s *Session) Collect(ctx context.Context, jobs []Job) ([]Result, error) {
	for _, j := range jobs {
		if err := checkPlan(j); err != nil {
			return nil, err
		}
	}
	out := make([]Result, len(jobs))
	if err := s.run(ctx, jobs, out, func(i int) error { return out[i].Err }); err != nil {
		return nil, err
	}
	return out, nil
}
