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
// workload, scale and binary flavour, the job kind, and the machine or
// emulator it runs on. BuildOptionsFor and EmuConfigFor derive the
// flavour and the emulator from a DVI level.
//
//	sess := session.New(session.WithWorkers(8))
//	w, _ := workload.ByName("perl")
//	cfg := ooo.DefaultConfig()
//	out, err := sess.Collect(ctx, []session.Job{{Workload: w, Scale: 2,
//	    Build: session.BuildOptionsFor(cfg.Emu.DVI.Level),
//	    Kind:  runner.Timing, Machine: cfg}})
//
// Batches stream ordered results while later jobs still run:
//
//	err := sess.Run(ctx, jobs, func(res session.Result) error {
//	    fmt.Println(res.Index, res.Timing.IPC())
//	    return nil
//	})
package session

import (
	"context"

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
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return &Session{eng: runner.New(cfg.opts)}
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

// Run executes a heterogeneous job batch and streams results to emit in
// submission order: result i is delivered only after results 0..i-1, as
// soon as that prefix is complete, while later jobs still run. Per-job
// failures arrive on Result.Err (wrapped with the job's label) and do not
// abort the batch; jobs sharing a failed build fail identically through
// the build cache. emit is never called concurrently; returning a non-nil
// error cancels the batch and Run returns it. External cancellation of
// ctx returns ctx's error.
func (s *Session) Run(ctx context.Context, jobs []Job, emit func(Result) error) error {
	return s.eng.Stream(ctx, jobs, emit)
}

// Collect executes a job batch and returns all results in submission
// order. Unlike Run it fails fast: the first job error cancels the rest
// of the batch and is returned (wrapped with the job's label). Use it
// when a batch is all-or-nothing — the experiment harness renders
// figures only from complete grids.
func (s *Session) Collect(ctx context.Context, jobs []Job) ([]Result, error) {
	return s.eng.Run(ctx, jobs)
}
