// Package runner is the experiment execution engine: it runs simulation
// jobs on a bounded worker pool over a memoizing, single-flight build
// cache. The experiment harness (internal/harness) declares grids of
// (workload × configuration) jobs and consumes ordered results; this
// package owns all concurrency so the experiments themselves stay
// declarative and deterministic.
//
// Stream is the engine's only batch call. Determinism contract: it
// delivers results in submission order regardless of completion order,
// every simulator instance is built from shared read-only compiled
// artifacts with private mutable state, and no job observes another
// job's scheduling. A report rendered from the delivered results is
// therefore byte-identical at any worker count, and so is the failure a
// caller that stops at the first failed result reports.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/sample"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// Kind selects what a job runs after its binary is built.
type Kind uint8

const (
	// Timing runs the out-of-order timing simulator (ooo.Machine).
	Timing Kind = iota
	// Functional runs the reference emulator (program-property studies:
	// Figures 3, 9, 13's dynamic overhead, the ablations).
	Functional
	// CtxSwitch samples live-register counts at preemption points
	// (ctxswitch.Measure, Figure 12).
	CtxSwitch
	// Build compiles and links only; the result carries the artifacts.
	// Figure 13 uses it for static code-size ratios.
	Build
	// SampledInterval runs one checkpointed interval of a sampled
	// simulation in detail (sample.RunInterval). The sampler submits one
	// job per selected interval; they are independent, so a batch spreads
	// across the pool like any other grid. A job whose result an earlier
	// run on the same checkpoint proves (sample.Checkpoint.Answer) is
	// answered from it without taking a machine.
	SampledInterval
)

// String returns the progress label for the kind.
func (k Kind) String() string {
	switch k {
	case Timing:
		return "timing"
	case Functional:
		return "functional"
	case CtxSwitch:
		return "ctxswitch"
	case SampledInterval:
		return "interval"
	default:
		return "build"
	}
}

// DefaultEmuBudget caps functional runs that set no explicit budget; it
// matches the harness's historical 200M-instruction safety net.
const DefaultEmuBudget = 200_000_000

// Job is one unit of experiment work: which benchmark binary to build
// (or fetch from the cache) and what to run it on.
type Job struct {
	// Label identifies the job in progress output and errors
	// ("fig5 gcc r34 edvi"). Optional; a default is derived.
	Label string

	// Workload, Scale and Build determine the binary; together they form
	// the build cache key (workload.BuildKey).
	Workload workload.Spec
	Scale    int
	Build    workload.BuildOptions

	Kind Kind

	// Machine configures Timing jobs.
	Machine ooo.Config
	// Emu configures Functional and CtxSwitch jobs.
	Emu emu.Config
	// EmuBudget caps Functional and CtxSwitch runs
	// (0 = DefaultEmuBudget).
	EmuBudget uint64
	// Interval is the CtxSwitch preemption sampling interval.
	Interval uint64

	// Sample is the checkpoint a SampledInterval job simulates. The
	// checkpoint's state is read-only during the run (only its recorded
	// answers grow) and owned by the submitting sampler (typically
	// acquired from AcquireCheckpoint).
	Sample *sample.Checkpoint

	// Sampling, when set on a Timing job, estimates it by statistical
	// sampling under this plan instead of an exact detailed run. The
	// session's sampler runs such jobs (session.Session.Run); the engine
	// refuses them.
	Sampling *sample.Options

	// KeepMachine retains the Timing simulator instance on the Result
	// for callers that need cache/predictor detail (cmd/dvisim). Off by
	// default: a machine pins its whole memory image, and large grids
	// retaining hundreds of them measurably slow the run with GC
	// pressure.
	KeepMachine bool
}

// label returns Label or a derived description.
func (j Job) label() string {
	if j.Label != "" {
		return j.Label
	}
	return fmt.Sprintf("%s %s", j.Kind, j.Workload.Key(j.Scale, j.Build))
}

// Result is the outcome of one job, in submission order.
type Result struct {
	Job   Job
	Index int

	// Program and Image are the (shared, read-only) compiled artifacts.
	Program *prog.Program
	Image   *prog.Image

	// Timing holds ooo statistics for Timing jobs; Machine is the
	// simulator instance itself, retained only when Job.KeepMachine is
	// set. CtxStats carries the per-context breakdown for multi-context
	// Timing jobs (nil on single-context machines, where the aggregate is
	// the whole story).
	Timing   ooo.Stats
	CtxStats []ooo.Stats
	Machine  *ooo.Machine

	// Func holds emulator statistics for Functional jobs.
	Func emu.Stats

	// Switch holds the measurement for CtxSwitch jobs.
	Switch ctxswitch.Result

	// Interval holds the measurement for SampledInterval jobs.
	Interval sample.IntervalResult

	// Sampled carries the whole-program estimate when the session ran a
	// Timing job through the statistical sampler instead of an exact
	// detailed run; Timing then holds the estimate rendered as machine
	// stats. Exact runs leave it nil.
	Sampled *sample.Estimate

	// Err is the job's failure, wrapped with its label. Stream sets it on
	// the failed job's result and keeps the batch going.
	Err error
}

// Phase tags a progress event.
type Phase uint8

const (
	// JobStart fires when a worker picks the job up.
	JobStart Phase = iota
	// JobDone fires after the job completed successfully.
	JobDone
	// JobFailed fires after the job failed.
	JobFailed
)

// Event is one progress notification. Events for different jobs
// interleave arbitrarily under concurrency; Index orders them logically.
type Event struct {
	Phase Phase
	Index int
	Total int
	Label string
	Err   error // JobFailed only
}

// ProgressFunc observes job lifecycle events. It is called from worker
// goroutines and must be safe for concurrent use.
//
// Ordering contract: for any single job, its JobStart happens-before its
// JobDone or JobFailed (delivered on the same goroutine, so a callback
// that tracks per-job state needs no synchronization per Index). Events
// for different jobs carry no ordering at all — a batch running on N
// workers interleaves up to N jobs' events arbitrarily, and Index values
// do not arrive monotonically. Callbacks must not block: every event is
// delivered inline on a worker goroutine, so a slow callback stalls that
// worker's job pipeline.
type ProgressFunc func(Event)

// Options configures an Engine.
type Options struct {
	// Workers bounds the pool (<=0 means runtime.GOMAXPROCS(0)).
	Workers int
	// Progress, when non-nil, receives per-job lifecycle events. It is
	// invoked concurrently from worker goroutines; see ProgressFunc for
	// the exact ordering contract.
	Progress ProgressFunc
	// Compile overrides the build function (nil = workload.CompileSpec).
	Compile CompileFunc
	// CacheCapacity bounds the build cache to this many binaries with
	// LRU eviction (<=0 = unbounded). Batch report runs can stay
	// unbounded; long-lived daemons accepting arbitrary user assembly
	// should set a bound.
	CacheCapacity int
	// Store, when non-nil, backs the build cache with an on-disk
	// artifact store: cache misses decode persisted artifacts instead
	// of compiling, and fresh compiles are written through, so restarts
	// on the same directory skip every compile. Sampled runs persist
	// their interval-result sets through the same store.
	Store *store.Store
}

// Engine executes job batches. One engine owns one build cache, so every
// batch submitted through it shares memoized binaries; create one engine
// per report and feed it all figures' grids.
//
// The engine also owns pools of reusable simulator instances: a timing
// machine or emulator is reset per job (ooo.Machine.Reset /
// emu.Emulator.ResetFor — observably identical to a fresh one) instead of
// reallocating its window, caches, predictor tables and memory image.
// This is what keeps a long-lived daemon's steady-state allocation per
// simulation request small, and a large report grid off the garbage
// collector.
type Engine struct {
	workers  int
	progress ProgressFunc
	cache    *BuildCache

	machines    sync.Pool // *ooo.Machine
	emus        sync.Pool // *emu.Emulator
	checkpoints sync.Pool // *sample.Checkpoint

	// Pool effectiveness accounting: how often a job ran on a reset warm
	// instance versus having to build a fresh one (PoolStats; exported by
	// the service as /metrics counters).
	machineReuse, machineFresh atomic.Int64
	emuReuse, emuFresh         atomic.Int64
	ckReuse, ckFresh           atomic.Int64
}

// PoolStats reports instance pool effectiveness: jobs served by resetting
// a pooled warm machine/emulator versus constructing a fresh one. (The GC
// may empty a sync.Pool at any time, so fresh counts are an upper bound
// on true misses.)
type PoolStats struct {
	MachineReuse, MachineFresh int64
	EmuReuse, EmuFresh         int64
	// Checkpoint buffer pool effectiveness: a reused checkpoint keeps its
	// grown snapshot slices (memory delta, cache lines, predictor
	// tables), so a steady stream of sampled runs allocates nothing per
	// capture.
	CheckpointReuse, CheckpointFresh int64
}

// PoolStats returns the engine's instance pool counters.
func (e *Engine) PoolStats() PoolStats {
	return PoolStats{
		MachineReuse:    e.machineReuse.Load(),
		MachineFresh:    e.machineFresh.Load(),
		EmuReuse:        e.emuReuse.Load(),
		EmuFresh:        e.emuFresh.Load(),
		CheckpointReuse: e.ckReuse.Load(),
		CheckpointFresh: e.ckFresh.Load(),
	}
}

// New builds an engine.
func New(opt Options) *Engine {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w, progress: opt.Progress, cache: NewBuildCache(opt.Compile, opt.CacheCapacity, opt.Store)}
}

// Workers returns the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// Cache exposes the engine's build cache (hit/miss accounting).
func (e *Engine) Cache() *BuildCache { return e.cache }

// Store exposes the artifact store backing the build cache (nil when
// the engine is purely in-memory).
func (e *Engine) Store() *store.Store { return e.cache.Store() }

func (e *Engine) emit(ev Event) {
	if e.progress != nil {
		e.progress(ev)
	}
}

// getMachine returns a pooled timing machine reset for (pr, img, cfg), or
// a fresh one when the pool is empty.
func (e *Engine) getMachine(pr *prog.Program, img *prog.Image, cfg ooo.Config) *ooo.Machine {
	if m, ok := e.machines.Get().(*ooo.Machine); ok {
		e.machineReuse.Add(1)
		m.Reset(pr, img, cfg)
		return m
	}
	e.machineFresh.Add(1)
	return ooo.New(pr, img, cfg)
}

// getEmu returns a pooled emulator reset for (pr, img, cfg), or a fresh
// one when the pool is empty.
func (e *Engine) getEmu(pr *prog.Program, img *prog.Image, cfg emu.Config) *emu.Emulator {
	if em, ok := e.emus.Get().(*emu.Emulator); ok {
		e.emuReuse.Add(1)
		em.ResetFor(pr, img, cfg)
		return em
	}
	e.emuFresh.Add(1)
	return emu.New(pr, img, cfg)
}

// putMachine returns a machine to the pool unless the job it just ran
// left it with an outsized memory footprint — those are dropped at once
// so a burst of large client programs cannot pin their pages in a
// long-lived daemon's pool.
func (e *Engine) putMachine(m *ooo.Machine) {
	if m.Emu().Mem.Oversized() {
		return
	}
	e.machines.Put(m)
}

// putEmu is putMachine for emulators.
func (e *Engine) putEmu(em *emu.Emulator) {
	if em.Mem.Oversized() {
		return
	}
	e.emus.Put(em)
}

// runJob builds (or fetches) the binary and executes one job. queueWait
// is how long the job sat queued behind the batch before a worker picked
// it up; it only annotates the job's span (zero cost with tracing off).
func (e *Engine) runJob(ctx context.Context, j Job, queueWait time.Duration) (Result, error) {
	if j.Sampling != nil {
		return Result{}, errors.New("runner: a job with a sampling plan runs through the session's sampler")
	}
	ctx, span := obs.StartSpan(ctx, "job")
	if span != nil {
		span.SetAttr("label", j.label())
		span.SetAttr("kind", j.Kind.String())
		span.SetAttr("queue_wait_ms", float64(queueWait)/float64(time.Millisecond))
		defer span.End()
	}

	bctx, bspan := obs.StartSpan(ctx, "build")
	pr, img, err := e.cache.Get(bctx, j.Workload, j.Scale, j.Build)
	bspan.End()
	if err != nil {
		return Result{}, err
	}
	res := Result{Job: j, Program: pr, Image: img}
	_, kspan := obs.StartSpan(ctx, j.Kind.String())
	defer kspan.End()
	switch j.Kind {
	case Timing:
		if err := j.Machine.Check(); err != nil {
			return res, err
		}
		m := e.getMachine(pr, img, j.Machine)
		st, err := m.Run()
		if err != nil {
			return res, err
		}
		res.Timing = st
		if m.Contexts() > 1 {
			res.CtxStats = m.CtxStats()
		}
		if j.KeepMachine {
			// The caller owns this instance now; it must not be pooled.
			res.Machine = m
		} else {
			e.putMachine(m)
		}
	case Functional:
		em := e.getEmu(pr, img, j.Emu)
		budget := j.EmuBudget
		if budget == 0 {
			budget = DefaultEmuBudget
		}
		if err := em.Run(budget); err != nil {
			return res, err
		}
		res.Func = em.Stats
		e.putEmu(em)
	case CtxSwitch:
		budget := j.EmuBudget
		if budget == 0 {
			budget = DefaultEmuBudget
		}
		em := e.getEmu(pr, img, j.Emu)
		sw, err := ctxswitch.MeasureEmulator(em, j.Interval, budget)
		if err != nil {
			return res, err
		}
		res.Switch = sw
		e.putEmu(em)
	case SampledInterval:
		if j.Sample == nil {
			return res, fmt.Errorf("runner: SampledInterval job without a checkpoint")
		}
		if err := sample.CheckMachine(j.Machine); err != nil {
			return res, err
		}
		// An earlier run on this checkpoint may prove the result (same
		// machine, or a register file that never filled); the job then
		// takes no machine.
		iv, ok := j.Sample.Answer(j.Machine)
		if !ok {
			m := e.getMachine(pr, img, j.Machine)
			var err error
			if iv, err = sample.RunInterval(m, j.Sample); err != nil {
				return res, err
			}
			j.Sample.Record(j.Machine, iv)
			e.putMachine(m)
		}
		res.Interval = iv
	case Build:
		// Artifacts only.
	default:
		return res, fmt.Errorf("runner: unknown job kind %d", j.Kind)
	}
	return res, nil
}
