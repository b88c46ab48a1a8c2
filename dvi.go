// Package dvi is a reproduction of "Exploiting Dead Value Information"
// (Milo M. Martin, Amir Roth, Charles N. Fischer; MICRO-30, 1997).
//
// Dead Value Information (DVI) consists of compiler assertions that
// certain register values are dead — they will be overwritten before they
// are read again. The paper shows a processor can exploit DVI three ways:
// reclaiming physical registers early so the renaming file can shrink
// (§4), dynamically eliminating dead callee-saved save and restore
// instructions at procedure calls (§5), and eliminating dead register
// traffic at context switches (§6).
//
// This package is the public face of the reproduction. It bundles:
//
//   - a complete out-of-order timing simulator (4-wide, 64-entry window,
//     MIPS R10000-style renaming over an explicit physical register file,
//     two-level caches, combining branch predictor) with the paper's DVI
//     hardware: the Live Value Mask, the 16-entry LVM-Stack, live-load and
//     live-store instructions, explicit kill instructions, and implicit
//     DVI at calls and returns;
//   - a functional reference emulator with a dead-value soundness checker;
//   - a compiler (mini-IR → machine code) and a binary rewriting pass that
//     computes liveness and inserts kill annotations;
//   - seven synthetic SPEC95int-like workloads;
//   - the experiment harness that regenerates every table and figure in
//     the paper's evaluation (see EXPERIMENTS.md).
//
// Quick start:
//
//	w, _ := dvi.WorkloadByName("perl")
//	stats, _ := dvi.Simulate(w, 1, dvi.DefaultMachineConfig())
//	fmt.Printf("IPC %.2f, eliminated %d saves and %d restores\n",
//	    stats.IPC(), stats.ElimSaves, stats.ElimRests)
package dvi

import (
	"context"
	"io"
	"sync"

	"dvi/internal/cacti"
	"dvi/internal/core"
	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/harness"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// Re-exported types. The facade is intentionally thin: each alias is the
// real implementation type, so the full API of the internal packages is
// available through values obtained here.
type (
	// MachineConfig parameterizes the out-of-order machine (Figure 2).
	MachineConfig = ooo.Config
	// MachineStats are the timing results of one simulation.
	MachineStats = ooo.Stats
	// FetchPolicy selects how a multi-context machine arbitrates its one
	// fetch slot per cycle.
	FetchPolicy = ooo.FetchPolicy

	// DVIConfig selects the DVI hardware behaviour.
	DVIConfig = core.Config
	// DVILevel selects which DVI sources are honoured.
	DVILevel = core.Level

	// Scheme selects the save/restore elimination scheme.
	Scheme = emu.Scheme
	// EmulatorConfig parameterizes the functional emulator.
	EmulatorConfig = emu.Config
	// Emulator is the functional reference implementation.
	Emulator = emu.Emulator

	// Workload is one of the seven benchmark programs.
	Workload = workload.Spec
	// BuildOptions selects the binary flavour (with or without E-DVI).
	BuildOptions = workload.BuildOptions

	// Program is a symbolic (pre-link) program.
	Program = prog.Program
	// Image is a linked executable image.
	Image = prog.Image

	// RewriteOptions configures the binary rewriting DVI inserter.
	RewriteOptions = rewrite.Options

	// ExperimentOptions scales the paper experiments; its Workers field
	// bounds the experiment engine's worker pool.
	ExperimentOptions = harness.Options

	// Session is the orchestration layer: a long-lived, concurrency-safe
	// handle owning one execution engine, its single-flight build cache,
	// and the pooled machine/emulator instances. Every run — the
	// one-shot functions here, the harness and CLIs, the HTTP service —
	// is a RunnerJob submitted to a Session (Run, Collect,
	// CollectSampled). Construct with NewSession; the one-shot facade
	// functions share a lazily-initialized DefaultSession.
	Session = session.Session
	// SessionOption configures a Session at construction time; see
	// WithWorkers.
	SessionOption = session.Option

	// RunnerJob is one unit of experiment work: which binary to build or
	// fetch from the cache, and what to run it on.
	RunnerJob = runner.Job
	// RunnerResult is the outcome of one job, in submission order.
	RunnerResult = runner.Result
	// RunnerBuildCache memoizes compiled binaries by BuildKey with
	// single-flight deduplication.
	RunnerBuildCache = runner.BuildCache

	// BuildKey uniquely identifies one compiled binary flavour; it is
	// the build cache's memoization key.
	BuildKey = workload.BuildKey

	// SwitchResult is a context-switch liveness measurement (§6).
	SwitchResult = ctxswitch.Result
	// ThreadScheduler runs emulators round-robin with preemptive switches
	// whose save/restore sequences honour DVI (§6.1).
	ThreadScheduler = ctxswitch.Scheduler

	// RegfileTiming is the CACTI-derived register file access time model
	// used by Figure 6.
	RegfileTiming = cacti.Model

	// SamplingOptions parameterizes statistical sampling (interval
	// length, warmup, selection period/seed, target CI).
	SamplingOptions = sample.Options
	// SampledEstimate is a whole-program estimate produced by the
	// sampler: estimated cycles/IPC with a confidence interval, plus the
	// exact architectural counts from the functional pass.
	SampledEstimate = sample.Estimate
)

// DVI levels (paper Figure 5's three configurations).
const (
	DVINone = core.None
	DVIIDVI = core.IDVI
	DVIFull = core.Full
)

// Save/restore elimination schemes (paper §5.2).
const (
	ElimOff      = emu.ElimOff
	ElimLVM      = emu.ElimLVM
	ElimLVMStack = emu.ElimLVMStack
)

// Multi-context (SMT) fetch arbitration policies.
const (
	// FetchRoundRobin rotates the fetch slot over the eligible contexts.
	FetchRoundRobin = ooo.FetchRoundRobin
	// FetchICOUNT fetches for the context with the fewest in-flight
	// instructions (fetch queue + window) — the starvation-resistant
	// policy.
	FetchICOUNT = ooo.FetchICOUNT
)

// Kill placement policies for the binary rewriter.
const (
	KillsBeforeCalls = rewrite.KillsBeforeCalls
	KillsAtDeath     = rewrite.KillsAtDeath
)

// Runner job kinds.
const (
	// JobTiming runs the out-of-order timing simulator.
	JobTiming = runner.Timing
	// JobFunctional runs the functional reference emulator.
	JobFunctional = runner.Functional
	// JobCtxSwitch samples context-switch liveness.
	JobCtxSwitch = runner.CtxSwitch
	// JobBuild compiles and links only.
	JobBuild = runner.Build
)

// DefaultSessionCacheCapacity bounds the default Session's build cache;
// it comfortably holds the benchmark suite in every flavour while keeping
// a long-lived process that sweeps many scales from pinning every binary
// it ever compiled.
const DefaultSessionCacheCapacity = 64

// NewSession builds an orchestration session: one engine, one build
// cache, one set of simulator pools serving every call made through it.
// Construct one per process (report, daemon, test suite) so repeated and
// concurrent calls share memoized builds and warm simulator instances.
func NewSession(opts ...SessionOption) *Session { return session.New(opts...) }

// WithWorkers bounds the session's worker pool
// (<=0 = runtime.GOMAXPROCS(0)).
var WithWorkers = session.WithWorkers

var (
	defaultSessionOnce sync.Once
	defaultSession     *Session
)

// DefaultSession returns the lazily-initialized Session behind the
// package's one-shot runs (Simulate, SimulateSampled, Emulate). Because they
// share it, repeated one-shot calls hit its build cache and simulator
// pools instead of recompiling: the first Simulate of a flavour pays the
// compile, the rest reuse it.
func DefaultSession() *Session {
	defaultSessionOnce.Do(func() {
		defaultSession = session.New(session.WithCacheCapacity(DefaultSessionCacheCapacity))
	})
	return defaultSession
}

// DefaultMachineConfig returns the paper's machine (Figure 2) with full
// DVI hardware enabled.
func DefaultMachineConfig() MachineConfig { return ooo.DefaultConfig() }

// DefaultDVIConfig returns full DVI with the standard ABI and a 16-entry
// LVM-Stack.
func DefaultDVIConfig() DVIConfig { return core.DefaultConfig() }

// Workloads returns the seven SPEC95int-like benchmarks.
func Workloads() []Workload { return workload.All() }

// WorkloadByName finds a benchmark ("compress", "go", "ijpeg", "li",
// "vortex", "perl", "gcc").
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// BuildOptionsFor derives the binary flavour from a DVI level: E-DVI
// annotated binaries exactly for full DVI, plain ones for none and
// I-DVI. A RunnerJob takes its Build from here.
func BuildOptionsFor(level DVILevel) BuildOptions { return session.BuildOptionsFor(level) }

// EmuConfigFor assembles the emulator configuration for a DVI level and
// elimination scheme; at I-DVI it carries the calling convention's
// implicit kills.
func EmuConfigFor(level DVILevel, scheme Scheme) EmulatorConfig {
	return session.EmuConfigFor(level, scheme)
}

// Build compiles and links one workload. With edvi true the binary
// carries kill annotations (the paper's DVI-annotated executable). The
// artifacts are a private, mutable copy — callers may rewrite and
// re-link them — so Build always compiles; a Build-kind RunnerJob
// returns the session's cached, shared, read-only artifacts.
func Build(w Workload, scale int, edvi bool) (*Program, *Image, error) {
	return workload.CompileSpec(w, scale, BuildOptions{EDVI: edvi})
}

// Simulate builds a workload (with E-DVI annotations when the machine's
// DVI level honours them; see BuildOptionsFor) and runs it on the timing
// simulator. It routes through the default Session: repeated calls share
// one compile per binary flavour and reuse pooled machine instances. A
// machine that fails its Check is refused before any build.
func Simulate(w Workload, scale int, cfg MachineConfig) (MachineStats, error) {
	if err := cfg.Check(); err != nil {
		return MachineStats{}, err
	}
	out, err := DefaultSession().Collect(context.Background(), []RunnerJob{timingJob(w, scale, cfg)})
	if err != nil {
		return MachineStats{}, err
	}
	return out[0].Timing, nil
}

// SimulateSampled estimates a workload's timing by statistical sampling
// through the default Session: checkpointed intervals are simulated in
// detail on the worker pool and combined into a whole-program estimate
// with a confidence interval. Architectural counts (eliminations, kills,
// faults) are exact; cycles and IPC carry the reported error bound. The
// machine must pass its Check, run one context (a checkpoint restores
// one architectural state) and carry no trace sink.
func SimulateSampled(w Workload, scale int, cfg MachineConfig, opt SamplingOptions) (SampledEstimate, error) {
	if err := sample.CheckMachine(cfg); err != nil {
		return SampledEstimate{}, err
	}
	out, err := DefaultSession().CollectSampled(context.Background(), []RunnerJob{timingJob(w, scale, cfg)}, opt)
	if err != nil {
		return SampledEstimate{}, err
	}
	return *out[0].Sampled, nil
}

// timingJob is the one-shot timing run of w on cfg.
func timingJob(w Workload, scale int, cfg MachineConfig) RunnerJob {
	return RunnerJob{Workload: w, Scale: scale, Build: BuildOptionsFor(cfg.Emu.DVI.Level), Kind: JobTiming, Machine: cfg}
}

// Emulate runs a workload on the functional reference emulator and returns
// it for inspection (checksum, statistics, DVI tracker). The binary comes
// from the default Session's build cache (flavour derived from cfg's DVI
// level); the emulator itself is fresh so the caller owns it.
func Emulate(w Workload, scale int, cfg EmulatorConfig) (*Emulator, error) {
	pr, img, err := DefaultSession().Cache().Get(context.Background(), w, scale, BuildOptionsFor(cfg.DVI.Level))
	if err != nil {
		return nil, err
	}
	e := emu.New(pr, img, cfg)
	err = e.Run(0)
	return e, err
}

// InsertKills runs the binary rewriting DVI inserter over a program
// (paper §2's "simple binary rewriting tool"). Call before linking.
func InsertKills(pr *Program, opt RewriteOptions) (int, error) {
	return rewrite.InsertKills(pr, opt)
}

// MeasureContextSwitch samples live-register counts at preemption points
// (paper §6.2's Figure 12 methodology).
func MeasureContextSwitch(pr *Program, img *Image, cfg EmulatorConfig, interval, maxInsts uint64) (SwitchResult, error) {
	return ctxswitch.Measure(pr, img, cfg, interval, maxInsts)
}

// NewEmulator builds a functional emulator over a linked program.
func NewEmulator(pr *Program, img *Image, cfg EmulatorConfig) *Emulator {
	return emu.New(pr, img, cfg)
}

// NewThreadScheduler builds a preemptive round-robin scheduler over
// emulated threads. With useDVI true the switch sequences use
// live-stores/live-loads and lvm-save/lvm-load, eliminating dead-register
// traffic; eliminated restores are poisoned so unsound liveness would
// corrupt results.
func NewThreadScheduler(quantum uint64, useDVI bool, threads ...*Emulator) *ThreadScheduler {
	return ctxswitch.NewScheduler(quantum, useDVI, threads...)
}

// DefaultRegfileTiming returns the calibrated register file access time
// model (linear in registers, quadratic in ports; §4.2).
func DefaultRegfileTiming() RegfileTiming { return cacti.Default() }

// DefaultExperimentOptions sizes the experiments to finish in minutes.
func DefaultExperimentOptions() ExperimentOptions { return harness.DefaultOptions() }

// ExperimentIDs returns every selectable experiment ID in report order
// (the nine paper figures followed by the ablations).
func ExperimentIDs() []string { return harness.FigureIDs() }

// RunAllExperiments regenerates every table and figure, writing the report
// to w. opt.Workers bounds the concurrent worker pool; the report bytes
// are identical at any setting. See cmd/dvibench for the command-line
// entry point.
func RunAllExperiments(opt ExperimentOptions, w io.Writer) error {
	return harness.RunAll(opt, w)
}

// RunExperiments runs the selected experiments (see ExperimentIDs) plus
// any dependencies through sess — one shared session, engine and build
// cache — and writes their tables to w in report order.
func RunExperiments(ctx context.Context, sess *Session, opt ExperimentOptions, ids []string, w io.Writer) error {
	return harness.RunFigures(ctx, sess, opt, ids, w)
}

// FormatAsm renders a symbolic program as assembly text, the form a
// Workload's Asm field and the dvid daemon's wire take. Format, parse and
// format again is a fixed point, and the reparsed program links
// byte-identically.
func FormatAsm(pr *Program) string { return prog.FormatAsm(pr) }
