package session

import (
	"dvi/internal/runner"
	"dvi/internal/store"
)

// Option configures a Session at construction time by setting a field
// of its engine's options.
type Option func(*runner.Options)

// WithWorkers bounds the session's worker pool (<=0 means
// runtime.GOMAXPROCS(0)). Results are deterministic at any setting; only
// wall-clock changes.
func WithWorkers(n int) Option {
	return func(o *runner.Options) { o.Workers = n }
}

// WithCacheCapacity bounds the build cache to this many binaries with LRU
// eviction (<=0 = unbounded). Report runs over the fixed benchmark suite
// can stay unbounded; long-lived daemons compiling arbitrary client
// programs should set a bound.
func WithCacheCapacity(n int) Option {
	return func(o *runner.Options) { o.CacheCapacity = n }
}

// WithProgress installs a per-job lifecycle observer. It is called from
// worker goroutines and must be safe for concurrent use.
func WithProgress(fn runner.ProgressFunc) Option {
	return func(o *runner.Options) { o.Progress = fn }
}

// WithCompile overrides the build function (nil = workload.CompileSpec).
// Tests substitute counting, stalling or failing variants.
func WithCompile(fn runner.CompileFunc) Option {
	return func(o *runner.Options) { o.Compile = fn }
}

// WithStore backs the session's build cache with an on-disk artifact
// store: compiled binaries and sampled-run results persist across
// restarts, so a warm session skips compiles and sampled re-scans
// entirely. Nil keeps everything in memory.
func WithStore(st *store.Store) Option {
	return func(o *runner.Options) { o.Store = st }
}
