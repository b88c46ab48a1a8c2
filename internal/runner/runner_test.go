package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rename"
	"dvi/internal/sample"
	"dvi/internal/workload"
)

// countingCompile wraps workload.CompileSpec and counts invocations per
// build key.
func countingCompile(t *testing.T) (CompileFunc, *sync.Map) {
	t.Helper()
	var counts sync.Map // workload.BuildKey -> *atomic.Int64
	fn := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		c, _ := counts.LoadOrStore(s.Key(scale, opt), new(atomic.Int64))
		c.(*atomic.Int64).Add(1)
		return workload.CompileSpec(s, scale, opt)
	}
	return fn, &counts
}

// collect gathers a batch over Stream the way session.Collect does: the
// results in submission order, or the lowest-index failure, which
// cancels the rest of the batch.
func collect(ctx context.Context, eng *Engine, jobs []Job) ([]Result, error) {
	var out []Result
	err := eng.Stream(ctx, jobs, func(r Result) error {
		if r.Err != nil {
			return r.Err
		}
		out = append(out, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// grid builds a job list that references few distinct binaries many
// times: every workload at two EDVI flavours, four jobs each.
func grid(kind Kind) []Job {
	var jobs []Job
	for _, s := range workload.All() {
		for _, edvi := range []bool{false, true} {
			for rep := 0; rep < 4; rep++ {
				j := Job{
					Label:    fmt.Sprintf("%s edvi=%v rep%d", s.Name, edvi, rep),
					Workload: s,
					Scale:    1,
					Build:    workload.BuildOptions{EDVI: edvi},
					Kind:     kind,
				}
				if kind == Functional {
					j.Emu = emu.Config{DVI: core.Config{Level: core.None}}
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

func TestBuildCacheCompilesOncePerKey(t *testing.T) {
	compile, counts := countingCompile(t)
	eng := New(Options{Workers: 8, Compile: compile})
	jobs := grid(Build)

	results, err := collect(context.Background(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(results), len(jobs))
	}
	distinct := 0
	counts.Range(func(k, v any) bool {
		distinct++
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("key %v compiled %d times, want exactly 1", k, n)
		}
		return true
	})
	if want := len(workload.All()) * 2; distinct != want {
		t.Errorf("distinct keys = %d, want %d", distinct, want)
	}
	hits, misses := eng.Cache().Stats()
	if int(misses) != distinct {
		t.Errorf("cache misses = %d, want %d", misses, distinct)
	}
	if int(hits+misses) != len(jobs) {
		t.Errorf("hits+misses = %d, want %d", hits+misses, len(jobs))
	}
}

// TestSingleFlight gates the compile function so all workers pile onto
// one key simultaneously; exactly one compile must run.
func TestSingleFlight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		calls.Add(1)
		<-gate
		return workload.CompileSpec(s, scale, opt)
	}
	cache := NewBuildCache(compile, 0, nil)
	s, _ := workload.ByName("compress")

	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = cache.Get(context.Background(), s, 1, workload.BuildOptions{})
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compile ran %d times under concurrent Get, want 1", n)
	}
}

func TestResultsInSubmissionOrder(t *testing.T) {
	eng := New(Options{Workers: 8})
	jobs := grid(Functional)
	results, err := collect(context.Background(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Fatalf("results[%d].Index = %d", i, r.Index)
		}
		if r.Job.Label != jobs[i].Label {
			t.Fatalf("results[%d] is job %q, want %q", i, r.Job.Label, jobs[i].Label)
		}
		if r.Func.Total == 0 {
			t.Fatalf("results[%d]: empty functional stats", i)
		}
	}
}

// TestDeterministicAcrossWorkerCounts runs the same grid at -j 1 and
// -j 8 and requires identical statistics position by position.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := grid(Functional)
	r1, err := collect(context.Background(), New(Options{Workers: 1}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := collect(context.Background(), New(Options{Workers: 8}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if r1[i].Func != r8[i].Func {
			t.Errorf("job %d (%s): stats differ across worker counts:\n-j1: %+v\n-j8: %+v",
				i, jobs[i].Label, r1[i].Func, r8[i].Func)
		}
	}
}

func TestFailFast(t *testing.T) {
	boom := errors.New("boom")
	var compiles atomic.Int64
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		compiles.Add(1)
		if s.Name == "li" {
			return nil, nil, boom
		}
		return workload.CompileSpec(s, scale, opt)
	}
	eng := New(Options{Workers: 4, Compile: compile})
	_, err := collect(context.Background(), eng, grid(Build))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Fail-fast must abandon the tail: far fewer compiles than jobs.
	if n := compiles.Load(); n > int64(len(workload.All())*2) {
		t.Errorf("compiles after failure = %d; queue not abandoned", n)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := New(Options{Workers: 2})
	_, err := collect(ctx, eng, grid(Build))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressEvents(t *testing.T) {
	var mu sync.Mutex
	starts, dones := 0, 0
	eng := New(Options{Workers: 4, Progress: func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Phase {
		case JobStart:
			starts++
		case JobDone:
			dones++
		}
		if ev.Label == "" || ev.Total == 0 {
			t.Errorf("event missing label/total: %+v", ev)
		}
	}})
	jobs := grid(Build)
	if _, err := collect(context.Background(), eng, jobs); err != nil {
		t.Fatal(err)
	}
	if starts != len(jobs) || dones != len(jobs) {
		t.Errorf("events: %d starts, %d dones, want %d each", starts, dones, len(jobs))
	}
}

func TestTimingJobCarriesMachine(t *testing.T) {
	s, _ := workload.ByName("gcc")
	cfg := ooo.DefaultConfig()
	cfg.MaxInsts = 20_000
	eng := New(Options{Workers: 1})
	res, err := collect(context.Background(), eng, []Job{{
		Workload: s, Scale: 1,
		Build:       workload.BuildOptions{EDVI: true},
		Kind:        Timing,
		Machine:     cfg,
		KeepMachine: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Machine == nil {
		t.Fatal("timing result missing Machine")
	}
	if res[0].Timing.Committed == 0 || res[0].Timing.IPC() <= 0 {
		t.Errorf("implausible timing stats: %+v", res[0].Timing)
	}
	if res[0].Image == nil || res[0].Image.TextWords() == 0 {
		t.Error("timing result missing image")
	}
}

// TestSampledIntervalChecksMachine pins that an interval job on a machine
// the sampler cannot run answers an error instead of panicking in a
// worker: two contexts used to reach Boot's single-context panic, a
// negative window makeslice's, and a trace sink would take records from
// every interval job at once. The checks come before the checkpoint's
// recorded answers: a file too large for Check, in the class of a run
// whose peak it exceeds, still fails.
func TestSampledIntervalChecksMachine(t *testing.T) {
	eng := New(Options{Workers: 1})
	li, _ := workload.ByName("li")
	smt := ooo.DefaultConfig()
	smt.Contexts = 2
	neg := ooo.DefaultConfig()
	neg.WindowSize = -1
	traced := ooo.DefaultConfig()
	traced.Trace = obs.NewPipeBuffer(0)
	huge := ooo.DefaultConfig()
	huge.PhysRegs = rename.MaxPhys + 1
	for _, tc := range []struct {
		cfg  ooo.Config
		want string
	}{{smt, "single-context"}, {neg, "window_size"}, {traced, "mutually exclusive"}, {huge, "phys_regs"}} {
		ck := &sample.Checkpoint{MeasureLen: 1}
		ck.Record(ooo.DefaultConfig(), sample.IntervalResult{Insts: 1, Cycles: 1, MaxPhys: 40})
		_, err := collect(context.Background(), eng, []Job{{
			Workload: li, Scale: 1, Kind: SampledInterval, Machine: tc.cfg, Sample: ck,
		}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("err = %v, want one naming %q", err, tc.want)
		}
	}
}

// TestEngineRefusesSampledJob pins that a job carrying a sampling plan
// fails on the engine, before any build: the session's sampler runs
// such jobs, and an exact run would silently drop the plan.
func TestEngineRefusesSampledJob(t *testing.T) {
	compile, counts := countingCompile(t)
	eng := New(Options{Workers: 1, Compile: compile})
	li, _ := workload.ByName("li")
	_, err := collect(context.Background(), eng, []Job{{Label: "sampled li", Workload: li, Scale: 1,
		Kind: Timing, Machine: ooo.DefaultConfig(), Sampling: &sample.Options{}}})
	if err == nil || !strings.Contains(err.Error(), "sampled li") || !strings.Contains(err.Error(), "sampling plan") {
		t.Errorf("err = %v, want a refusal naming the job and its plan", err)
	}
	counts.Range(func(k, _ any) bool {
		t.Errorf("the engine built %v for a job it refuses", k)
		return true
	})
}
