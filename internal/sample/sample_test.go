package sample

import (
	"math"
	"reflect"
	"testing"

	"dvi/internal/emu"
	"dvi/internal/mem"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/workload"
)

// fixture bundles one compiled workload, its scan under a plan, and a
// machine tests can Reset and reuse.
type fixture struct {
	pr     *prog.Program
	img    *prog.Image
	cfg    ooo.Config
	opt    Options
	res    ScanResult
	usable []*Checkpoint // checkpoints with a non-empty measured region
	m      *ooo.Machine
}

func (f *fixture) reset() { f.m.Reset(f.pr, f.img, f.cfg) }

// scanWorkload compiles name at scale 1 and runs one functional pass
// under opt.
func scanWorkload(t *testing.T, name string, scheme emu.Scheme, opt Options) *fixture {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	pr, img, err := workload.CompileSpec(spec, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	cfg := ooo.DefaultConfig()
	cfg.Emu.Scheme = scheme

	base := mem.New()
	img.LoadInto(base, pr.Data)
	e := emu.New(pr, img, cfg.Emu)

	period := opt.WithDefaults().Period
	sc := NewScanner()
	res := sc.Scan(e, base, cfg.Hierarchy, cfg.Pred, opt, func(idx int) bool {
		return Selected(idx, period, opt.Seed)
	}, func() *Checkpoint { return new(Checkpoint) })

	f := &fixture{pr: pr, img: img, cfg: cfg, opt: opt, res: res, m: ooo.New(pr, img, cfg)}
	for _, ck := range res.Checkpoints {
		if ck.MeasureLen > 0 {
			f.usable = append(f.usable, ck)
		}
	}
	return f
}

// runAll simulates every usable checkpoint on the fixture's machine.
func (f *fixture) runAll(t *testing.T) []IntervalResult {
	t.Helper()
	var results []IntervalResult
	for _, ck := range f.usable {
		f.reset()
		iv, err := RunInterval(f.m, ck)
		if err != nil {
			t.Fatalf("interval %d: %v", ck.Index, err)
		}
		results = append(results, iv)
	}
	return results
}

func TestSelectedSystematic(t *testing.T) {
	if !Selected(3, 1, 99) {
		t.Error("period 1 must select every interval")
	}
	count := 0
	for idx := 0; idx < 64; idx++ {
		if Selected(idx, 8, 5) {
			count++
			if idx%8 != 5 {
				t.Errorf("idx %d selected under period 8 seed 5", idx)
			}
		}
	}
	if count != 8 {
		t.Errorf("selected %d of 64 intervals at period 8, want 8", count)
	}
}

func TestWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Interval != DefaultInterval || o.Warmup != DefaultInterval/5 || o.Period != DefaultPeriod {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{Interval: 4000, Warmup: 500, Period: 3}.WithDefaults()
	if o.Interval != 4000 || o.Warmup != 500 || o.Period != 3 {
		t.Errorf("explicit options altered: %+v", o)
	}
}

// TestScanMatchesExactRun pins that the scan's exact side — total
// instruction count and whole-program architectural stats — is identical
// to a plain emulator run, and that checkpoints land on the selected
// intervals with the right warmup gaps.
func TestScanMatchesExactRun(t *testing.T) {
	opt := Options{Interval: 4000, Warmup: 1000, Period: 4, Seed: 1}
	f := scanWorkload(t, "go", emu.ElimLVMStack, opt)

	ref := emu.New(f.pr, f.img, f.cfg.Emu)
	for !ref.Halted {
		ref.Step()
	}
	if f.res.Exact != ref.Stats {
		t.Errorf("scan exact stats %+v\nwant %+v", f.res.Exact, ref.Stats)
	}
	if f.res.TotalInsts != ref.Stats.Original() {
		t.Errorf("TotalInsts %d, want %d", f.res.TotalInsts, ref.Stats.Original())
	}
	wantIntervals := int((f.res.TotalInsts + opt.Interval - 1) / opt.Interval)
	if f.res.Intervals != wantIntervals {
		t.Errorf("Intervals %d, want %d", f.res.Intervals, wantIntervals)
	}
	if len(f.usable) == 0 {
		t.Fatal("no usable checkpoints")
	}
	for _, ck := range f.usable {
		if !Selected(ck.Index, 4, 1) {
			t.Errorf("checkpoint for unselected interval %d", ck.Index)
		}
		start := uint64(ck.Index) * opt.Interval
		wantGap := opt.Warmup
		if start < opt.Warmup {
			wantGap = start
		}
		if ck.WarmupGap != wantGap {
			t.Errorf("interval %d: warmup gap %d, want %d", ck.Index, ck.WarmupGap, wantGap)
		}
	}
}

// TestFullCoverageTilesProgram pins the limiting case: with period 1
// every interval is measured, the intervals tile the program (up to the
// cycle-granular boundary slack RunInterval documents), and the estimate
// lands within its reported CI of an exact detailed run.
func TestFullCoverageTilesProgram(t *testing.T) {
	opt := Options{Interval: 4000, Warmup: 1, Period: 1}
	f := scanWorkload(t, "li", emu.ElimLVM, opt)
	results := f.runAll(t)

	var sumInsts uint64
	for _, iv := range results {
		sumInsts += iv.Insts
	}
	slack := uint64(len(results) * (f.cfg.IssueWidth - 1))
	if sumInsts < f.res.TotalInsts-slack || sumInsts > f.res.TotalInsts+slack {
		t.Errorf("measured %d instructions across intervals, want %d ± %d",
			sumInsts, f.res.TotalInsts, slack)
	}

	est, err := Aggregate(f.res, results, opt)
	if err != nil {
		t.Fatal(err)
	}
	if est.Measured != f.res.Intervals {
		t.Errorf("measured %d of %d intervals at period 1", est.Measured, f.res.Intervals)
	}

	f.reset()
	exact, err := f.m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.IPC - exact.IPC()); diff > est.CIHalfWidth {
		t.Errorf("estimated IPC %.4f outside CI ±%.4f of exact %.4f",
			est.IPC, est.CIHalfWidth, exact.IPC())
	}
	if est.Stats.Committed != exact.Committed {
		t.Errorf("synthesized Committed %d, want %d", est.Stats.Committed, exact.Committed)
	}
	if est.Stats.Emu != f.res.Exact {
		t.Error("synthesized Stats.Emu does not carry the exact functional stats")
	}
}

// TestScanCapturesEveryLongWarmupInterval: a selected interval whose start
// is at most Warmup captures its checkpoint at program start, so with a
// warmup of an interval or more several intervals share capture position
// 0. Each must still get its own checkpoint, and so must every later
// selected interval, each with the warmup gap its start allows.
func TestScanCapturesEveryLongWarmupInterval(t *testing.T) {
	const interval = 1000
	for _, warmup := range []uint64{1000, 2500, 8000} {
		for _, period := range []int{1, 8} {
			opt := Options{Interval: interval, Warmup: warmup, Period: period, MaxInsts: 100_000}
			f := scanWorkload(t, "li", emu.ElimLVMStack, opt)
			if f.res.Intervals != 100 {
				t.Fatalf("li under a 100k cap has %d intervals, want 100", f.res.Intervals)
			}
			var want []int
			for idx := 0; idx < f.res.Intervals; idx++ {
				if Selected(idx, period, opt.Seed) {
					want = append(want, idx)
				}
			}
			var got []int
			for _, ck := range f.usable {
				got = append(got, ck.Index)
				if gap := min(warmup, uint64(ck.Index)*interval); ck.WarmupGap != gap {
					t.Errorf("warmup %d, period %d: interval %d has warmup gap %d, want %d",
						warmup, period, ck.Index, ck.WarmupGap, gap)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("warmup %d, period %d: checkpoints for %d intervals %v, want %d %v",
					warmup, period, len(got), got, len(want), want)
			}
		}
	}
}

// TestSampledEstimateWithinCI pins the headline accuracy contract at a
// realistic sparse plan: the sampled IPC estimate is within its own
// reported confidence interval of the exact detailed IPC, while
// simulating meaningfully fewer instructions in detail.
func TestSampledEstimateWithinCI(t *testing.T) {
	for _, scheme := range []emu.Scheme{emu.ElimOff, emu.ElimLVMStack} {
		opt := Options{Interval: 4000, Warmup: 1000, Period: 4}
		f := scanWorkload(t, "go", scheme, opt)
		est, err := Aggregate(f.res, f.runAll(t), opt)
		if err != nil {
			t.Fatal(err)
		}

		f.reset()
		exact, err := f.m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(est.IPC - exact.IPC()); diff > est.CIHalfWidth {
			t.Errorf("%v: estimate %.4f off exact %.4f by %.4f, CI half-width %.4f",
				scheme, est.IPC, exact.IPC(), diff, est.CIHalfWidth)
		}
		if est.DetailedInsts >= f.res.TotalInsts {
			t.Errorf("%v: sampled run simulated %d detailed instructions of %d total — no savings",
				scheme, est.DetailedInsts, f.res.TotalInsts)
		}
	}
}

// TestAggregateDeterministic pins that aggregation is a pure fold: the
// same interval results produce bit-identical estimates on every call.
func TestAggregateDeterministic(t *testing.T) {
	opt := Options{Interval: 4000, Warmup: 1000, Period: 4}
	f := scanWorkload(t, "li", emu.ElimLVM, opt)
	results := f.runAll(t)
	a, err := Aggregate(f.res, results, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Aggregate(f.res, results, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("repeated aggregation differs")
	}
}

// TestRunIntervalDeterministic pins that re-simulating one checkpoint on
// a reused machine yields identical measurements — the property that
// makes results independent of which pooled worker ran the job.
func TestRunIntervalDeterministic(t *testing.T) {
	opt := Options{Interval: 4000, Warmup: 1000, Period: 4}
	f := scanWorkload(t, "go", emu.ElimLVMStack, opt)
	if len(f.usable) == 0 {
		t.Fatal("no usable checkpoints")
	}
	ck := f.usable[len(f.usable)/2]
	f.reset()
	first, err := RunInterval(f.m, ck)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.reset()
		again, err := RunInterval(f.m, ck)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("rerun %d: %+v, want %+v", i, again, first)
		}
	}
}

// TestCheckpointAnswers pins what a recorded run answers: the same
// machine, and machines of its register-file class whose file is larger
// than the run's peak — with the result their own simulation gives — but
// not a file at the peak, nor another class.
func TestCheckpointAnswers(t *testing.T) {
	opt := Options{Interval: 4000, Warmup: 1000, Period: 4}
	f := scanWorkload(t, "go", emu.ElimLVMStack, opt)
	ck := f.usable[len(f.usable)/2]
	f.reset()
	r, err := RunInterval(f.m, ck)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPhys >= f.cfg.PhysRegs {
		t.Fatalf("the %d-register file filled (peak %d)", f.cfg.PhysRegs, r.MaxPhys)
	}
	if _, ok := ck.Answer(f.cfg); ok {
		t.Fatal("a checkpoint answered before any run was recorded")
	}
	ck.Record(f.cfg, r)

	at := func(phys int) ooo.Config {
		cfg := f.cfg
		cfg.PhysRegs = phys
		return cfg
	}
	above := at(r.MaxPhys + 1)
	for _, cfg := range []ooo.Config{f.cfg, above} {
		if got, ok := ck.Answer(cfg); !ok || got != r {
			t.Errorf("%d registers: Answer = %+v, %v; want the recorded %+v", cfg.PhysRegs, got, ok, r)
		}
	}
	m := ooo.New(f.pr, f.img, above)
	if got, err := RunInterval(m, ck); err != nil || got != r {
		t.Errorf("simulated at %d registers: %+v, %v; the answer was %+v", above.PhysRegs, got, err, r)
	}
	wide := f.cfg
	wide.IssueWidth = 2
	for _, cfg := range []ooo.Config{at(r.MaxPhys), wide} {
		if got, ok := ck.Answer(cfg); ok {
			t.Errorf("Answer(%d registers, width %d) = %+v; the recorded run proves nothing for it",
				cfg.PhysRegs, cfg.IssueWidth, got)
		}
	}
}

// TestRecaptureClearsAnswers pins that a pooled checkpoint buffer scanned
// again, here for another program, answers nothing from its previous
// capture.
func TestRecaptureClearsAnswers(t *testing.T) {
	opt := Options{Interval: 4000, Warmup: 1000, Period: 4}
	f := scanWorkload(t, "go", emu.ElimLVMStack, opt)
	pool := f.res.Checkpoints
	for _, ck := range f.usable {
		ck.Record(f.cfg, IntervalResult{Index: ck.Index, Insts: 1, Cycles: 1, MaxPhys: ooo.DefaultConfig().PhysRegs - 1})
		if _, ok := ck.Answer(f.cfg); !ok {
			t.Fatal("a recorded run does not answer its own machine")
		}
	}

	li, _ := workload.ByName("li")
	pr, img, err := workload.CompileSpec(li, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	base := mem.New()
	img.LoadInto(base, pr.Data)
	res := NewScanner().Scan(emu.New(pr, img, f.cfg.Emu), base, f.cfg.Hierarchy, f.cfg.Pred, opt,
		func(idx int) bool { return Selected(idx, 4, 0) },
		func() *Checkpoint {
			if len(pool) == 0 {
				return new(Checkpoint)
			}
			ck := pool[0]
			pool = pool[1:]
			return ck
		})
	if len(pool) != 0 || len(res.Checkpoints) < len(f.res.Checkpoints) {
		t.Fatalf("the rescan reused %d of %d buffers", len(f.res.Checkpoints)-len(pool), len(f.res.Checkpoints))
	}
	for _, ck := range res.Checkpoints {
		if got, ok := ck.Answer(f.cfg); ok {
			t.Errorf("recaptured interval %d answered %+v from the previous program", ck.Index, got)
		}
	}
}

func TestAggregateCIBehaviour(t *testing.T) {
	scan := ScanResult{TotalInsts: 40_000, Intervals: 10}
	mk := func(cpis ...float64) []IntervalResult {
		var rs []IntervalResult
		for i, c := range cpis {
			rs = append(rs, IntervalResult{Index: i, Insts: 4000, Cycles: uint64(c * 4000)})
		}
		return rs
	}
	opt := Options{Interval: 4000, Warmup: 1}

	// Homogeneous intervals: only the non-sampling margin remains.
	est, err := Aggregate(scan, mk(2, 2, 2, 2, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.RelCI-nonSamplingBias) > 1e-12 {
		t.Errorf("zero-variance RelCI %.4f, want %.4f", est.RelCI, nonSamplingBias)
	}
	if est.Cycles != 80_000 {
		t.Errorf("cycles %d, want 80000", est.Cycles)
	}

	// Variance widens the interval; fewer samples widen it further.
	wide, _ := Aggregate(scan, mk(1, 3, 1, 3, 1), opt)
	if wide.RelCI <= est.RelCI {
		t.Errorf("heterogeneous RelCI %.4f not wider than homogeneous %.4f", wide.RelCI, est.RelCI)
	}
	few, _ := Aggregate(scan, mk(1, 3), opt)
	if few.RelCI <= wide.RelCI {
		t.Errorf("2-sample RelCI %.4f not wider than 5-sample %.4f", few.RelCI, wide.RelCI)
	}

	// A single sample reports a deliberately wide interval.
	one, _ := Aggregate(scan, mk(2), opt)
	if one.RelCI < 0.25 {
		t.Errorf("1-sample RelCI %.4f suspiciously tight", one.RelCI)
	}

	// Full census: sampling error vanishes entirely.
	full := ScanResult{TotalInsts: 20_000, Intervals: 5}
	census, _ := Aggregate(full, mk(1, 3, 1, 3, 2), opt)
	if math.Abs(census.RelCI-nonSamplingBias) > 1e-12 {
		t.Errorf("census RelCI %.4f, want %.4f", census.RelCI, nonSamplingBias)
	}

	// No measurements is an error, not a garbage estimate.
	if _, err := Aggregate(scan, nil, opt); err == nil {
		t.Error("empty aggregation did not fail")
	}
}
