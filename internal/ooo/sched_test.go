package ooo

import (
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/prog"
	"dvi/internal/workload"
)

// The scheduler equivalence property: the production event-driven stages
// and the polled oracle (polled_test.go) are two implementations of the
// same machine, so on every program and every configuration they must
// produce identical Stats — not just the same architectural results, but
// the same cycle counts, stall breakdowns, forwarding counts and register
// high-water marks.

// scheduler names one implementation of the issue and writeback stages.
type scheduler struct {
	name string                        // golden keys and subtest names
	run  func(*Machine) (Stats, error) // Run or runPolled
}

var (
	schedEvent  = scheduler{"event", (*Machine).Run}
	schedPolled = scheduler{"polled", (*Machine).runPolled}
	schedulers  = []scheduler{schedEvent, schedPolled}
)

// runScheduler builds one machine and runs it with the given scheduler.
func runScheduler(t *testing.T, pr *prog.Program, img *prog.Image, cfg Config, s scheduler) Stats {
	t.Helper()
	st, err := s.run(New(pr, img, cfg))
	if err != nil {
		t.Fatalf("%s scheduler: %v", s.name, err)
	}
	return st
}

// schedFuzzConfigs is the differential corpus's machine-shape axis: the
// shared fuzzConfigs shapes (wide/narrow window, fetch-stall ablation,
// all DVI schemes, starved renaming) plus shapes that stress the event
// structures specifically.
func schedFuzzConfigs() []Config {
	out := fuzzConfigs()
	tiny := DefaultConfig() // tiny window: constant squash/recycle traffic
	tiny.WindowSize = 8
	tiny.IFQSize = 4
	out = append(out, tiny)
	narrow := DefaultConfig() // 1-port, 1-ALU: arbitration-bound issue
	narrow.CachePorts = 1
	narrow.IntALUs = 1
	narrow.IntMulDiv = 1
	out = append(out, narrow)
	// Windows larger than 64 entries: the ready bitset spans multiple
	// words, exercising issueRange's word-boundary masks and the
	// two-range wrap walk (wire clients may configure any window up to
	// Check's cap of 1024 entries).
	for _, ws := range []int{65, 200} {
		big := DefaultConfig()
		big.WindowSize = ws
		big.IssueWidth = 8
		big.PhysRegs = 160
		out = append(out, big)
	}
	return out
}

// TestSchedulerDifferentialFuzz runs production and the polled oracle over
// random programs (calls, frames, loops, kills, memory traffic,
// mispredicted branches) × machine shapes and asserts bit-identical Stats.
func TestSchedulerDifferentialFuzz(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		pr := buildFuzzProgram(seed)
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		for ci, cfg := range schedFuzzConfigs() {
			polled := runScheduler(t, pr, img, cfg, schedPolled)
			event := runScheduler(t, pr, img, cfg, schedEvent)
			if polled != event {
				t.Fatalf("seed %d cfg %d: schedulers diverge:\npolled %+v\nevent  %+v",
					seed, ci, polled, event)
			}
		}
	}
}

// TestSchedulerDifferentialWorkloads runs production and the polled oracle
// over the real benchmark binaries (bounded), covering the elimination
// fast paths and cache behaviour the synthetic fuzz programs exercise
// less.
func TestSchedulerDifferentialWorkloads(t *testing.T) {
	names := []string{"compress", "gcc", "li"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, scheme := range []emu.Scheme{emu.ElimOff, emu.ElimLVMStack} {
			cfg := DefaultConfig()
			cfg.Emu.Scheme = scheme
			if scheme == emu.ElimOff {
				cfg.Emu.DVI = core.Config{Level: core.None}
			}
			cfg.MaxInsts = 60_000
			polled := runScheduler(t, pr, img, cfg, schedPolled)
			event := runScheduler(t, pr, img, cfg, schedEvent)
			if polled != event {
				t.Fatalf("%s scheme %v: schedulers diverge:\npolled %+v\nevent  %+v",
					name, scheme, polled, event)
			}
		}
	}
}

// TestSchedulerDifferentialLatencyExtremes covers completion times the
// corpus never reaches, at one and two contexts: a zero-latency multiply
// is due in the cycle it issues, and one longer than the completion
// wheel's horizon parks in its slot for a turn (wire clients may set
// mul_latency anywhere in Check's range, 0 to 1024).
func TestSchedulerDifferentialLatencyExtremes(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		pr := buildFuzzProgram(seed)
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		for _, lat := range []int{0, wheelSlots + 3, 2*wheelSlots + 5} {
			for _, n := range []int{1, 2} {
				cfg := smtConfig(DefaultConfig(), n, FetchRoundRobin)
				cfg.MulLatency = lat
				polled := runScheduler(t, pr, img, cfg, schedPolled)
				event := runScheduler(t, pr, img, cfg, schedEvent)
				if polled != event {
					t.Fatalf("seed %d mul latency %d n=%d: schedulers diverge:\npolled %+v\nevent  %+v",
						seed, lat, n, polled, event)
				}
			}
		}
	}
}

// TestSchedulerResetAcrossKinds pins pooling across scheduler switches: a
// machine run by the polled oracle, then reused via Reset, produces
// exactly a fresh machine's statistics (the event structures rebuild from
// any prior state, including the ready bits and wakeup lists the polled
// stages leave undrained).
func TestSchedulerResetAcrossKinds(t *testing.T) {
	pr := fibProgram(12)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	fresh, err := New(pr, img, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}

	m := New(pr, img, cfg)
	if _, err := m.runPolled(); err != nil {
		t.Fatal(err)
	}
	m.Reset(pr, img, cfg)
	reused, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reused != fresh {
		t.Fatalf("event machine reused after polled run diverges:\n got %+v\nwant %+v", reused, fresh)
	}
}
