package ooo

import (
	"strings"
	"testing"

	"dvi/internal/obs"
	"dvi/internal/prog"
)

// traceRun executes pr with a pipeline trace attached under sched and
// returns the captured records plus the run's stats.
func traceRun(t *testing.T, pr *prog.Program, img *prog.Image, cfg Config, sched scheduler) ([]obs.PipeRecord, Stats) {
	t.Helper()
	buf := obs.NewPipeBuffer(0)
	cfg.Trace = buf
	st, err := sched.run(New(pr, img, cfg))
	if err != nil {
		t.Fatalf("%s scheduler: %v", sched.name, err)
	}
	return buf.Records(), st
}

// fibTraceRun is traceRun on fib(12) and the default machine.
func fibTraceRun(t *testing.T, sched scheduler) ([]obs.PipeRecord, Stats) {
	t.Helper()
	pr := fibProgram(12)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	return traceRun(t, pr, img, DefaultConfig(), sched)
}

// TestTraceConsistency checks the record stream against the run's own
// statistics and the per-record stage invariants, for production and the
// polled oracle.
func TestTraceConsistency(t *testing.T) {
	for _, sched := range schedulers {
		t.Run(sched.name, func(t *testing.T) {
			recs, st := fibTraceRun(t, sched)
			if len(recs) == 0 {
				t.Fatal("no records")
			}
			var committed, elimSave, elimRest, kills, wrongPath uint64
			seen := map[uint64]bool{}
			for i := range recs {
				r := &recs[i]
				if seen[r.ID] {
					t.Fatalf("instruction %d retired twice", r.ID)
				}
				seen[r.ID] = true
				if r.Fetch == 0 {
					t.Fatalf("record %d: no fetch cycle", r.ID)
				}
				if r.Retire < r.Fetch {
					t.Fatalf("record %d: retire %d before fetch %d", r.ID, r.Retire, r.Fetch)
				}
				// Stage stamps are monotonic where present: fetch ≤
				// dispatch ≤ issue ≤ complete ≤ retire.
				prev := r.Fetch
				for _, c := range []uint64{r.Dispatch, r.Issue, r.Complete, r.Retire} {
					if c == 0 {
						continue
					}
					if c < prev {
						t.Fatalf("record %d: stage cycles not monotonic: %+v", r.ID, *r)
					}
					prev = c
				}
				switch {
				case r.Kind == obs.KindElimSave:
					elimSave++
				case r.Kind == obs.KindElimRestore:
					elimRest++
				case r.Kind == obs.KindKill && !r.WrongPath:
					kills++
				case r.Kind == obs.KindInst && r.Squash == obs.SquashNone:
					if r.WrongPath {
						t.Fatalf("record %d: wrong-path instruction committed", r.ID)
					}
					committed++
				}
				if r.WrongPath && r.Squash == obs.SquashNone && r.Kind == obs.KindInst {
					t.Fatalf("record %d: wrong-path without squash cause", r.ID)
				}
				if r.WrongPath {
					wrongPath++
				}
			}
			// Committed window records plus decode-stage events account
			// exactly for the machine's own counters: Stats.Committed
			// includes decode-eliminated saves/restores and kills, which
			// retire as their own record kinds, not as KindInst.
			if want := st.Committed - st.ElimSaves - st.ElimRests - st.KillsSeen; committed != want {
				t.Errorf("committed records = %d, want %d (Stats.Committed %d)", committed, want, st.Committed)
			}
			if elimSave != st.ElimSaves {
				t.Errorf("elim-save records = %d, want %d", elimSave, st.ElimSaves)
			}
			if elimRest != st.ElimRests {
				t.Errorf("elim-restore records = %d, want %d", elimRest, st.ElimRests)
			}
			if kills != st.KillsSeen {
				t.Errorf("correct-path kill records = %d, want %d", kills, st.KillsSeen)
			}
			if st.WrongPath > 0 && wrongPath == 0 {
				t.Errorf("stats saw %d wrong-path dispatches but no wrong-path records", st.WrongPath)
			}
		})
	}
}

// TestTraceSchedulerEquivalence pins production and the polled oracle to
// the same record stream: the two are bit-identical, so every instruction
// must carry identical cycle stamps under both. Records see what Stats
// cannot — a stage stamp one cycle off, the order in which same-cycle
// completions resolve — so the corpus spans fuzz programs, every
// differential machine shape, and one and two contexts.
func TestTraceSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		pr := buildFuzzProgram(seed)
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		for ci, base := range schedFuzzConfigs() {
			for _, n := range []int{1, 2} {
				cfg := smtConfig(base, n, FetchRoundRobin)
				ev, _ := traceRun(t, pr, img, cfg, schedEvent)
				po, _ := traceRun(t, pr, img, cfg, schedPolled)
				if len(ev) != len(po) {
					t.Fatalf("seed %d cfg %d n=%d: record counts differ: event %d vs polled %d",
						seed, ci, n, len(ev), len(po))
				}
				for i := range ev {
					if ev[i] != po[i] {
						t.Fatalf("seed %d cfg %d n=%d: record %d differs:\nevent:  %+v\npolled: %+v",
							seed, ci, n, i, ev[i], po[i])
					}
				}
			}
		}
	}
}

// TestTraceRendererRoundTrip runs a real workload through both renderers:
// the Konata log must carry one retire per record, and the Chrome events
// must cover every record with at least a fetch slice.
func TestTraceRendererRoundTrip(t *testing.T) {
	recs, _ := fibTraceRun(t, schedEvent)

	var sb strings.Builder
	if err := obs.WriteKonata(&sb, recs); err != nil {
		t.Fatal(err)
	}
	retires := strings.Count(sb.String(), "\nR\t")
	if retires != len(recs) {
		t.Errorf("konata retires = %d, want %d", retires, len(recs))
	}

	evs := obs.ChromeTraceEvents(recs)
	fetches := 0
	for _, ev := range evs {
		if strings.HasPrefix(ev.Name, "fetch ") {
			fetches++
		}
	}
	if fetches != len(recs) {
		t.Errorf("chrome fetch events = %d, want %d", fetches, len(recs))
	}
}
