package runner

import (
	"context"
	"sync"
	"testing"
)

// TestProgressOrderingContract pins the ProgressFunc documentation with a
// race-detector-visible workload: per-job JobStart happens-before its
// JobDone on the same goroutine, while cross-job events interleave from
// many workers. The per-job state map is written without a lock inside
// each Index's critical pair — exactly what the contract says is safe —
// so a violation shows up either as the explicit ordering assertions
// below or as a data race under -race.
func TestProgressOrderingContract(t *testing.T) {
	type jobState struct {
		started bool
		done    bool
	}
	var mu sync.Mutex // guards the map structure only; see per-entry note
	states := map[int]*jobState{}

	eng := New(Options{Workers: 8, Progress: func(ev Event) {
		// Per the contract, both events for one Index arrive on one
		// goroutine; the mutex protects only the concurrent map access
		// from different jobs, not the per-job ordering.
		mu.Lock()
		st := states[ev.Index]
		if st == nil {
			st = &jobState{}
			states[ev.Index] = st
		}
		mu.Unlock()
		switch ev.Phase {
		case JobStart:
			if st.started {
				t.Errorf("job %d: duplicate JobStart", ev.Index)
			}
			if st.done {
				t.Errorf("job %d: JobStart after JobDone", ev.Index)
			}
			st.started = true
		case JobDone, JobFailed:
			if !st.started {
				t.Errorf("job %d: %v without a preceding JobStart", ev.Index, ev.Phase)
			}
			if st.done {
				t.Errorf("job %d: duplicate completion", ev.Index)
			}
			st.done = true
		}
	}})

	jobs := grid(Build)
	if _, err := collect(context.Background(), eng, jobs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(states) != len(jobs) {
		t.Fatalf("saw events for %d jobs, want %d", len(states), len(jobs))
	}
	for i, st := range states {
		if !st.started || !st.done {
			t.Errorf("job %d: incomplete lifecycle %+v", i, *st)
		}
	}
}
