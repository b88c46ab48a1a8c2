package session_test

import (
	"reflect"
	"testing"

	"dvi/internal/emu"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// TestSampledPersistenceBitIdentical is the sampled half of the
// crash-recovery contract: a session restarted over the same artifact
// store serves a sampled simulation from the persisted interval-result
// set — no scan, no interval simulation — and the restored estimate is
// bit-identical to the one computed live.
func TestSampledPersistenceBitIdentical(t *testing.T) {
	dir := t.TempDir()
	w, _ := workload.ByName("go")
	job := schemeJob(w, emu.ElimLVMStack)
	so := samplingTestOpts()

	run := func() (sample.Estimate, *store.Store) {
		t.Helper()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return sampledAlone(t, session.New(session.WithStore(st)), job, so), st
	}

	cold, st1 := run()
	s1 := st1.Stats()
	if s1.Puts < 2 { // one build artifact + one sampled record
		t.Fatalf("cold run persisted too little: %+v", s1)
	}

	warm, st2 := run()
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("restored estimate differs:\ncold: %+v\nwarm: %+v", cold, warm)
	}
	s2 := st2.Stats()
	if s2.Hits < 2 { // build + sampled record both served from disk
		t.Fatalf("warm run did not hit the store: %+v", s2)
	}
	if s2.Puts != 0 {
		t.Fatalf("warm run re-persisted: %+v", s2)
	}

	// A different plan is a different key: no false sharing.
	st3, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	other := so
	other.Period = so.Period * 2
	est := sampledAlone(t, session.New(session.WithStore(st3)), job, other)
	if reflect.DeepEqual(est, cold) {
		t.Error("distinct sampling plans produced identical estimates — key collision?")
	}
	if st3.Stats().Puts == 0 {
		t.Error("new plan was not persisted")
	}
}
