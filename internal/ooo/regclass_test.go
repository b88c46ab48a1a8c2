package ooo

import (
	"fmt"
	"slices"
	"testing"

	"dvi/internal/prog"
	"dvi/internal/rename"
	"dvi/internal/workload"
)

// TestRegisterFileClassInvariant pins the property the sampler relies on
// to answer one register-file size from another's run (see package
// sample): on one context, a run whose peak register use is M runs
// identically on every file larger than M. Rename takes the lowest free
// register and stalls only on an empty free list, so no such file ever
// stalls or picks a different register. Each program runs at the largest
// file (rename.MaxPhys) to find M, then at M+1 and midway between M+1
// and the largest; both must match the largest in every Stats field and
// every pipeline-trace record.
func TestRegisterFileClassInvariant(t *testing.T) {
	seeds, names := 16, workload.Names()
	if testing.Short() {
		seeds, names = 4, names[:2]
	}
	check := func(name string, pr *prog.Program, img *prog.Image, cfg Config) {
		t.Helper()
		cfg.PhysRegs = rename.MaxPhys
		wantRecs, want := traceRun(t, pr, img, cfg, schedEvent)
		m := want.MaxPhysInUse
		if m >= rename.MaxPhys {
			t.Fatalf("%s: the %d-register file filled", name, rename.MaxPhys)
		}
		for _, phys := range []int{m + 1, (m + 1 + rename.MaxPhys) / 2} {
			cfg.PhysRegs = phys
			recs, got := traceRun(t, pr, img, cfg, schedEvent)
			if got != want {
				t.Errorf("%s: %d registers (peak %d) diverges from %d:\n got %+v\nwant %+v",
					name, phys, m, rename.MaxPhys, got, want)
			}
			if !slices.Equal(recs, wantRecs) {
				t.Errorf("%s: %d registers (peak %d): %d trace records differ from %d's %d",
					name, phys, m, len(recs), rename.MaxPhys, len(wantRecs))
			}
		}
	}

	for seed := int64(1); seed <= int64(seeds); seed++ {
		pr := buildFuzzProgram(seed)
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		for ci, cfg := range fuzzConfigs() {
			check(fmt.Sprintf("seed %d cfg %d", seed, ci), pr, img, cfg)
		}
	}
	for _, name := range names {
		w, _ := workload.ByName(name)
		for _, edvi := range []bool{false, true} {
			pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: edvi})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg := DefaultConfig()
			cfg.MaxInsts = 100_000
			check(fmt.Sprintf("%s edvi=%v", name, edvi), pr, img, cfg)
		}
	}
}
