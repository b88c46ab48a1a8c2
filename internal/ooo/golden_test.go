package ooo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/workload"
)

// The single-context golden gate: a Contexts=1 machine must produce
// Stats bit-identical to the pre-multi-context machine. The golden file
// in testdata/ was generated from the last single-context-only revision
// (run with DVI_GOLDEN_UPDATE=1 to regenerate — only legitimate when the
// single-context machine is intentionally changed).
//
// goldenStats mirrors exactly the Stats fields that existed before the
// multi-context refactor, so Stats may grow new fields (per-context
// counters, cache summaries) without invalidating the goldens: the gate
// pins the pre-existing counters, new fields are covered by their own
// tests.

const goldenPath = "testdata/single_context_stats.json"

type goldenStats struct {
	Cycles uint64

	Fetched    uint64
	Dispatched uint64
	WrongPath  uint64
	Committed  uint64
	KillsSeen  uint64
	ElimSaves  uint64
	ElimRests  uint64

	Mispredicts uint64
	Recoveries  uint64

	RenameStallCycles uint64
	WindowFullCycles  uint64
	PortStallCycles   uint64

	LoadsIssued    uint64
	StoresCommit   uint64
	LoadForwarded  uint64
	WrongPathLoads uint64

	MaxPhysInUse   int
	EarlyReclaimed uint64

	Faults uint64

	Emu emu.Stats
}

func toGolden(s Stats) goldenStats {
	return goldenStats{
		Cycles:            s.Cycles,
		Fetched:           s.Fetched,
		Dispatched:        s.Dispatched,
		WrongPath:         s.WrongPath,
		Committed:         s.Committed,
		KillsSeen:         s.KillsSeen,
		ElimSaves:         s.ElimSaves,
		ElimRests:         s.ElimRests,
		Mispredicts:       s.Mispredicts,
		Recoveries:        s.Recoveries,
		RenameStallCycles: s.RenameStallCycles,
		WindowFullCycles:  s.WindowFullCycles,
		PortStallCycles:   s.PortStallCycles,
		LoadsIssued:       s.LoadsIssued,
		StoresCommit:      s.StoresCommit,
		LoadForwarded:     s.LoadForwarded,
		WrongPathLoads:    s.WrongPathLoads,
		MaxPhysInUse:      s.MaxPhysInUse,
		EarlyReclaimed:    s.EarlyReclaimed,
		Faults:            s.Faults,
		Emu:               s.Emu,
	}
}

// goldenCase is one (program, machine shape, scheduler) cell of the
// differential corpus; the scheduler is production ("event") or the
// polled oracle ("polled").
type goldenCase struct {
	key string
	run func(t *testing.T) Stats
}

// goldenCorpus enumerates the corpus: the scheduler-differential fuzz
// axes (random programs × machine shapes) plus real workloads × schemes,
// each under production and the polled oracle. short trims the corpus
// for -short runs; regeneration always uses the full corpus.
func goldenCorpus(short bool) []goldenCase {
	var cases []goldenCase
	seeds := 12
	if short {
		seeds = 4
	}
	cfgs := schedFuzzConfigs()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		pr := buildFuzzProgram(seed)
		img, err := pr.Link()
		if err != nil {
			panic(fmt.Sprintf("golden corpus: seed %d: link: %v", seed, err))
		}
		for ci, cfg := range cfgs {
			for _, s := range schedulers {
				cfg, s := cfg, s
				cases = append(cases, goldenCase{
					key: fmt.Sprintf("fuzz/seed%02d/cfg%02d/%s", seed, ci, s.name),
					run: func(t *testing.T) Stats { return runScheduler(t, pr, img, cfg, s) },
				})
			}
		}
	}

	names := []string{"compress", "li"}
	if short {
		names = names[:1]
	}
	for _, name := range names {
		w, ok := workload.ByName(name)
		if !ok {
			panic("golden corpus: unknown workload " + name)
		}
		pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
		if err != nil {
			panic(fmt.Sprintf("golden corpus: %s: %v", name, err))
		}
		for _, scheme := range []emu.Scheme{emu.ElimOff, emu.ElimLVMStack} {
			cfg := DefaultConfig()
			cfg.Emu.Scheme = scheme
			if scheme == emu.ElimOff {
				cfg.Emu.DVI = core.Config{Level: core.None}
			}
			cfg.MaxInsts = 60_000
			for _, s := range schedulers {
				cfg, s := cfg, s
				cases = append(cases, goldenCase{
					key: fmt.Sprintf("work/%s/scheme%d/%s", name, scheme, s.name),
					run: func(t *testing.T) Stats { return runScheduler(t, pr, img, cfg, s) },
				})
			}
		}
	}
	return cases
}

// TestGoldenSingleContext pins the single-context machine bit-identical
// to the pre-refactor path across the differential corpus.
func TestGoldenSingleContext(t *testing.T) {
	if os.Getenv("DVI_GOLDEN_UPDATE") != "" {
		out := make(map[string]goldenStats)
		for _, c := range goldenCorpus(false) {
			out[c.key] = toGolden(c.run(t))
		}
		blob, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(out), goldenPath)
		return
	}

	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read goldens (regenerate with DVI_GOLDEN_UPDATE=1): %v", err)
	}
	var want map[string]goldenStats
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCorpus(testing.Short()) {
		c := c
		t.Run(c.key, func(t *testing.T) {
			w, ok := want[c.key]
			if !ok {
				t.Fatalf("golden file has no case %q (regenerate with DVI_GOLDEN_UPDATE=1)", c.key)
			}
			if got := toGolden(c.run(t)); got != w {
				t.Fatalf("single-context Stats diverge from pre-refactor golden:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}
