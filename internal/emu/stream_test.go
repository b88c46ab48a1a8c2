package emu

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dvi/internal/core"
	"dvi/internal/isa"
	"dvi/internal/prog"
	"dvi/internal/workload"
)

// The step-stream golden pins every field of every record Step returns,
// plus the final Stats and Checksum, for the seven workloads under the
// paper's three DVI configurations and for the fault and halted paths.
// Each run is hashed twice, the second time with the emulator's record
// filled with garbage before every Step: the hashes must agree, which pins
// that Step writes every field on every path (halted, faulted, eliminated,
// kill) rather than relying on the previous step's values.
// The ooo core checks only a step's PC and elimination flag, so without
// this gate a change to the record (a field left stale on some path, a
// wrong address or kill mask) could go unnoticed until a figure moved.
// Regenerate with DVI_GOLDEN_UPDATE=1 — only legitimate when the
// emulator's semantics are intentionally changed.

const streamGoldenPath = "testdata/step_stream.json"

// streamCap bounds each workload run; the fault and halted runs are
// short programs that halt on their own.
const streamCap = 200_000

// streamGolden is one run's pinned result.
type streamGolden struct {
	Steps int    `json:"steps"`
	Hash  string `json:"hash"`
}

// fold mixes one word into a running FNV-1a-style hash.
func fold(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// foldStep mixes every field of a step record, the decoded instruction's
// included. TestStepStreamGolden checks the field counts, so a field
// added to Step or isa.Inst must be added here too.
func foldStep(h uint64, st *Step) uint64 {
	in := st.Inst
	for _, v := range [...]uint64{
		st.PC,
		uint64(in.Op), uint64(in.Rd), uint64(in.Rs1), uint64(in.Rs2),
		uint64(in.Imm), uint64(in.Mask), boolWord(in.IsReturn),
		st.NextPC,
		boolWord(st.IsCtl), boolWord(st.Taken),
		boolWord(st.IsMem), st.Addr,
		boolWord(st.Eliminated), uint64(st.Killed),
		boolWord(st.Halted), boolWord(st.Faulted),
	} {
		h = fold(h, v)
	}
	return h
}

// foldEnd mixes the run's final statistics (every field) and checksum.
func foldEnd(h uint64, e *Emulator) uint64 {
	v := reflect.ValueOf(e.Stats)
	for i := 0; i < v.NumField(); i++ {
		h = fold(h, v.Field(i).Uint())
	}
	return fold(h, e.Checksum)
}

// streamRun is one pinned run: a program, an emulator configuration and
// the number of steps taken on the halted emulator after it stops.
type streamRun struct {
	key         string
	pr          *prog.Program
	cfg         Config
	afterHalted int
}

func streamRuns(t *testing.T) []streamRun {
	t.Helper()
	idvi := core.DefaultConfig()
	idvi.Level = core.IDVI
	configs := []struct {
		name  string
		build workload.BuildOptions
		cfg   Config
	}{
		{"none", workload.BuildOptions{}, Config{DVI: core.Config{Level: core.None}, Scheme: ElimOff}},
		{"idvi", workload.BuildOptions{}, Config{DVI: idvi, Scheme: ElimLVM}},
		{"edvi", workload.BuildOptions{EDVI: true}, Config{DVI: core.DefaultConfig(), Scheme: ElimLVMStack}},
	}
	var runs []streamRun
	for _, w := range workload.All() {
		for _, c := range configs {
			pr, _, err := workload.CompileSpec(w, 1, c.build)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			runs = append(runs, streamRun{key: w.Name + "/" + c.name, pr: pr, cfg: c.cfg})
		}
	}
	clean := prog.New()
	clean.Assembler("main").Ret()
	return append(runs,
		streamRun{key: "fault/wild", pr: wildJumpProgram(0x40_0000), cfg: defaultCfg(), afterHalted: 2},
		streamRun{key: "fault/misaligned", pr: wildJumpProgram(int64(prog.DefaultTextBase + 2)), cfg: defaultCfg(), afterHalted: 2},
		streamRun{key: "halted", pr: clean, cfg: defaultCfg(), afterHalted: 3},
	)
}

// garbageInst is what a garbage-filled record's instruction points at.
var garbageInst = isa.Inst{Op: isa.SYS, Rd: 7, Rs1: 9, Rs2: 11, Imm: -3, Mask: 0xf0f0, IsReturn: true}

// fillGarbage overwrites every field of the emulator's step record.
func fillGarbage(e *Emulator) {
	e.step = Step{
		PC: 0xdead_beef, Inst: &garbageInst, NextPC: 0xbad_c0de,
		IsCtl: true, Taken: true, IsMem: true, Addr: 0xfeed_face,
		Eliminated: true, Killed: 0x5555_5555, Halted: true, Faulted: true,
	}
}

// streamHash runs r and folds its step stream. With garbage set, the step
// record is garbage-filled before every Step.
func streamHash(t *testing.T, r streamRun, garbage bool) streamGolden {
	t.Helper()
	img, err := r.pr.Link()
	if err != nil {
		t.Fatalf("%s: link: %v", r.key, err)
	}
	e := New(r.pr, img, r.cfg)
	step := func() *Step {
		if garbage {
			fillGarbage(e)
		}
		return e.Step()
	}
	h := uint64(14695981039346656037)
	steps := 0
	for ; steps < streamCap && !e.Halted; steps++ {
		h = foldStep(h, step())
	}
	for i := 0; i < r.afterHalted; i++ {
		h = foldStep(h, step())
		steps++
	}
	return streamGolden{Steps: steps, Hash: fmt.Sprintf("%016x", foldEnd(h, e))}
}

// TestStepStreamGolden pins the step stream of every run in streamRuns.
func TestStepStreamGolden(t *testing.T) {
	// foldStep names each field; a new one must be folded before the
	// golden can vouch for it.
	if n := reflect.TypeOf(Step{}).NumField(); n != 11 {
		t.Fatalf("Step has %d fields; fold the new ones in foldStep and update this count", n)
	}
	if n := reflect.TypeOf(Step{}.Inst).Elem().NumField(); n != 7 {
		t.Fatalf("isa.Inst has %d fields; fold the new ones in foldStep and update this count", n)
	}

	runs := streamRuns(t)
	if os.Getenv("DVI_GOLDEN_UPDATE") != "" {
		out := make(map[string]streamGolden, len(runs))
		for _, r := range runs {
			out[r.key] = streamHash(t, r, false)
		}
		blob, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(streamGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d step-stream hashes to %s", len(out), streamGoldenPath)
		return
	}

	blob, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with DVI_GOLDEN_UPDATE=1): %v", err)
	}
	var want map[string]streamGolden
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(runs) {
		t.Errorf("golden has %d runs, the test %d (regenerate with DVI_GOLDEN_UPDATE=1)", len(want), len(runs))
	}
	for _, r := range runs {
		w, ok := want[r.key]
		if !ok {
			t.Errorf("golden has no run %q (regenerate with DVI_GOLDEN_UPDATE=1)", r.key)
			continue
		}
		if got := streamHash(t, r, false); got != w {
			t.Errorf("%s: step stream %+v, want %+v", r.key, got, w)
		}
		if got := streamHash(t, r, true); got != w {
			t.Errorf("%s: step stream over a garbage-filled record %+v, want %+v", r.key, got, w)
		}
	}
}
