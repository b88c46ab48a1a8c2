package ooo

import (
	"errors"
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/obs"
	"dvi/internal/prog"
)

// runBoth executes the program on the timing simulator and on a standalone
// emulator with the same DVI configuration and checks that architectural
// results agree.
func runBoth(t *testing.T, pr *prog.Program, cfg Config) (Stats, *Machine) {
	t.Helper()
	img, err := pr.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	m := New(pr, img, cfg)
	stats, err := m.Run()
	if err != nil {
		t.Fatalf("ooo run: %v", err)
	}

	ref := emu.New(pr, img, cfg.Emu)
	if err := ref.Run(50_000_000); err != nil {
		t.Fatalf("emu run: %v", err)
	}
	if cfg.MaxInsts == 0 {
		if m.Emu().Checksum != ref.Checksum {
			t.Fatalf("checksum mismatch: ooo %#x vs emu %#x", m.Emu().Checksum, ref.Checksum)
		}
		// The timing simulator commits exactly the original instructions
		// the reference executed (eliminated ones included).
		if want := ref.Stats.Original(); stats.Committed != want {
			t.Fatalf("committed %d, want %d", stats.Committed, want)
		}
	}
	return stats, m
}

// fibProgram mirrors the emulator test workload: recursive, call-heavy,
// with callee-saved save/restore traffic.
func fibProgram(n int64) *prog.Program {
	pr := prog.New()
	f := pr.Assembler("fib")
	epi := f.Frame(0, true, isa.S0, isa.S1)
	f.Li(isa.T0, 2)
	f.Blt(isa.A0, isa.T0, "base")
	f.Move(isa.S0, isa.A0)
	f.Addi(isa.A0, isa.S0, -1)
	f.Call("fib")
	f.Move(isa.S1, isa.V0)
	f.Addi(isa.A0, isa.S0, -2)
	f.Call("fib")
	f.Add(isa.V0, isa.S1, isa.V0)
	f.Jump("done")
	f.Label("base")
	f.Move(isa.V0, isa.A0)
	f.Label("done")
	epi()

	m := pr.Assembler("main")
	mepi := m.Frame(0, true)
	m.Li(isa.A0, n)
	m.Call("fib")
	m.Li(isa.T0, 0)
	m.Sys(isa.T0, isa.V0)
	mepi()
	return pr
}

// loopProgram: a tight arithmetic loop with a data-dependent exit only at
// the end — mostly predictable.
func loopProgram(iters int64) *prog.Program {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, iters)
	m.Li(isa.T1, 0)
	m.Label("loop")
	m.Addi(isa.T1, isa.T1, 3)
	m.Addi(isa.T0, isa.T0, -1)
	m.Bnez(isa.T0, "loop")
	m.Li(isa.T2, 0)
	m.Sys(isa.T2, isa.T1)
	m.Ret()
	return pr
}

func TestStraightLineResults(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 21)
	m.Add(isa.T1, isa.T0, isa.T0)
	m.Li(isa.T2, 0)
	m.Sys(isa.T2, isa.T1)
	m.Ret()
	stats, mach := runBoth(t, pr, DefaultConfig())
	if mach.Emu().Outputs[0] != 42 {
		t.Errorf("output = %d", mach.Emu().Outputs[0])
	}
	if stats.Cycles == 0 || stats.IPC() <= 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestLoopMatchesEmulator(t *testing.T) {
	stats, _ := runBoth(t, loopProgram(5000), DefaultConfig())
	if stats.IPC() < 0.5 {
		t.Errorf("loop IPC = %.2f, implausibly low", stats.IPC())
	}
}

func TestFibMatchesEmulatorAllSchemes(t *testing.T) {
	for _, scheme := range []emu.Scheme{emu.ElimOff, emu.ElimLVM, emu.ElimLVMStack} {
		cfg := DefaultConfig()
		cfg.Emu.Scheme = scheme
		stats, mach := runBoth(t, fibProgram(13), cfg)
		if mach.Emu().Outputs[0] != 233 {
			t.Errorf("scheme %v: fib(13) = %d", scheme, mach.Emu().Outputs[0])
		}
		switch scheme {
		case emu.ElimOff:
			if stats.ElimSaves != 0 || stats.ElimRests != 0 {
				t.Errorf("scheme off eliminated %d/%d", stats.ElimSaves, stats.ElimRests)
			}
		case emu.ElimLVM:
			if stats.ElimRests != 0 {
				t.Errorf("LVM scheme eliminated %d restores", stats.ElimRests)
			}
		}
	}
}

func TestDependentChainIPCNearOne(t *testing.T) {
	// A fully serial dependence chain cannot exceed IPC 1. Loop over hot
	// code so cold I-cache misses do not dominate.
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 1)
	m.Li(isa.S0, 200) // outer iterations
	m.Label("outer")
	for i := 0; i < 30; i++ {
		m.Addi(isa.T0, isa.T0, 1)
	}
	m.Addi(isa.S0, isa.S0, -1)
	m.Bnez(isa.S0, "outer")
	m.Li(isa.T1, 0)
	m.Sys(isa.T1, isa.T0)
	m.Ret()
	stats, _ := runBoth(t, pr, DefaultConfig())
	if stats.IPC() > 1.10 {
		t.Errorf("serial chain IPC = %.2f > 1", stats.IPC())
	}
	if stats.IPC() < 0.8 {
		t.Errorf("serial chain IPC = %.2f, pipeline not streaming", stats.IPC())
	}
}

func TestIndependentOpsReachWideIPC(t *testing.T) {
	// Four independent accumulator chains: should approach the 4-wide
	// machine's width (bounded by fetch of the loop branch).
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 0).Li(isa.T1, 0).Li(isa.T2, 0).Li(isa.T3, 0)
	m.Li(isa.S0, 300)
	m.Label("outer")
	for i := 0; i < 24; i++ {
		m.Addi(isa.Reg(8+i%4), isa.Reg(8+i%4), 1)
	}
	m.Addi(isa.S0, isa.S0, -1)
	m.Bnez(isa.S0, "outer")
	m.Ret()
	stats, _ := runBoth(t, pr, DefaultConfig())
	if stats.IPC() < 2.5 {
		t.Errorf("independent stream IPC = %.2f, want near width", stats.IPC())
	}
}

func TestMispredictionRecoveryCorrectness(t *testing.T) {
	// Data-dependent unpredictable branches (pseudo-random LCG parity):
	// the predictor will miss often; results must still be exact.
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.S0, 12345) // lcg state
	m.Li(isa.S1, 0)     // parity accumulator
	m.Li(isa.S2, 400)   // iterations
	m.Label("loop")
	// s0 = s0*1103515245 + 12345 (lower bits)
	m.Li32(isa.T0, 1103515245)
	m.Mul(isa.S0, isa.S0, isa.T0)
	m.Addi(isa.S0, isa.S0, 12345)
	m.Srli(isa.T1, isa.S0, 16)
	m.Andi(isa.T1, isa.T1, 1)
	m.Beqz(isa.T1, "even")
	m.Addi(isa.S1, isa.S1, 7)
	m.Jump("next")
	m.Label("even")
	m.Addi(isa.S1, isa.S1, 3)
	m.Label("next")
	m.Addi(isa.S2, isa.S2, -1)
	m.Bnez(isa.S2, "loop")
	m.Li(isa.T2, 0)
	m.Sys(isa.T2, isa.S1)
	m.Ret()

	stats, _ := runBoth(t, pr, DefaultConfig())
	if stats.Mispredicts == 0 {
		t.Error("expected mispredictions on random branches")
	}
	if stats.WrongPath == 0 {
		t.Error("wrong-path instructions should have been dispatched")
	}
}

func TestRecursionWithMispredicts(t *testing.T) {
	stats, _ := runBoth(t, fibProgram(16), DefaultConfig())
	if stats.Mispredicts == 0 {
		t.Log("note: no mispredicts in fib (predictor fully captured it)")
	}
	if stats.Committed == 0 {
		t.Fatal("nothing committed")
	}
}

func TestWrongPathFetchAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WrongPathFetch = false
	stats, _ := runBoth(t, fibProgram(14), cfg)
	if stats.WrongPath != 0 {
		t.Errorf("fetch-stall mode dispatched %d wrong-path instructions", stats.WrongPath)
	}
}

func TestTinyRegisterFileStallsButCompletes(t *testing.T) {
	// Without DVI a 34-entry file has only two spare registers; renaming
	// must stall. (With DVI the I-DVI kills around calls unmap the dead
	// temporaries and the same file barely stalls — that contrast is the
	// paper's Figure 5 and is asserted in TestDVIRaisesIPCUnderRegisterPressure.)
	cfg := DefaultConfig()
	cfg.PhysRegs = 34
	cfg.Emu.DVI = core.Config{Level: core.None}
	cfg.Emu.Scheme = emu.ElimOff
	stats, _ := runBoth(t, fibProgram(12), cfg)
	if stats.RenameStallCycles == 0 {
		t.Error("34-register file without DVI should stall renaming")
	}
}

func TestDVIRaisesIPCUnderRegisterPressure(t *testing.T) {
	// The §4 claim: with a small physical register file, DVI reclaims
	// dead registers early and recovers IPC. Compare IPC at 36 registers
	// with and without DVI on a call-heavy workload.
	base := DefaultConfig()
	base.PhysRegs = 38
	base.Emu.DVI = core.Config{Level: core.None}
	base.Emu.Scheme = emu.ElimOff
	noDVI, _ := runBoth(t, fibProgram(14), base)

	with := DefaultConfig()
	with.PhysRegs = 38
	withStats, _ := runBoth(t, fibProgram(14), with)

	if withStats.IPC() <= noDVI.IPC() {
		t.Errorf("DVI IPC %.3f <= no-DVI IPC %.3f at 38 registers",
			withStats.IPC(), noDVI.IPC())
	}
	if withStats.EarlyReclaimed == 0 {
		t.Error("no registers were reclaimed early")
	}
}

func TestEliminationReducesCycles(t *testing.T) {
	// Figure 10's effect: eliminating dead saves/restores improves IPC on
	// a call-heavy program. Build a caller that kills s-registers before
	// calls so the callee's saves/restores are dead.
	build := func() *prog.Program {
		pr := prog.New()
		callee := pr.Assembler("work")
		saved := []isa.Reg{isa.S0, isa.S1, isa.S2, isa.S3, isa.S4, isa.S5, isa.S6, isa.S7}
		cepi := callee.Frame(0, false, saved...)
		for i, r := range saved {
			callee.Li(r, int64(i+1))
		}
		// A real procedure body: enough work between the prologue saves
		// and the epilogue restores that the saves leave the instruction
		// window (no store-to-load forwarding shortcut at the restores).
		callee.Li(isa.V0, 0)
		for i := 0; i < 80; i++ {
			callee.Add(isa.V0, isa.V0, saved[i%len(saved)])
		}
		cepi()
		m := pr.Assembler("main")
		// fp survives the calls (callee-saved, untouched by work).
		mepi := m.Frame(0, true, isa.FP)
		m.Li(isa.FP, 200)
		m.Label("loop")
		m.Kill(saved...)
		m.Call("work")
		m.Addi(isa.FP, isa.FP, -1)
		m.Bnez(isa.FP, "loop")
		mepi()
		return pr
	}

	// Use a single cache port so the machine is data-bandwidth bound —
	// the regime where the paper's §5.3 sensitivity analysis shows the
	// optimization matters most.
	off := DefaultConfig()
	off.CachePorts = 1
	off.Emu.Scheme = emu.ElimOff
	offStats, _ := runBoth(t, build(), off)

	on := DefaultConfig()
	on.CachePorts = 1
	onStats, _ := runBoth(t, build(), on)

	if onStats.ElimSaves == 0 || onStats.ElimRests == 0 {
		t.Fatalf("nothing eliminated: %d/%d", onStats.ElimSaves, onStats.ElimRests)
	}
	if onStats.Cycles >= offStats.Cycles {
		t.Errorf("elimination did not reduce cycles: %d vs %d", onStats.Cycles, offStats.Cycles)
	}
}

func TestLoadStoreForwarding(t *testing.T) {
	pr := prog.New()
	pr.AddData(prog.DataSym{Name: "x", Size: 8})
	m := pr.Assembler("main")
	m.LoadAddr(isa.T0, "x")
	m.Li(isa.T1, 0)
	for i := 0; i < 100; i++ {
		m.Addi(isa.T1, isa.T1, 1)
		m.St(isa.T1, isa.T0, 0)
		m.Ld(isa.T2, isa.T0, 0) // must forward from the store
	}
	m.Li(isa.T3, 0)
	m.Sys(isa.T3, isa.T2)
	m.Ret()
	stats, mach := runBoth(t, pr, DefaultConfig())
	if mach.Emu().Outputs[0] != 100 {
		t.Errorf("final value = %d", mach.Emu().Outputs[0])
	}
	if stats.LoadForwarded == 0 {
		t.Error("no store-to-load forwarding observed")
	}
}

func TestCachePortContention(t *testing.T) {
	// A load-saturated loop on 1 port vs 3 ports: more ports, fewer cycles.
	build := func() *prog.Program {
		pr := prog.New()
		pr.AddData(prog.DataSym{Name: "arr", Size: 8 * 64})
		m := pr.Assembler("main")
		m.LoadAddr(isa.T0, "arr")
		m.Li(isa.S0, 200)
		m.Label("loop")
		m.Ld(isa.T1, isa.T0, 0)
		m.Ld(isa.T2, isa.T0, 8)
		m.Ld(isa.T3, isa.T0, 16)
		m.Ld(isa.T4, isa.T0, 24)
		m.Addi(isa.S0, isa.S0, -1)
		m.Bnez(isa.S0, "loop")
		m.Ret()
		return pr
	}
	one := DefaultConfig()
	one.CachePorts = 1
	oneStats, _ := runBoth(t, build(), one)
	three := DefaultConfig()
	three.CachePorts = 3
	threeStats, _ := runBoth(t, build(), three)
	if threeStats.Cycles >= oneStats.Cycles {
		t.Errorf("3 ports (%d cycles) not faster than 1 port (%d cycles)",
			threeStats.Cycles, oneStats.Cycles)
	}
}

func TestInstructionBudgetStopsEarly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 1000
	pr := loopProgram(1_000_000)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	m := New(pr, img, cfg)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Committed < 1000 || stats.Committed > 1000+uint64(cfg.IssueWidth) {
		t.Errorf("committed %d, want ~1000", stats.Committed)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// An infinite loop with no commits is impossible (commits happen), so
	// craft a budgetless run and ensure it terminates via the budget.
	cfg := DefaultConfig()
	cfg.MaxInsts = 5000
	pr := prog.New()
	m := pr.Assembler("main")
	m.Label("spin")
	m.Jump("spin")
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	mach := New(pr, img, cfg)
	if _, err := mach.Run(); err != nil && !errors.Is(err, ErrDeadlock) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestKillsAreOverheadNotWork(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.S0, 1)
	m.Kill(isa.S0)
	m.Li(isa.S1, 2)
	m.Kill(isa.S1)
	m.Ret()
	stats, _ := runBoth(t, pr, DefaultConfig())
	if stats.KillsSeen != 2 {
		t.Errorf("kills committed = %d, want 2", stats.KillsSeen)
	}
}

func TestMulDivLatency(t *testing.T) {
	// A chain of dependent divides is dominated by the divide latency.
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li32(isa.T0, 1<<30)
	m.Li(isa.T1, 2)
	for i := 0; i < 20; i++ {
		m.Div(isa.T0, isa.T0, isa.T1)
	}
	m.Ret()
	stats, _ := runBoth(t, pr, DefaultConfig())
	if stats.Cycles < 20*uint64(DefaultConfig().DivLatency) {
		t.Errorf("20 dependent divides in %d cycles, want >= %d",
			stats.Cycles, 20*DefaultConfig().DivLatency)
	}
}

func TestICacheMissesSlowFetch(t *testing.T) {
	// A huge straight-line body overflows the 64KB L1I on first touch:
	// cold misses should show up in the I-cache stats.
	pr := prog.New()
	m := pr.Assembler("main")
	for i := 0; i < 4000; i++ {
		m.Addi(isa.T0, isa.T0, 1)
	}
	m.Ret()
	_, mach := runBoth(t, pr, DefaultConfig())
	if mach.Hierarchy().L1I.Stats.Misses == 0 {
		t.Error("no I-cache misses on a 16KB straight-line body")
	}
}

func TestStatsAccounting(t *testing.T) {
	stats, mach := runBoth(t, fibProgram(12), DefaultConfig())
	if stats.Fetched < stats.Dispatched {
		t.Error("fetched < dispatched")
	}
	if stats.Committed != mach.Emu().Stats.Original() {
		t.Errorf("committed %d != emulator original %d", stats.Committed, mach.Emu().Stats.Original())
	}
	if stats.ElimSaves != mach.Emu().Stats.SavesElim || stats.ElimRests != mach.Emu().Stats.RestoresElim {
		t.Error("elimination counters disagree with emulator")
	}
	if stats.MaxPhysInUse > DefaultConfig().PhysRegs {
		t.Error("in-use high-water mark exceeds file size")
	}
}

// TestWildJumpRecordsFault pins the satellite fix: a computed jump past
// the text segment halts the machine (as it always did) but now records a
// fault instead of looking like a clean program exit.
func TestWildJumpRecordsFault(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 0x40_0000)
	m.Inst(isa.Inst{Op: isa.JR, Rs1: isa.T0}) // computed jump, not a return
	m.Ret()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	mach := New(pr, img, DefaultConfig())
	stats, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The machine detects the fault at dispatch (the embedded emulator is
	// never stepped for the synthetic HALT), so the machine-level counter
	// is the one that records it.
	if stats.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", stats.Faults)
	}

	clean, mach2 := runBoth(t, fibProgram(10), DefaultConfig())
	if clean.Faults != 0 || mach2.Emu().Stats.Faults != 0 {
		t.Errorf("clean run recorded faults: machine %d, emulator %d", clean.Faults, mach2.Emu().Stats.Faults)
	}
}

// TestResetMatchesFresh pins the pooling contract: a machine reused
// across programs and configurations via Reset produces exactly the
// statistics a freshly constructed machine does.
func TestResetMatchesFresh(t *testing.T) {
	prA := fibProgram(10)
	imgA, err := prA.Link()
	if err != nil {
		t.Fatal(err)
	}
	prB := fibProgram(13)
	imgB, err := prB.Link()
	if err != nil {
		t.Fatal(err)
	}

	cfgA := DefaultConfig()
	cfgA.PhysRegs = 40 // different rename table shape
	cfgB := DefaultConfig()

	fresh := New(prB, imgB, cfgB)
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	reused := New(prA, imgA, cfgA)
	if _, err := reused.Run(); err != nil {
		t.Fatal(err)
	}
	reused.Reset(prB, imgB, cfgB)
	got, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reused machine stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestMachineSteadyStateZeroAlloc pins the 0 allocs/op invariant of the
// simulation loop on the single-context machine.
func TestMachineSteadyStateZeroAlloc(t *testing.T) {
	pr := fibProgram(14)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	t.Run(schedEvent.name, func(t *testing.T) {
		checkSteadyStateZeroAlloc(t, pr, img, DefaultConfig())
	})
}

// checkSteadyStateZeroAlloc asserts that re-running cfg on a warm machine
// allocates nothing, untraced and traced: the completion wheel, ready set,
// wakeup lists, last-store table and per-context structures must all reuse
// their storage across Reset.
func checkSteadyStateZeroAlloc(t *testing.T, pr *prog.Program, img *prog.Image, cfg Config) {
	t.Helper()
	m := New(pr, img, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err) // warm pages, ring buffers and victim lists
	}
	allocs := testing.AllocsPerRun(3, func() {
		m.Reset(pr, img, cfg)
		if _, err := m.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state run allocated %.1f objects, want 0", allocs)
	}

	// With a live pipeline-trace sink attached the steady state must hold
	// too: the machine writes records through the reusable traceRec field,
	// and a warm PipeBuffer (capacity grown by a first traced run) reuses
	// its backing array on Reset, so re-running a traced job allocates
	// nothing.
	tcfg := cfg
	buf := obs.NewPipeBuffer(0)
	tcfg.Trace = buf
	m.Reset(pr, img, tcfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err) // grow the trace buffer
	}
	if buf.Len() == 0 {
		t.Fatal("traced warm-up run emitted no records")
	}
	allocs = testing.AllocsPerRun(3, func() {
		buf.Reset()
		m.Reset(pr, img, tcfg)
		if _, err := m.Run(); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("traced steady-state run allocated %.1f objects, want 0", allocs)
	}
}
