package emu

import (
	"math/rand"
	"testing"

	"dvi/internal/core"
	"dvi/internal/isa"
	"dvi/internal/prog"
)

// run links pr and executes it to completion under cfg.
func run(t *testing.T, pr *prog.Program, cfg Config) *Emulator {
	t.Helper()
	img, err := pr.Link()
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	e := New(pr, img, cfg)
	if err := e.Run(2_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func defaultCfg() Config {
	return Config{DVI: core.DefaultConfig(), Scheme: ElimLVMStack, CheckDeadReads: true}
}

func TestArithmeticBasics(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 7).Li(isa.T1, 3)
	m.Add(isa.T2, isa.T0, isa.T1) // 10
	m.Sub(isa.T3, isa.T0, isa.T1) // 4
	m.Mul(isa.T4, isa.T0, isa.T1) // 21
	m.Div(isa.T5, isa.T0, isa.T1) // 2
	m.Rem(isa.T6, isa.T0, isa.T1) // 1
	m.Li(isa.A0, 0)
	m.Sys(isa.A0, isa.T2).Sys(isa.A0, isa.T3).Sys(isa.A0, isa.T4).Sys(isa.A0, isa.T5).Sys(isa.A0, isa.T6)
	m.Ret()
	e := run(t, pr, defaultCfg())
	want := []uint64{10, 4, 21, 2, 1}
	for i, w := range want {
		if e.Outputs[i] != w {
			t.Errorf("output %d = %d, want %d", i, e.Outputs[i], w)
		}
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, 5).Li(isa.T1, 0)
	m.Div(isa.T2, isa.T0, isa.T1) // div by zero -> 0
	m.Rem(isa.T3, isa.T0, isa.T1) // rem by zero -> rs1
	// INT_MIN / -1 must not trap: (1<<63) / -1 wraps to itself.
	m.Li(isa.T4, 1).Slli(isa.T4, isa.T4, 63)
	m.Li(isa.T5, -1)
	m.Div(isa.T6, isa.T4, isa.T5)
	m.Rem(isa.T7, isa.T4, isa.T5)
	m.Li(isa.A0, 0)
	m.Sys(isa.A0, isa.T2).Sys(isa.A0, isa.T3).Sys(isa.A0, isa.T6).Sys(isa.A0, isa.T7)
	m.Ret()
	e := run(t, pr, defaultCfg())
	want := []uint64{0, 5, 1 << 63, 0}
	for i, w := range want {
		if e.Outputs[i] != w {
			t.Errorf("output %d = %#x, want %#x", i, e.Outputs[i], w)
		}
	}
}

func TestShiftAndCompareSemantics(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, -8)
	m.Srai(isa.T1, isa.T0, 1)        // -4
	m.Srli(isa.T2, isa.T0, 60)       // high bits of two's complement
	m.Slt(isa.T3, isa.T0, isa.Zero)  // -8 < 0 -> 1
	m.Sltu(isa.T4, isa.T0, isa.Zero) // huge unsigned < 0 -> 0

	m.Inst(isa.Inst{Op: isa.SLTI, Rd: isa.T5, Rs1: isa.T0, Imm: -8}) // -8 < -8 -> 0
	m.Inst(isa.Inst{Op: isa.SLTI, Rd: isa.T6, Rs1: isa.T0, Imm: -7}) // -8 < -7 -> 1
	m.Li(isa.A0, 0)
	m.Sys(isa.A0, isa.T1).Sys(isa.A0, isa.T2).Sys(isa.A0, isa.T3).Sys(isa.A0, isa.T4)
	m.Sys(isa.A0, isa.T5).Sys(isa.A0, isa.T6)
	m.Ret()
	e := run(t, pr, defaultCfg())
	minusFour := uint64(0xFFFFFFFFFFFFFFFC)
	want := []uint64{minusFour, (1<<64 - 8) >> 60, 1, 0, 0, 1}
	for i, w := range want {
		if e.Outputs[i] != w {
			t.Errorf("output %d = %#x, want %#x", i, e.Outputs[i], w)
		}
	}
}

// TestALUAgainstGo cross-checks R-type ALU results against Go's own
// arithmetic on random operands.
func TestALUAgainstGo(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ops := []struct {
		op   isa.Op
		gold func(a, b uint64) uint64
	}{
		{isa.ADD, func(a, b uint64) uint64 { return a + b }},
		{isa.SUB, func(a, b uint64) uint64 { return a - b }},
		{isa.MUL, func(a, b uint64) uint64 { return a * b }},
		{isa.AND, func(a, b uint64) uint64 { return a & b }},
		{isa.OR, func(a, b uint64) uint64 { return a | b }},
		{isa.XOR, func(a, b uint64) uint64 { return a ^ b }},
		{isa.NOR, func(a, b uint64) uint64 { return ^(a | b) }},
		{isa.SLL, func(a, b uint64) uint64 { return a << (b & 63) }},
		{isa.SRL, func(a, b uint64) uint64 { return a >> (b & 63) }},
		{isa.SRA, func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }},
		{isa.DIV, divS},
		{isa.REM, remS},
	}
	for trial := 0; trial < 60; trial++ {
		a, b := r.Uint64(), r.Uint64()
		if trial%4 == 0 {
			b &= 0xFF // exercise small operands and zero
		}
		pr := prog.New()
		m := pr.Assembler("main")
		m.Li32(isa.T0, uint32(a)).Li32(isa.T8, uint32(a>>32)).Slli(isa.T8, isa.T8, 32).Or(isa.T0, isa.T0, isa.T8)
		m.Li32(isa.T1, uint32(b)).Li32(isa.T8, uint32(b>>32)).Slli(isa.T8, isa.T8, 32).Or(isa.T1, isa.T1, isa.T8)
		ch := isa.Zero
		for _, o := range ops {
			m.Inst(isa.Inst{Op: o.op, Rd: isa.T2, Rs1: isa.T0, Rs2: isa.T1})
			m.Sys(ch, isa.T2)
		}
		m.Ret()
		e := run(t, pr, Config{DVI: core.DefaultConfig()})
		for i, o := range ops {
			if got, want := e.Outputs[i], o.gold(a, b); got != want {
				t.Fatalf("%v(%#x,%#x) = %#x, want %#x", o.op, a, b, got, want)
			}
		}
	}
}

func TestMemoryAndByteOps(t *testing.T) {
	pr := prog.New()
	pr.AddData(prog.DataSym{Name: "buf", Size: 32})
	m := pr.Assembler("main")
	m.LoadAddr(isa.T0, "buf")
	m.Li(isa.T1, 0x1234)
	m.St(isa.T1, isa.T0, 8)
	m.Ld(isa.T2, isa.T0, 8)
	m.Sb(isa.T1, isa.T0, 0) // low byte 0x34
	m.Lb(isa.T3, isa.T0, 0)
	m.Li(isa.A0, 0)
	m.Sys(isa.A0, isa.T2).Sys(isa.A0, isa.T3)
	m.Ret()
	e := run(t, pr, defaultCfg())
	if e.Outputs[0] != 0x1234 || e.Outputs[1] != 0x34 {
		t.Errorf("outputs = %#x, %#x", e.Outputs[0], e.Outputs[1])
	}
}

// fibProgram builds a recursive fibonacci with proper frames: s0 holds n,
// s1 holds fib(n-1).
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

func TestRecursiveFib(t *testing.T) {
	e := run(t, fibProgram(15), defaultCfg())
	if e.Outputs[0] != 610 {
		t.Errorf("fib(15) = %d, want 610", e.Outputs[0])
	}
	if len(e.Violations) != 0 {
		t.Errorf("dead-read violations: %v", e.Violations)
	}
	if e.Stats.Calls == 0 || e.Stats.Returns == 0 {
		t.Error("call/return stats not collected")
	}
	if e.Stats.Calls != e.Stats.Returns {
		t.Errorf("calls %d != returns %d", e.Stats.Calls, e.Stats.Returns)
	}
}

// TestSchemesProduceIdenticalResults is the core soundness property of the
// paper: eliminating dead saves and restores must not change program
// results. We run fib under all three schemes and compare checksums.
func TestSchemesProduceIdenticalResults(t *testing.T) {
	var sums []uint64
	for _, scheme := range []Scheme{ElimOff, ElimLVM, ElimLVMStack} {
		cfg := Config{DVI: core.DefaultConfig(), Scheme: scheme, CheckDeadReads: true}
		e := run(t, fibProgram(14), cfg)
		sums = append(sums, e.Checksum)
		if len(e.Violations) != 0 {
			t.Errorf("scheme %v: violations %v", scheme, e.Violations)
		}
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("checksums differ across schemes: %v", sums)
	}
}

// TestSaveRestoreElimination reproduces the paper's Figure 7(c) scenario:
// a caller whose callee-saved register is dead kills it before the call;
// the callee's save and restore are then eliminated dynamically.
func TestSaveRestoreElimination(t *testing.T) {
	build := func(kill bool) *prog.Program {
		pr := prog.New()
		callee := pr.Assembler("proc")
		epi := callee.Frame(0, false, isa.S0)
		callee.Li(isa.S0, 42)
		callee.Add(isa.V0, isa.S0, isa.Zero)
		epi()

		m := pr.Assembler("main")
		mepi := m.Frame(0, true)
		m.Li(isa.S0, 7) // s0 defined...
		m.Add(isa.T0, isa.S0, isa.S0)
		m.Li(isa.T1, 0)
		m.Sys(isa.T1, isa.T0) // ...last use of s0
		if kill {
			m.Kill(isa.S0) // E-DVI: s0 dead before the call
		}
		m.Call("proc")
		m.Li(isa.T1, 0)
		m.Sys(isa.T1, isa.V0)
		mepi()
		return pr
	}

	withKill := run(t, build(true), defaultCfg())
	if withKill.Stats.SavesElim != 1 || withKill.Stats.RestoresElim != 1 {
		t.Errorf("elim counts = %d saves, %d restores; want 1,1",
			withKill.Stats.SavesElim, withKill.Stats.RestoresElim)
	}
	if len(withKill.Violations) != 0 {
		t.Errorf("violations: %v", withKill.Violations)
	}

	without := run(t, build(false), defaultCfg())
	if without.Stats.SavesElim != 0 || without.Stats.RestoresElim != 0 {
		t.Errorf("no-kill run eliminated %d/%d", without.Stats.SavesElim, without.Stats.RestoresElim)
	}
	if withKill.Checksum != without.Checksum {
		t.Error("elimination changed program results")
	}
	// LVM scheme eliminates the save but not the restore.
	lvmOnly := run(t, build(true), Config{DVI: core.DefaultConfig(), Scheme: ElimLVM})
	if lvmOnly.Stats.SavesElim != 1 || lvmOnly.Stats.RestoresElim != 0 {
		t.Errorf("LVM scheme elim = %d/%d, want 1/0", lvmOnly.Stats.SavesElim, lvmOnly.Stats.RestoresElim)
	}
}

func TestDeadReadCheckerFiresOnBadKill(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.S0, 5)
	m.Kill(isa.S0)                // assert dead...
	m.Add(isa.T0, isa.S0, isa.S0) // ...then read: compiler error
	m.Ret()
	e := run(t, pr, defaultCfg())
	if len(e.Violations) == 0 {
		t.Fatal("dead read not detected")
	}
	if e.Violations[0].Reg != isa.S0 {
		t.Errorf("violation register = %v", e.Violations[0].Reg)
	}
}

func TestIDVIKillsTempsAcrossCalls(t *testing.T) {
	pr := prog.New()
	pr.Assembler("leaf").Li(isa.V0, 1).Ret()
	m := pr.Assembler("main")
	epi := m.Frame(0, true)
	m.Li(isa.T0, 99)
	m.Call("leaf")
	m.Add(isa.T1, isa.T0, isa.T0) // t0 is dead after the call: violation
	epi()
	e := run(t, pr, defaultCfg())
	if len(e.Violations) == 0 {
		t.Fatal("I-DVI dead read of t0 across call not detected")
	}
}

func TestLvmSaveLoadRoundTrip(t *testing.T) {
	pr := prog.New()
	pr.AddData(prog.DataSym{Name: "tcb", Size: 8})
	m := pr.Assembler("main")
	m.LoadAddr(isa.T0, "tcb")
	m.Kill(isa.S0, isa.S1)
	m.LvmSave(isa.T0, 0)
	// Clobber liveness with writes, then reload the mask.
	m.Li(isa.S0, 1).Li(isa.S1, 2)
	m.LvmLoad(isa.T0, 0)
	m.Ret()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := New(pr, img, defaultCfg())
	// Inspect the LVM right after the lvm-load executes (the later return
	// legitimately rewrites callee-saved liveness from the LVM-Stack).
	sawLoad := false
	for !e.Halted {
		st := e.Step()
		if st.Inst.Op == isa.LVML {
			sawLoad = true
			if e.Tracker.Live(isa.S0) || e.Tracker.Live(isa.S1) {
				t.Error("LVM load did not restore dead bits")
			}
			if !e.Tracker.Live(isa.S2) {
				t.Error("LVM load killed unrelated register")
			}
		}
	}
	if !sawLoad {
		t.Fatal("lvm-load never executed")
	}
}

func TestStatsCharacterization(t *testing.T) {
	e := run(t, fibProgram(12), defaultCfg())
	s := e.Stats
	if s.Total == 0 || s.Original() == 0 {
		t.Fatal("no instructions counted")
	}
	if s.Original() > s.Total {
		t.Error("original exceeds total")
	}
	if s.MemRefs != s.Loads+s.Stores {
		t.Errorf("memrefs %d != loads %d + stores %d", s.MemRefs, s.Loads, s.Stores)
	}
	if s.SavesRestores() == 0 {
		t.Error("fib saves/restores not counted")
	}
	if s.CondBr == 0 || s.TakenBr > s.CondBr {
		t.Errorf("branch stats wrong: %d taken of %d", s.TakenBr, s.CondBr)
	}
}

func TestRunBudget(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Label("spin")
	m.Jump("spin")
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := New(pr, img, Config{DVI: core.DefaultConfig()})
	if err := e.Run(1000); err != ErrBudget {
		t.Errorf("Run = %v, want ErrBudget", err)
	}
}

func TestHaltIsSticky(t *testing.T) {
	pr := prog.New()
	pr.Assembler("main").Ret()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := New(pr, img, Config{DVI: core.DefaultConfig()})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	total := e.Stats.Total
	st := e.Step()
	if !st.Halted || e.Stats.Total != total {
		t.Error("stepping a halted emulator had side effects")
	}
}

func TestStepReportsKilledMask(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.S0, 1).Li(isa.S1, 2)
	m.Kill(isa.S0, isa.S1)
	m.Ret()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := New(pr, img, Config{DVI: core.DefaultConfig()})
	var killed isa.RegMask
	for !e.Halted {
		st := e.Step()
		if st.Inst.Op == isa.KILL {
			killed = st.Killed
		}
	}
	if !killed.Has(isa.S0) || !killed.Has(isa.S1) {
		t.Errorf("killed mask = %s", killed)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	pr := fibProgram(10)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := New(pr, img, defaultCfg())
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	sum1 := e.Checksum
	e.Reset()
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Checksum != sum1 {
		t.Error("rerun after reset produced different checksum")
	}
}

func TestJalrIndirectCall(t *testing.T) {
	// "callee" is declared first, so its address does not depend on main's
	// length; link a probe image to learn it, then emit it as a constant.
	build := func(addr uint32) (*prog.Program, *prog.Image) {
		pr := prog.New()
		pr.Assembler("callee").Li(isa.V0, 77).Ret()
		m := pr.Assembler("main")
		epi := m.Frame(0, true)
		m.Li32(isa.T0, addr)
		m.CallReg(isa.T0)
		m.Li(isa.T1, 0)
		m.Sys(isa.T1, isa.V0)
		epi()
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("link: %v", err)
		}
		return pr, img
	}
	_, probe := build(0)
	pr, img := build(uint32(probe.ProcAddrs["callee"]))
	e := New(pr, img, defaultCfg())
	if err := e.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if e.Outputs[0] != 77 {
		t.Errorf("jalr call returned %d, want 77", e.Outputs[0])
	}
	if e.Stats.Calls != 2 { // trampoline jal + jalr
		t.Errorf("calls = %d, want 2", e.Stats.Calls)
	}
}

// wildJumpProgram computes a jump far past the text segment.
func wildJumpProgram(target int64) *prog.Program {
	pr := prog.New()
	m := pr.Assembler("main")
	m.Li(isa.T0, target)
	m.Inst(isa.Inst{Op: isa.JR, Rs1: isa.T0}) // computed jump, not a return
	m.Ret()
	return pr
}

func TestWildJumpRecordsFault(t *testing.T) {
	e := run(t, wildJumpProgram(0x40_0000), defaultCfg())
	if !e.Halted {
		t.Fatal("emulator did not halt")
	}
	if e.Stats.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", e.Stats.Faults)
	}
}

func TestMisalignedJumpRecordsFault(t *testing.T) {
	// Target inside the text segment but not word-aligned.
	e := run(t, wildJumpProgram(int64(prog.DefaultTextBase+2)), defaultCfg())
	if e.Stats.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", e.Stats.Faults)
	}
}

func TestStepReportsFaulted(t *testing.T) {
	pr := wildJumpProgram(0x40_0000)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := New(pr, img, defaultCfg())
	var faultStep *Step
	for i := 0; i < 100 && !e.Halted; i++ {
		faultStep = e.Step()
	}
	if !faultStep.Halted || !faultStep.Faulted {
		t.Fatalf("final step = %+v, want Halted and Faulted", *faultStep)
	}
	if faultStep.PC != 0x40_0000 {
		t.Errorf("fault pc = %#x, want 0x400000", faultStep.PC)
	}
	// A clean exit is not a fault.
	clean := prog.New()
	clean.Assembler("main").Ret()
	e2 := run(t, clean, defaultCfg())
	if e2.Stats.Faults != 0 {
		t.Errorf("clean exit recorded %d faults", e2.Stats.Faults)
	}
}

// TestResetForMatchesFresh pins the pooling contract: an emulator reused
// across different programs via ResetFor behaves exactly like a freshly
// constructed one.
func TestResetForMatchesFresh(t *testing.T) {
	prA := prog.New()
	a := prA.Assembler("main")
	a.Li(isa.T0, 3).Li(isa.T1, 9).Mul(isa.T2, isa.T0, isa.T1)
	a.Li(isa.A0, 1).Sys(isa.A0, isa.T2).Ret()
	imgA, err := prA.Link()
	if err != nil {
		t.Fatal(err)
	}
	prB, imgB := func() (*prog.Program, *prog.Image) {
		pr := prog.New()
		m := pr.Assembler("main")
		m.Li(isa.T0, 41).Addi(isa.T0, isa.T0, 1)
		m.Li(isa.A0, 2).Sys(isa.A0, isa.T0).Ret()
		img, err := pr.Link()
		if err != nil {
			t.Fatal(err)
		}
		return pr, img
	}()

	fresh := New(prB, imgB, defaultCfg())
	if err := fresh.Run(10_000); err != nil {
		t.Fatal(err)
	}

	reused := New(prA, imgA, defaultCfg())
	if err := reused.Run(10_000); err != nil {
		t.Fatal(err)
	}
	reused.ResetFor(prB, imgB, defaultCfg())
	if err := reused.Run(10_000); err != nil {
		t.Fatal(err)
	}

	if reused.Checksum != fresh.Checksum {
		t.Errorf("checksum %#x, want %#x", reused.Checksum, fresh.Checksum)
	}
	if reused.Stats != fresh.Stats {
		t.Errorf("stats %+v, want %+v", reused.Stats, fresh.Stats)
	}
}

// TestStepSteadyStateZeroAlloc pins the 0 allocs/op invariant of the
// emulator inner loop: re-running a program on a warm emulator allocates
// nothing (memory pages, output buffers and tracker state are reused).
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	pr := prog.New()
	m := pr.Assembler("main")
	epi := m.Frame(0, true, isa.S0)
	m.Li(isa.S0, 0)
	m.Li(isa.T1, 2000)
	m.Label("loop")
	m.Addi(isa.S0, isa.S0, 3)
	m.Blt(isa.S0, isa.T1, "loop")
	m.Li(isa.A0, 0).Sys(isa.A0, isa.S0)
	epi()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	e := New(pr, img, cfg)
	if err := e.Run(1_000_000); err != nil {
		t.Fatal(err) // warm pages and buffer capacities
	}
	allocs := testing.AllocsPerRun(3, func() {
		e.ResetFor(pr, img, cfg)
		if err := e.Run(1_000_000); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state run allocated %.1f objects, want 0", allocs)
	}
}
