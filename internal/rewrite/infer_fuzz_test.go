package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/prog"
)

// The inference differential fuzzer (the sibling of ooo's
// fuzz_test.go): random terminating programs with frames, call DAGs,
// bounded loops, branches, and memory traffic — but NO kill annotations —
// are annotated by rewrite.Infer and must run architecturally
// bit-identical to the unannotated original under every elimination
// scheme. A shadow taint interpreter additionally proves every inferred
// kill is of a truly-dead value: killed registers (and the stale stack
// slots of eliminated saves) are tainted, taint propagates through
// arithmetic and memory, and reaching any observable sink — a store
// address, a branch or jump input, a system output — is a soundness
// violation regardless of whether the value happened to be bit-equal.

type inferGen struct {
	r      *rand.Rand
	nProcs int
}

var inferTemps = []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5}

func (g *inferGen) reg() isa.Reg { return inferTemps[g.r.Intn(len(inferTemps))] }

func (g *inferGen) savedPool() []isa.Reg {
	all := []isa.Reg{isa.S1, isa.S2, isa.S3, isa.S4, isa.S5}
	n := g.r.Intn(len(all) + 1)
	return all[:n]
}

func (g *inferGen) emitBody(a *prog.Asm, self int, saved []isa.Reg) {
	r := g.r
	nOps := 4 + r.Intn(24)
	label := 0
	calls := 0
	for i := 0; i < nOps; i++ {
		switch r.Intn(12) {
		case 0, 1, 2: // arithmetic on temps
			ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR, isa.SLT}
			a.Inst(isa.Inst{Op: ops[r.Intn(len(ops))], Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
		case 3:
			a.Addi(g.reg(), g.reg(), int64(r.Intn(4096)-2048))
		case 4:
			if r.Intn(2) == 0 {
				a.Div(g.reg(), g.reg(), g.reg())
			} else {
				a.Rem(g.reg(), g.reg(), g.reg())
			}
		case 5: // memory round trip through the scratch array
			off := int64(r.Intn(32)) * 8
			a.LoadAddr(isa.T6, "scratch")
			if r.Intn(2) == 0 {
				a.St(g.reg(), isa.T6, off)
			} else {
				a.Ld(g.reg(), isa.T6, off)
			}
		case 6: // bounded loop on a callee-saved counter
			if len(saved) > 0 {
				cnt := saved[r.Intn(len(saved))]
				lbl := fmt.Sprintf("l%d_%d", self, label)
				label++
				a.Li(cnt, int64(1+r.Intn(6)))
				a.Label(lbl)
				a.Inst(isa.Inst{Op: isa.ADD, Rd: g.reg(), Rs1: g.reg(), Rs2: cnt})
				a.Addi(cnt, cnt, -1)
				a.Bnez(cnt, lbl)
			}
		case 7: // forward branch
			lbl := fmt.Sprintf("f%d_%d", self, label)
			label++
			ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE}
			a.Inst(isa.Inst{Op: ops[r.Intn(len(ops))], Rs1: g.reg(), Rs2: g.reg()})
			p := a.Proc()
			p.Insts[len(p.Insts)-1].Kind = prog.TargetBranch
			p.Insts[len(p.Insts)-1].Target = lbl
			a.Addi(g.reg(), g.reg(), 1)
			a.Xor(g.reg(), g.reg(), g.reg())
			a.Label(lbl)
		case 8: // call deeper into the DAG
			if self+1 < g.nProcs && calls < 2 {
				calls++
				callee := self + 1 + r.Intn(g.nProcs-self-1)
				a.Move(isa.A0, g.reg())
				a.Call(fmt.Sprintf("q%d", callee))
				a.Move(g.reg(), isa.V0)
			}
		case 9: // frame-local spill round trip (slots are init'd at entry)
			slot := int64(r.Intn(2)) * 8
			a.St(g.reg(), isa.SP, slot)
			a.Addi(g.reg(), g.reg(), int64(r.Intn(8)))
			a.Ld(g.reg(), isa.SP, slot)
		case 10: // compute with a callee-saved register
			if len(saved) > 0 {
				s := saved[r.Intn(len(saved))]
				if r.Intn(2) == 0 {
					a.Add(s, g.reg(), s)
				} else {
					a.Add(g.reg(), s, g.reg())
				}
			}
		case 11: // emit an output
			a.Sys(isa.Zero, g.reg())
		}
	}
	a.Add(isa.V0, g.reg(), g.reg())
}

// buildInferFuzzProgram generates a random annotation-free program.
// Unlike the ooo fuzzer it emits no kill instructions (those are the
// inference pass's job) and initializes frame locals before any body
// instruction can load them, so no run ever observes leftover stack.
func buildInferFuzzProgram(seed int64) *prog.Program {
	r := rand.New(rand.NewSource(seed))
	g := &inferGen{r: r, nProcs: 3 + r.Intn(4)}
	pr := prog.New()
	pr.AddData(prog.DataSym{Name: "scratch", Size: 64 * 8})

	for i := 0; i < g.nProcs; i++ {
		a := pr.Assembler(fmt.Sprintf("q%d", i))
		saved := g.savedPool()
		hasCalls := i+1 < g.nProcs
		epi := a.Frame(16, hasCalls, saved...)
		a.St(isa.A0, isa.SP, 0) // initialize the local slots
		a.St(isa.A0, isa.SP, 8)
		for j, s := range saved {
			a.Li(s, int64(seed)%97+int64(j))
		}
		g.emitBody(a, i, saved)
		epi()
	}

	m := pr.Assembler("main")
	mepi := m.Frame(0, true, isa.S0)
	m.Li(isa.S0, int64(2+r.Intn(3)))
	m.Label("top")
	m.Li(isa.A0, 5)
	m.Call("q0")
	m.Sys(isa.Zero, isa.V0)
	m.Addi(isa.S0, isa.S0, -1)
	m.Bnez(isa.S0, "top")
	mepi()
	return pr
}

// taintOracle shadows an emulator run. A taint bit means "the analysis
// asserted this value is dead"; the oracle's transfer rules mirror
// exactly what the faint-value analysis is allowed to assume.
type taintOracle struct {
	reg [32]bool
	mem map[uint64]bool // per tainted byte
}

func newTaintOracle() *taintOracle { return &taintOracle{mem: make(map[uint64]bool)} }

func (o *taintOracle) memTainted(addr uint64, width int) bool {
	for i := 0; i < width; i++ {
		if o.mem[addr+uint64(i)] {
			return true
		}
	}
	return false
}

func (o *taintOracle) setMem(addr uint64, width int, taint bool) {
	for i := 0; i < width; i++ {
		if taint {
			o.mem[addr+uint64(i)] = true
		} else {
			delete(o.mem, addr+uint64(i))
		}
	}
}

// step applies one executed instruction to the shadow state and returns
// an error if a dead (tainted) value reached an observable sink.
func (o *taintOracle) step(st *emu.Step, e *emu.Emulator) error {
	in := st.Inst
	sink := func(rs ...isa.Reg) error {
		for _, r := range rs {
			if o.reg[r] {
				return fmt.Errorf("pc %#x %v: dead value in %v reaches an observable sink", st.PC, in.Op, r)
			}
		}
		return nil
	}
	switch {
	case in.Op == isa.KILL:
		for r := isa.Reg(0); r < 32; r++ {
			if in.Mask.Has(r) && !isa.AlwaysLive.Has(r) {
				o.reg[r] = true
			}
		}
	case in.Op == isa.JAL:
		o.reg[isa.RA] = false
	case in.Op == isa.JALR:
		if err := sink(in.Rs1); err != nil {
			return err
		}
		o.reg[in.Rd] = false
	case in.Op == isa.JR:
		return sink(in.Rs1)
	case in.Op == isa.SYS:
		return sink(in.Rs1, in.Rs2)
	case isa.OpClass(in.Op) == isa.ClassBranch:
		return sink(in.Rs1, in.Rs2)
	case in.Op == isa.J, in.Op == isa.NOP, in.Op == isa.HALT:
		// no data flow
	case in.Op == isa.LVST:
		// SP is never killable, so the address is clean by construction;
		// an eliminated save leaves the slot stale — taint it.
		addr := e.Regs[in.Rs1] + uint64(in.Imm)
		if st.Eliminated {
			o.setMem(addr, 8, true)
		} else {
			o.setMem(addr, 8, o.reg[in.Rs2])
		}
	case in.Op == isa.LVLD:
		// An eliminated restore leaves the register (and its taint)
		// untouched; an executed one reloads whatever the slot holds.
		if !st.Eliminated {
			o.reg[in.Rd] = o.reg[in.Rs1] || o.memTainted(st.Addr, 8)
		}
	case in.Op == isa.LD, in.Op == isa.LB:
		// Loading through a dead address is permitted (the faint layer
		// relies on loads being total) — the result is simply dead too.
		w := 8
		if in.Op == isa.LB {
			w = 1
		}
		if in.Rd != isa.Zero {
			o.reg[in.Rd] = o.reg[in.Rs1] || o.memTainted(st.Addr, w)
		}
	case in.Op == isa.ST, in.Op == isa.SB:
		// A dead store address would corrupt arbitrary memory: a sink.
		if err := sink(in.Rs1); err != nil {
			return err
		}
		w := 8
		if in.Op == isa.SB {
			w = 1
		}
		o.setMem(st.Addr, w, o.reg[in.Rs2])
	default: // arithmetic, immediates, lui
		if rd, ok := in.WritesReg(); ok {
			t := false
			var buf [2]isa.Reg
			for _, r := range in.AppendSrcRegs(buf[:0]) {
				t = t || o.reg[r]
			}
			o.reg[rd] = t
		}
	}
	o.reg[isa.Zero] = false
	return nil
}

// runOracle executes pr step by step with the taint shadow attached.
func runOracle(t *testing.T, pr *prog.Program, scheme emu.Scheme) *emu.Emulator {
	t.Helper()
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(pr, img, emu.Config{DVI: core.DefaultConfig(), Scheme: scheme})
	o := newTaintOracle()
	for steps := 0; ; steps++ {
		if steps > 2_000_000 {
			t.Fatal("oracle run exceeded instruction budget")
		}
		st := e.Step()
		if st.Halted {
			break
		}
		if err := o.step(st, e); err != nil {
			t.Fatalf("scheme %v: unsound inferred kill: %v", scheme, err)
		}
	}
	return e
}

func TestInferFuzzDifferential(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	schemes := []emu.Scheme{emu.ElimOff, emu.ElimLVM, emu.ElimLVMStack}
	totalKills, totalElim := 0, uint64(0)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := runPlain(t, buildInferFuzzProgram(seed))
		for _, policy := range []Policy{KillsBeforeCalls, KillsAtDeath} {
			pr := buildInferFuzzProgram(seed)
			n, err := Infer(pr, Options{Policy: policy})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			totalKills += n
			for _, scheme := range schemes {
				e := runOracle(t, pr, scheme)
				if e.Checksum != ref.Checksum {
					t.Fatalf("seed %d policy %d scheme %v: checksum %#x != reference %#x",
						seed, policy, scheme, e.Checksum, ref.Checksum)
				}
				if len(e.Outputs) != len(ref.Outputs) {
					t.Fatalf("seed %d policy %d scheme %v: %d outputs != %d",
						seed, policy, scheme, len(e.Outputs), len(ref.Outputs))
				}
				for i := range e.Outputs {
					if e.Outputs[i] != ref.Outputs[i] {
						t.Fatalf("seed %d policy %d scheme %v: output %d diverges", seed, policy, scheme, i)
					}
				}
				if e.Stats.Original() != ref.Stats.Original() {
					t.Fatalf("seed %d policy %d scheme %v: original inst count %d != %d",
						seed, policy, scheme, e.Stats.Original(), ref.Stats.Original())
				}
				if len(e.Violations) != 0 {
					t.Fatalf("seed %d policy %d scheme %v: %d tracker violations",
						seed, policy, scheme, len(e.Violations))
				}
				if scheme == emu.ElimLVMStack {
					totalElim += e.Stats.SavesElim
				}
			}
		}
	}
	// The pass must not be vacuously sound: across the corpus it has to
	// find kills and those kills have to eliminate real save traffic.
	if totalKills == 0 {
		t.Error("inference inserted no kills across the entire fuzz corpus")
	}
	if totalElim == 0 {
		t.Error("inferred kills eliminated no saves across the entire fuzz corpus")
	}
}

// TestInferFuzzOracleCatchesBadKills sanity-checks the oracle itself: an
// unsound kill of main's live loop counter must be flagged.
func TestInferFuzzOracleCatchesBadKills(t *testing.T) {
	pr := buildInferFuzzProgram(1)
	m := pr.Proc("main")
	for i, in := range m.Insts {
		if in.Op == isa.JAL { // kill the live counter right before the call
			m.InsertBefore(i, prog.Inst{Inst: isa.Inst{Op: isa.KILL, Mask: isa.MaskOf(isa.S0)}})
			break
		}
	}
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(pr, img, emu.Config{DVI: core.DefaultConfig(), Scheme: emu.ElimLVMStack})
	o := newTaintOracle()
	caught := false
	for steps := 0; steps < 2_000_000; steps++ {
		st := e.Step()
		if st.Halted {
			break
		}
		if o.step(st, e) != nil {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("oracle failed to flag a kill of a live register")
	}
}
