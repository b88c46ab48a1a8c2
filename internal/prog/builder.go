package prog

import (
	"fmt"

	"dvi/internal/isa"
)

// Asm is a fluent assembler over one procedure. Obtain one with Assembler.
// All methods return the receiver so instruction sequences chain.
type Asm struct {
	p *Proc
}

// Assembler returns a fluent assembler for a new procedure named name.
func (pr *Program) Assembler(name string) *Asm {
	return &Asm{p: pr.AddProc(name)}
}

// Proc returns the underlying procedure.
func (a *Asm) Proc() *Proc { return a.p }

// Label defines a local label at the current position.
func (a *Asm) Label(name string) *Asm {
	if _, dup := a.p.labels[name]; dup {
		panic(fmt.Sprintf("prog: duplicate label %q in %s", name, a.p.Name))
	}
	a.p.labels[name] = len(a.p.Insts)
	return a
}

func (a *Asm) raw(in Inst) *Asm {
	a.p.Insts = append(a.p.Insts, in)
	return a
}

// Inst appends an already-formed machine instruction.
func (a *Asm) Inst(in isa.Inst) *Asm { return a.raw(Inst{Inst: in}) }

// --- register arithmetic ---

func (a *Asm) op3(op isa.Op, rd, rs1, rs2 isa.Reg) *Asm {
	return a.Inst(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (a *Asm) Add(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.ADD, rd, rs1, rs2) }
func (a *Asm) Sub(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.SUB, rd, rs1, rs2) }
func (a *Asm) Mul(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.MUL, rd, rs1, rs2) }
func (a *Asm) Div(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.DIV, rd, rs1, rs2) }
func (a *Asm) Rem(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.REM, rd, rs1, rs2) }
func (a *Asm) And(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.AND, rd, rs1, rs2) }
func (a *Asm) Or(rd, rs1, rs2 isa.Reg) *Asm   { return a.op3(isa.OR, rd, rs1, rs2) }
func (a *Asm) Xor(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.XOR, rd, rs1, rs2) }
func (a *Asm) Nor(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.NOR, rd, rs1, rs2) }
func (a *Asm) Sll(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.SLL, rd, rs1, rs2) }
func (a *Asm) Srl(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.SRL, rd, rs1, rs2) }
func (a *Asm) Sra(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.SRA, rd, rs1, rs2) }
func (a *Asm) Slt(rd, rs1, rs2 isa.Reg) *Asm  { return a.op3(isa.SLT, rd, rs1, rs2) }
func (a *Asm) Sltu(rd, rs1, rs2 isa.Reg) *Asm { return a.op3(isa.SLTU, rd, rs1, rs2) }

// --- immediates ---

func (a *Asm) opi(op isa.Op, rd, rs1 isa.Reg, imm int64) *Asm {
	return a.Inst(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

func (a *Asm) Addi(rd, rs1 isa.Reg, imm int64) *Asm { return a.opi(isa.ADDI, rd, rs1, imm) }
func (a *Asm) Andi(rd, rs1 isa.Reg, imm int64) *Asm { return a.opi(isa.ANDI, rd, rs1, imm) }
func (a *Asm) Ori(rd, rs1 isa.Reg, imm int64) *Asm  { return a.opi(isa.ORI, rd, rs1, imm) }
func (a *Asm) Xori(rd, rs1 isa.Reg, imm int64) *Asm { return a.opi(isa.XORI, rd, rs1, imm) }
func (a *Asm) Slti(rd, rs1 isa.Reg, imm int64) *Asm { return a.opi(isa.SLTI, rd, rs1, imm) }
func (a *Asm) Slli(rd, rs1 isa.Reg, sh int64) *Asm  { return a.opi(isa.SLLI, rd, rs1, sh) }
func (a *Asm) Srli(rd, rs1 isa.Reg, sh int64) *Asm  { return a.opi(isa.SRLI, rd, rs1, sh) }
func (a *Asm) Srai(rd, rs1 isa.Reg, sh int64) *Asm  { return a.opi(isa.SRAI, rd, rs1, sh) }
func (a *Asm) Lui(rd isa.Reg, imm int64) *Asm       { return a.opi(isa.LUI, rd, isa.Zero, imm) }

// Li loads a small (16-bit signed) constant.
func (a *Asm) Li(rd isa.Reg, imm int64) *Asm { return a.Addi(rd, isa.Zero, imm) }

// Li32 loads an arbitrary 32-bit constant with LUI+ORI.
func (a *Asm) Li32(rd isa.Reg, v uint32) *Asm {
	return a.Lui(rd, int64(v>>16)).Ori(rd, rd, int64(v&0xFFFF))
}

// Move copies rs into rd.
func (a *Asm) Move(rd, rs isa.Reg) *Asm { return a.Add(rd, rs, isa.Zero) }

// Nop appends a no-op.
func (a *Asm) Nop() *Asm { return a.Inst(isa.Inst{Op: isa.NOP}) }

// Halt appends a halt.
func (a *Asm) Halt() *Asm { return a.Inst(isa.Inst{Op: isa.HALT}) }

// Sys emits the checksum/output channel instruction.
func (a *Asm) Sys(ch, val isa.Reg) *Asm {
	return a.Inst(isa.Inst{Op: isa.SYS, Rs1: ch, Rs2: val})
}

// --- memory ---

func (a *Asm) Ld(rd, base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.LD, Rd: rd, Rs1: base, Imm: off})
}
func (a *Asm) St(rs, base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.ST, Rs2: rs, Rs1: base, Imm: off})
}
func (a *Asm) Lb(rd, base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.LB, Rd: rd, Rs1: base, Imm: off})
}
func (a *Asm) Sb(rs, base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.SB, Rs2: rs, Rs1: base, Imm: off})
}

// LiveLd emits a live-load (restore of a callee-saved register, paper §5.1).
func (a *Asm) LiveLd(rd, base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.LVLD, Rd: rd, Rs1: base, Imm: off})
}

// LiveSt emits a live-store (save of a callee-saved register).
func (a *Asm) LiveSt(rs, base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.LVST, Rs2: rs, Rs1: base, Imm: off})
}

// LvmSave stores the hardware LVM at base+off (paper §6.1).
func (a *Asm) LvmSave(base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.LVMS, Rs1: base, Imm: off})
}

// LvmLoad restores the hardware LVM from base+off.
func (a *Asm) LvmLoad(base isa.Reg, off int64) *Asm {
	return a.Inst(isa.Inst{Op: isa.LVML, Rs1: base, Imm: off})
}

// LoadAddr materializes the address of data symbol name into rd (LUI+ORI).
func (a *Asm) LoadAddr(rd isa.Reg, name string) *Asm {
	a.raw(Inst{Inst: isa.Inst{Op: isa.LUI, Rd: rd}, Kind: TargetDataHi, Target: name})
	a.raw(Inst{Inst: isa.Inst{Op: isa.ORI, Rd: rd, Rs1: rd}, Kind: TargetDataLo, Target: name})
	return a
}

// --- control flow ---

func (a *Asm) branch(op isa.Op, rs1, rs2 isa.Reg, label string) *Asm {
	return a.raw(Inst{Inst: isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, Kind: TargetBranch, Target: label})
}

func (a *Asm) Beq(rs1, rs2 isa.Reg, label string) *Asm  { return a.branch(isa.BEQ, rs1, rs2, label) }
func (a *Asm) Bne(rs1, rs2 isa.Reg, label string) *Asm  { return a.branch(isa.BNE, rs1, rs2, label) }
func (a *Asm) Blt(rs1, rs2 isa.Reg, label string) *Asm  { return a.branch(isa.BLT, rs1, rs2, label) }
func (a *Asm) Bge(rs1, rs2 isa.Reg, label string) *Asm  { return a.branch(isa.BGE, rs1, rs2, label) }
func (a *Asm) Bltu(rs1, rs2 isa.Reg, label string) *Asm { return a.branch(isa.BLTU, rs1, rs2, label) }
func (a *Asm) Bgeu(rs1, rs2 isa.Reg, label string) *Asm { return a.branch(isa.BGEU, rs1, rs2, label) }

// Beqz branches if rs is zero.
func (a *Asm) Beqz(rs isa.Reg, label string) *Asm { return a.Beq(rs, isa.Zero, label) }

// Bnez branches if rs is non-zero.
func (a *Asm) Bnez(rs isa.Reg, label string) *Asm { return a.Bne(rs, isa.Zero, label) }

// Jump jumps to a local label or procedure.
func (a *Asm) Jump(target string) *Asm {
	return a.raw(Inst{Inst: isa.Inst{Op: isa.J}, Kind: TargetJump, Target: target})
}

// Call emits jal to the named procedure.
func (a *Asm) Call(procName string) *Asm {
	return a.raw(Inst{Inst: isa.Inst{Op: isa.JAL, Rd: isa.RA}, Kind: TargetJump, Target: procName})
}

// CallReg emits an indirect call through rs (jalr).
func (a *Asm) CallReg(rs isa.Reg) *Asm {
	return a.Inst(isa.Inst{Op: isa.JALR, Rd: isa.RA, Rs1: rs})
}

// Ret emits the return idiom jr ra.
func (a *Asm) Ret() *Asm {
	return a.Inst(isa.Inst{Op: isa.JR, Rs1: isa.RA, IsReturn: true})
}

// Kill emits an E-DVI kill of the given registers (paper §2). Registers
// outside the killable set panic: generating them is a toolchain bug.
func (a *Asm) Kill(regs ...isa.Reg) *Asm {
	m := isa.MaskOf(regs...)
	return a.KillMask(m)
}

// KillMask emits an E-DVI kill with an explicit mask.
func (a *Asm) KillMask(m isa.RegMask) *Asm {
	if m&^isa.Killable != 0 {
		panic(fmt.Sprintf("prog: kill of non-killable registers %s", m&^isa.Killable))
	}
	return a.Inst(isa.Inst{Op: isa.KILL, Mask: m})
}

// --- procedure frame helpers ---

// Frame emits a standard prologue: allocate size bytes of stack and save
// the given callee-saved registers (and ra if saveRA) with live-stores at
// ascending offsets. It returns the matching epilogue emitter.
//
// The layout is: [sp+0 .. ] saved registers, then ra, locals above.
func (a *Asm) Frame(size int64, saveRA bool, saved ...isa.Reg) func() {
	total := size + int64(len(saved))*8
	if saveRA {
		total += 8
	}
	// Keep the stack 16-byte aligned.
	total = (total + 15) &^ 15
	a.Addi(isa.SP, isa.SP, -total)
	off := size
	for _, r := range saved {
		a.LiveSt(r, isa.SP, off)
		off += 8
	}
	if saveRA {
		a.St(isa.RA, isa.SP, off)
	}
	return func() {
		off := size
		for _, r := range saved {
			a.LiveLd(r, isa.SP, off)
			off += 8
		}
		if saveRA {
			a.Ld(isa.RA, isa.SP, off)
		}
		a.Addi(isa.SP, isa.SP, total)
		a.Ret()
	}
}
