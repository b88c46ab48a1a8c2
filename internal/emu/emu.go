// Package emu is the functional emulator: it executes linked images with
// exact architectural semantics, tracks DVI state through a core.Tracker,
// applies dynamic save/restore elimination (configurable scheme), checks
// dead-value soundness, and gathers the program characterization statistics
// of the paper's Figure 3.
//
// The out-of-order timing simulator drives an Emulator one instruction per
// dispatch (SimpleScalar style); standalone it serves as the reference
// implementation that timing results are validated against.
package emu

import (
	"fmt"

	"dvi/internal/core"
	"dvi/internal/isa"
	"dvi/internal/mem"
	"dvi/internal/prog"
)

// Scheme selects which save/restore elimination hardware is modelled
// (paper §5.2 presents two schemes).
type Scheme uint8

const (
	// ElimOff: live-stores and live-loads behave as plain stores/loads.
	ElimOff Scheme = iota
	// ElimLVM: the LVM scheme — only saves (live-stores) are eliminated.
	ElimLVM
	// ElimLVMStack: the LVM-Stack scheme — saves and restores eliminated.
	ElimLVMStack
)

// String returns the table label for the scheme.
func (s Scheme) String() string {
	switch s {
	case ElimOff:
		return "off"
	case ElimLVM:
		return "LVM (saves only)"
	default:
		return "LVM-Stack (saves and restores)"
	}
}

// Config parameterizes an emulator.
type Config struct {
	DVI    core.Config
	Scheme Scheme
	// CheckDeadReads records a violation whenever the program reads a
	// register the DVI hardware believes dead. Correct E-DVI never trips
	// this (paper §7: "errors in E-DVI should be considered compiler
	// errors").
	CheckDeadReads bool
	// MaxOutputs caps recorded SYS outputs (0 = 1024).
	MaxOutputs int
}

// Stats aggregates dynamic execution counts. All counts are instruction
// instances except where noted.
type Stats struct {
	Total uint64 // all instructions executed, including kill annotations
	Kills uint64 // E-DVI kill instructions (cycle overhead, not "work")

	Calls   uint64
	Returns uint64
	CondBr  uint64
	TakenBr uint64
	Jumps   uint64
	MemRefs uint64 // loads+stores that accessed memory (eliminated ones excluded)
	Loads   uint64
	Stores  uint64
	LvmOps  uint64
	ALUOps  uint64
	MulDiv  uint64

	SavesExec    uint64 // live-stores that executed
	SavesElim    uint64 // live-stores eliminated (dead data register)
	RestoresExec uint64 // live-loads that executed
	RestoresElim uint64 // live-loads eliminated (LVM-Stack scheme)

	// Faults counts fetches outside the text segment (a wild jump or a
	// misaligned target). The emulator halts on one — like the clean HALT
	// it always synthesized — but the count distinguishes corrupted
	// control flow from a genuine program exit.
	Faults uint64
}

// Original returns the dynamic instruction count excluding E-DVI
// annotations — the paper's unit of work (§3 "Significance of Results").
func (s Stats) Original() uint64 { return s.Total - s.Kills }

// SavesRestores returns total callee-saved save/restore instances,
// executed or eliminated.
func (s Stats) SavesRestores() uint64 {
	return s.SavesExec + s.SavesElim + s.RestoresExec + s.RestoresElim
}

// Violation records a read of a dead register.
type Violation struct {
	PC  uint64
	Reg isa.Reg
}

// Step reports everything the timing simulator needs to know about one
// architecturally executed instruction.
type Step struct {
	PC     uint64
	Inst   *isa.Inst // the decoded instruction, shared read-only with the image
	NextPC uint64

	// Control flow.
	IsCtl bool // branch or jump
	Taken bool // branch taken / jump always true

	// Memory.
	IsMem bool
	Addr  uint64 // effective address when IsMem

	// DVI.
	Eliminated bool        // this live-store/live-load was dropped
	Killed     isa.RegMask // registers transitioned live->dead at this instruction

	Halted bool
	// Faulted reports that this step fetched outside the text segment:
	// the emulator halted, but on corrupted control flow, not a HALT the
	// program actually contains.
	Faulted bool
}

// haltInst is the instruction a halted emulator's steps report.
var haltInst = isa.Inst{Op: isa.HALT}

// Emulator executes one program image.
type Emulator struct {
	cfg Config
	img *prog.Image

	Mem     *mem.Memory
	Regs    [isa.NumRegs]uint64
	PC      uint64
	Tracker *core.Tracker
	Halted  bool

	Stats      Stats
	Violations []Violation

	Checksum uint64
	Outputs  []uint64

	step Step // the record Step fills and returns
}

// New builds an emulator for the image with its own memory (text + data
// loaded) and registers initialized: sp at the stack top, gp at the data
// base.
func New(pr *prog.Program, img *prog.Image, cfg Config) *Emulator {
	e := &Emulator{}
	e.ResetFor(pr, img, cfg)
	return e
}

// NewWithMemory builds an emulator over an existing memory (shared-image
// replays clone the memory themselves).
func NewWithMemory(img *prog.Image, m *mem.Memory, cfg Config) *Emulator {
	e := &Emulator{cfg: cfg, img: img, Mem: m, Tracker: core.New(cfg.DVI)}
	e.Reset()
	return e
}

// ResetFor retargets the emulator to a (possibly different) program,
// image and configuration, then rewinds to program start. The memory is
// zeroed in place and the image reloaded, so a pooled emulator runs a
// fresh job without reallocating its footprint; the result is
// indistinguishable from a New emulator.
func (e *Emulator) ResetFor(pr *prog.Program, img *prog.Image, cfg Config) {
	e.cfg = cfg
	e.img = img
	if e.Mem == nil {
		e.Mem = mem.New()
	} else {
		e.Mem.Reset()
	}
	img.LoadInto(e.Mem, pr.Data)
	if e.Tracker == nil {
		e.Tracker = core.New(cfg.DVI)
	} else {
		e.Tracker.Reconfigure(cfg.DVI)
	}
	e.Reset()
}

// Reset rewinds architectural state to program start. Memory is not
// reloaded (ResetFor does both).
func (e *Emulator) Reset() {
	e.Regs = [isa.NumRegs]uint64{}
	e.Regs[isa.SP] = e.img.StackTop
	e.Regs[isa.GP] = e.img.DataBase
	e.PC = e.img.EntryPC
	e.Halted = false
	e.Stats = Stats{}
	e.Violations = e.Violations[:0]
	e.Checksum = 0
	e.Outputs = e.Outputs[:0]
	e.Tracker.Reset()
}

// Image returns the program image being executed.
func (e *Emulator) Image() *prog.Image { return e.img }

func (e *Emulator) read(r isa.Reg, pc uint64) uint64 {
	if e.cfg.CheckDeadReads && !e.Tracker.Live(r) {
		if len(e.Violations) < 64 {
			e.Violations = append(e.Violations, Violation{PC: pc, Reg: r})
		}
	}
	return e.Regs[r]
}

func (e *Emulator) write(r isa.Reg, v uint64) {
	if r != isa.Zero {
		e.Regs[r] = v
		e.Tracker.OnWrite(r)
	}
}

// Step executes one instruction and returns its description. The record
// belongs to the emulator and is valid until the next call to Step, as
// bufio.Scanner.Bytes is until the next Scan: a caller that keeps a step
// copies what it needs. Stepping a halted emulator returns Halted without
// side effects.
//
// Step fills that one record field by field and returns it by pointer,
// and reads the instruction by pointer into the image, because copying
// was its main cost. When Step built a Step value (and the instruction
// inside it) on the stack and returned it, 1.35 s of its 2.29 s own CPU
// time in a profile of the sampled report sat on the return: the
// record's byte and word stores were read back in 16-byte blocks, which
// stalls store forwarding. Filling the record in place took
// BenchmarkStep from 25-30 to 13-15 ns. Do not bring back a by-value
// record.
func (e *Emulator) Step() *Step {
	st := &e.step
	if e.Halted {
		st.PC, st.Inst, st.NextPC = e.PC, &haltInst, 0
		st.IsCtl, st.Taken, st.IsMem, st.Addr = false, false, false, 0
		st.Eliminated, st.Killed = false, 0
		st.Halted, st.Faulted = true, false
		return st
	}
	pc := e.PC
	in, meta, inText := e.img.AtMeta(pc)
	st.PC, st.Inst, st.NextPC = pc, in, pc+isa.InstBytes
	st.IsCtl, st.Taken, st.IsMem, st.Addr = false, false, false, 0
	st.Eliminated, st.Halted, st.Faulted = false, false, false
	lvmBefore := e.Tracker.LVM()

	e.Stats.Total++

	switch in.Op {
	case isa.NOP:
		// nothing
	case isa.HALT:
		e.Halted = true
		st.Halted = true
		st.NextPC = pc
		e.Stats.Total-- // halt is the simulation boundary, not work
		if !inText {
			// The HALT is synthetic: control flow left the text segment
			// (wild jump or misaligned target). Halt exactly as before,
			// but report the fault instead of a clean exit.
			e.Stats.Faults++
			st.Faulted = true
		}

	// ALU: each arm computes its result in place. Sources are read in
	// order, Rs1 first, so dead-read violations keep their order; MUL, DIV
	// and REM count as ALU operations too.
	case isa.ADD:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a+b)
	case isa.SUB:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a-b)
	case isa.MUL:
		e.Stats.MulDiv++
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a*b)
	case isa.DIV:
		e.Stats.MulDiv++
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, divS(a, b))
	case isa.REM:
		e.Stats.MulDiv++
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, remS(a, b))
	case isa.AND:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a&b)
	case isa.OR:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a|b)
	case isa.XOR:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a^b)
	case isa.NOR:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, ^(a | b))
	case isa.SLL:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a<<(b&63))
	case isa.SRL:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, a>>(b&63))
	case isa.SRA:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, uint64(int64(a)>>(b&63)))
	case isa.SLT:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, boolU(int64(a) < int64(b)))
	case isa.SLTU:
		e.Stats.ALUOps++
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.write(in.Rd, boolU(a < b))

	case isa.ADDI:
		e.Stats.ALUOps++
		e.write(in.Rd, e.read(in.Rs1, pc)+uint64(in.Imm))
	case isa.ANDI:
		e.Stats.ALUOps++
		e.write(in.Rd, e.read(in.Rs1, pc)&uint64(uint16(in.Imm)))
	case isa.ORI:
		e.Stats.ALUOps++
		e.write(in.Rd, e.read(in.Rs1, pc)|uint64(uint16(in.Imm)))
	case isa.XORI:
		e.Stats.ALUOps++
		e.write(in.Rd, e.read(in.Rs1, pc)^uint64(uint16(in.Imm)))
	case isa.SLTI:
		e.Stats.ALUOps++
		e.write(in.Rd, boolU(int64(e.read(in.Rs1, pc)) < in.Imm))
	case isa.SLLI:
		e.Stats.ALUOps++
		e.write(in.Rd, e.read(in.Rs1, pc)<<(uint64(in.Imm)&63))
	case isa.SRLI:
		e.Stats.ALUOps++
		e.write(in.Rd, e.read(in.Rs1, pc)>>(uint64(in.Imm)&63))
	case isa.SRAI:
		e.Stats.ALUOps++
		e.write(in.Rd, uint64(int64(e.read(in.Rs1, pc))>>(uint64(in.Imm)&63)))
	case isa.LUI:
		e.Stats.ALUOps++
		e.write(in.Rd, uint64(uint16(in.Imm))<<16)

	case isa.LD, isa.LB:
		e.Stats.Loads++
		e.Stats.MemRefs++
		addr := e.read(in.Rs1, pc) + uint64(in.Imm)
		st.IsMem, st.Addr = true, addr
		if in.Op == isa.LD {
			e.write(in.Rd, e.Mem.Read64(addr))
		} else {
			e.write(in.Rd, uint64(e.Mem.Load8(addr)))
		}
	case isa.ST, isa.SB:
		e.Stats.Stores++
		e.Stats.MemRefs++
		addr := e.read(in.Rs1, pc) + uint64(in.Imm)
		st.IsMem, st.Addr = true, addr
		if in.Op == isa.ST {
			e.Mem.Write64(addr, e.read(in.Rs2, pc))
		} else {
			e.Mem.Store8(addr, byte(e.read(in.Rs2, pc)))
		}

	case isa.LVST:
		// Save of a callee-saved register: eliminated when the data
		// register is dead in the LVM (paper §5.2, LVM scheme).
		if e.cfg.Scheme != ElimOff && e.Tracker.SaveEliminable(in.Rs2) {
			e.Stats.SavesElim++
			st.Eliminated = true
			break
		}
		e.Stats.SavesExec++
		e.Stats.Stores++
		e.Stats.MemRefs++
		addr := e.read(in.Rs1, pc) + uint64(in.Imm)
		st.IsMem, st.Addr = true, addr
		// The data register of a save is exempt from dead-read checking:
		// saving a dead value is the conservative no-DVI behaviour.
		e.Mem.Write64(addr, e.Regs[in.Rs2])

	case isa.LVLD:
		// Restore: eliminated when the matching save was (LVM-Stack
		// scheme). The register keeps whatever dead value it holds.
		if e.cfg.Scheme == ElimLVMStack && e.Tracker.RestoreEliminable(in.Rd) {
			e.Stats.RestoresElim++
			st.Eliminated = true
			break
		}
		e.Stats.RestoresExec++
		e.Stats.Loads++
		e.Stats.MemRefs++
		addr := e.read(in.Rs1, pc) + uint64(in.Imm)
		st.IsMem, st.Addr = true, addr
		// A restore rewrites the register but restores *entry* liveness,
		// not unconditional liveness; the tracker handles that at return.
		// Between restore and return the value is architecturally the
		// caller's, so mark it live (it was stored from a live value or
		// the restore would have been eliminated under LVM-Stack; under
		// the LVM scheme a garbage reload of a dead value stays dead only
		// via the return's stack pop).
		e.write(in.Rd, e.Mem.Read64(addr))

	case isa.LVMS:
		e.Stats.LvmOps++
		e.Stats.Stores++
		e.Stats.MemRefs++
		addr := e.read(in.Rs1, pc) + uint64(in.Imm)
		st.IsMem, st.Addr = true, addr
		e.Mem.Write32(addr, uint32(e.Tracker.LVM()))
	case isa.LVML:
		e.Stats.LvmOps++
		e.Stats.Loads++
		e.Stats.MemRefs++
		addr := e.read(in.Rs1, pc) + uint64(in.Imm)
		st.IsMem, st.Addr = true, addr
		e.Tracker.SetLVM(isa.RegMask(e.Mem.Read32(addr)))

	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		e.Stats.CondBr++
		st.IsCtl = true
		a, b := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		var take bool
		switch in.Op {
		case isa.BEQ:
			take = a == b
		case isa.BNE:
			take = a != b
		case isa.BLT:
			take = int64(a) < int64(b)
		case isa.BGE:
			take = int64(a) >= int64(b)
		case isa.BLTU:
			take = a < b
		case isa.BGEU:
			take = a >= b
		}
		if take {
			e.Stats.TakenBr++
			st.NextPC = meta.Target
		}
		st.Taken = take

	case isa.J:
		e.Stats.Jumps++
		st.IsCtl, st.Taken = true, true
		st.NextPC = meta.Target
	case isa.JAL:
		e.Stats.Calls++
		st.IsCtl, st.Taken = true, true
		e.write(isa.RA, pc+isa.InstBytes)
		st.NextPC = meta.Target
		e.Tracker.OnCall()
	case isa.JALR:
		e.Stats.Calls++
		st.IsCtl, st.Taken = true, true
		target := e.read(in.Rs1, pc)
		e.write(in.Rd, pc+isa.InstBytes)
		st.NextPC = target
		e.Tracker.OnCall()
	case isa.JR:
		st.IsCtl, st.Taken = true, true
		st.NextPC = e.read(in.Rs1, pc)
		if in.IsReturn {
			e.Stats.Returns++
			e.Tracker.OnReturn()
		} else {
			e.Stats.Jumps++
		}

	case isa.KILL:
		e.Stats.Kills++
		e.Tracker.OnKill(in.Mask)

	case isa.SYS:
		ch, v := e.read(in.Rs1, pc), e.read(in.Rs2, pc)
		e.Checksum = e.Checksum*1099511628211 + v + ch // FNV-ish fold
		maxOut := e.cfg.MaxOutputs
		if maxOut == 0 {
			maxOut = 1024
		}
		if len(e.Outputs) < maxOut {
			e.Outputs = append(e.Outputs, v)
		}

	default:
		panic(fmt.Sprintf("emu: unimplemented opcode %v at %#x", in.Op, pc))
	}

	if !st.Halted {
		e.PC = st.NextPC
	}
	st.Killed = lvmBefore &^ e.Tracker.LVM()
	return st
}

func divS(a, b uint64) uint64 {
	sa, sb := int64(a), int64(b)
	switch {
	case sb == 0:
		return 0
	case sa == -1<<63 && sb == -1:
		return a // wraps
	default:
		return uint64(sa / sb)
	}
}

func remS(a, b uint64) uint64 {
	sa, sb := int64(a), int64(b)
	switch {
	case sb == 0:
		return a
	case sa == -1<<63 && sb == -1:
		return 0
	default:
		return uint64(sa % sb)
	}
}

func boolU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ErrBudget is returned by Run when the instruction budget expires before
// the program halts.
var ErrBudget = fmt.Errorf("emu: instruction budget exhausted")

// Run executes until HALT or until maxInsts instructions have executed
// (0 = unlimited). It returns ErrBudget if the budget expired.
//
// A HALT (clean exit or the synthetic fault for control flow that left
// the text segment) sitting exactly on the budget boundary is still
// executed: like Step, Run treats the halt as the simulation boundary
// rather than work, so a run whose budget equals the program's step count
// classifies its exit — in particular, the Faults count lands in this
// run, not in a later resumption of the same emulator. Interval-based
// accounting (internal/sample) depends on faults being attributed to the
// interval containing the faulting fetch.
func (e *Emulator) Run(maxInsts uint64) error {
	for n := uint64(0); !e.Halted; n++ {
		if maxInsts != 0 && n >= maxInsts {
			if in, _, _ := e.img.AtMeta(e.PC); in.Op == isa.HALT {
				e.Step() // boundary classification, not work
				return nil
			}
			return ErrBudget
		}
		e.Step()
	}
	return nil
}
