// Package prog represents programs symbolically — procedures containing
// instructions whose control-flow targets are labels — and links them into
// executable images. Keeping targets symbolic until link time is what lets
// the binary rewriting DVI inserter (internal/rewrite) add kill
// instructions without manual address fixups, exactly as the paper's
// "simple binary rewriting tool" would.
package prog

import (
	"fmt"
	"sort"

	"dvi/internal/isa"
	"dvi/internal/mem"
)

// Default memory layout.
const (
	DefaultTextBase = 0x0000_1000
	DefaultDataBase = 0x1000_0000
	DefaultStackTop = 0x7FFF_F000
)

// TargetKind says how an instruction's symbolic target is resolved.
type TargetKind uint8

const (
	// TargetNone: the instruction has no symbolic target; Imm is final.
	TargetNone TargetKind = iota
	// TargetBranch: Target is a label in the same procedure; the linker
	// writes the signed word offset into Imm.
	TargetBranch
	// TargetJump: Target is a procedure name or local label; the linker
	// writes the absolute address into Imm (J/JAL).
	TargetJump
	// TargetDataHi: Target names a data symbol; Imm receives the high 16
	// bits of its address (for LUI).
	TargetDataHi
	// TargetDataLo: Target names a data symbol; Imm receives the low 16
	// bits of its address (for ORI).
	TargetDataLo
)

// Inst is a symbolic instruction: a machine instruction plus an optional
// unresolved target.
type Inst struct {
	isa.Inst
	Kind   TargetKind
	Target string
}

// Proc is a procedure: a named sequence of instructions with local labels.
type Proc struct {
	Name   string
	Insts  []Inst
	labels map[string]int // label -> instruction index
}

// LabelAt returns the instruction index of a local label.
func (p *Proc) LabelAt(name string) (int, bool) {
	i, ok := p.labels[name]
	return i, ok
}

// InsertBefore inserts in before instruction index idx, shifting labels so
// that a label previously naming the instruction at idx still names that
// same instruction (now at idx+1). Symbolic targets are unaffected.
func (p *Proc) InsertBefore(idx int, in Inst) {
	if idx < 0 || idx > len(p.Insts) {
		panic(fmt.Sprintf("prog: insert index %d out of range [0,%d]", idx, len(p.Insts)))
	}
	p.Insts = append(p.Insts, Inst{})
	copy(p.Insts[idx+1:], p.Insts[idx:])
	p.Insts[idx] = in
	for name, li := range p.labels {
		if li >= idx {
			p.labels[name] = li + 1
		}
	}
}

// DataSym is an initialized or zero-filled data symbol.
type DataSym struct {
	Name  string
	Size  int    // bytes, rounded up to 8 at layout
	Init  []byte // nil or shorter than Size means zero fill
	Align int    // bytes; 0 means 8
}

// Program is a set of procedures plus data, before linking.
type Program struct {
	Procs []*Proc
	Data  []DataSym
	Entry string // procedure where execution starts (default "main")

	byName map[string]*Proc
}

// New returns an empty program with entry point "main".
func New() *Program {
	return &Program{Entry: "main", byName: make(map[string]*Proc)}
}

// AddProc appends a new empty procedure and returns it. Adding a duplicate
// name panics: procedure names are the global namespace.
func (pr *Program) AddProc(name string) *Proc {
	if _, dup := pr.byName[name]; dup {
		panic("prog: duplicate procedure " + name)
	}
	p := &Proc{Name: name, labels: make(map[string]int)}
	pr.Procs = append(pr.Procs, p)
	pr.byName[name] = p
	return p
}

// Proc returns the named procedure, or nil.
func (pr *Program) Proc(name string) *Proc { return pr.byName[name] }

// AddData registers a data symbol.
func (pr *Program) AddData(d DataSym) {
	pr.Data = append(pr.Data, d)
}

// ProcRange locates a linked procedure by address range.
type ProcRange struct {
	Name  string
	Start uint64 // first instruction address
	End   uint64 // one past the last instruction
}

// Meta is the predecoded metadata of one static instruction: everything
// the pipeline would otherwise rederive from the decoded form on every
// dynamic fetch of the same instruction (operand roles, op class, fixed
// latency, static control target). It is built once at Link, so the
// simulation inner loops read flat tables instead of calling the
// allocating isa.Inst.SrcRegs or recomputing classes and targets.
type Meta struct {
	Srcs    [2]isa.Reg // architectural sources, Srcs[:NSrc]
	NSrc    uint8
	Dest    isa.Reg // architectural destination when HasDest
	HasDest bool
	Class   isa.Class
	Lat     uint8  // fixed execution latency; 0 = config or cache dependent
	Target  uint64 // static taken target (branches, J, JAL); 0 otherwise
}

// haltInst and haltMeta describe the synthetic HALT returned for fetches
// outside the text segment.
var (
	haltInst = isa.Inst{Op: isa.HALT}
	haltMeta = Meta{Class: isa.ClassHalt}
)

// metaFor predecodes one instruction located at pc.
func metaFor(pc uint64, in isa.Inst) Meta {
	var m Meta
	var buf [2]isa.Reg
	srcs := in.AppendSrcRegs(buf[:0])
	m.NSrc = uint8(len(srcs))
	copy(m.Srcs[:], srcs)
	if rd, ok := in.WritesReg(); ok {
		m.Dest, m.HasDest = rd, true
	}
	m.Class = isa.OpClass(in.Op)
	switch m.Class {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassJump:
		m.Lat = 1
		// Other classes keep Lat 0: their latency is configuration or
		// cache dependent (mul/div, loads), or they never issue (stores
		// complete at issue, NOP/KILL/HALT never reach a functional unit).
	}
	if t, ok := isa.BranchTarget(pc, in); ok {
		m.Target = t
	}
	return m
}

// Image is a linked, executable program.
type Image struct {
	TextBase uint64
	Code     []uint32   // encoded text
	Insts    []isa.Inst // decoded text, index = (pc-TextBase)/4
	Metas    []Meta     // predecoded metadata, same index as Insts
	EntryPC  uint64
	HaltPC   uint64 // address of the final HALT trampoline

	DataBase uint64
	DataEnd  uint64
	StackTop uint64

	ProcAddrs map[string]uint64
	ranges    []ProcRange
	dataAddrs map[string]uint64
	labels    map[uint64]string // address -> label (procedures and locals)
}

// Link lays out procedures at TextBase in declaration order, resolves all
// symbolic targets, and returns the image. A small trampoline is prepended:
// it calls the entry procedure and halts when it returns.
func (pr *Program) Link() (*Image, error) {
	img := &Image{
		TextBase:  DefaultTextBase,
		DataBase:  DefaultDataBase,
		StackTop:  DefaultStackTop,
		ProcAddrs: make(map[string]uint64),
		dataAddrs: make(map[string]uint64),
		labels:    make(map[uint64]string),
	}

	entry := pr.Entry
	if entry == "" {
		entry = "main"
	}
	if pr.byName[entry] == nil {
		return nil, fmt.Errorf("prog: entry procedure %q not defined", entry)
	}

	// Data layout.
	addr := img.DataBase
	for _, d := range pr.Data {
		align := uint64(d.Align)
		if align == 0 {
			align = 8
		}
		addr = (addr + align - 1) &^ (align - 1)
		if _, dup := img.dataAddrs[d.Name]; dup {
			return nil, fmt.Errorf("prog: duplicate data symbol %q", d.Name)
		}
		img.dataAddrs[d.Name] = addr
		size := uint64(d.Size)
		if size < uint64(len(d.Init)) {
			size = uint64(len(d.Init))
		}
		if size == 0 {
			size = 8
		}
		addr += (size + 7) &^ 7
	}
	img.DataEnd = addr

	// Trampoline: jal entry; halt.
	type placed struct {
		proc *Proc
		addr uint64
	}
	var order []placed
	pc := img.TextBase
	img.EntryPC = pc
	tramp := []Inst{
		{Inst: isa.Inst{Op: isa.JAL, Rd: isa.RA}, Kind: TargetJump, Target: entry},
		{Inst: isa.Inst{Op: isa.HALT}},
	}
	img.HaltPC = pc + isa.InstBytes
	pc += uint64(len(tramp)) * isa.InstBytes

	for _, p := range pr.Procs {
		img.ProcAddrs[p.Name] = pc
		img.labels[pc] = p.Name
		order = append(order, placed{p, pc})
		img.ranges = append(img.ranges, ProcRange{Name: p.Name, Start: pc, End: pc + uint64(len(p.Insts))*isa.InstBytes})
		pc += uint64(len(p.Insts)) * isa.InstBytes
	}

	resolve := func(in Inst, pcHere uint64, p *Proc, procBase uint64) (isa.Inst, error) {
		m := in.Inst
		switch in.Kind {
		case TargetNone:
			return m, nil
		case TargetBranch:
			li, ok := p.LabelAt(in.Target)
			if !ok {
				return m, fmt.Errorf("prog: %s: unknown label %q", p.Name, in.Target)
			}
			targetPC := procBase + uint64(li)*isa.InstBytes
			delta := (int64(targetPC) - int64(pcHere+isa.InstBytes)) / isa.InstBytes
			if delta < -(1<<15) || delta >= 1<<15 {
				return m, fmt.Errorf("prog: %s: branch to %q out of range (%d words)", p.Name, in.Target, delta)
			}
			m.Imm = delta
			return m, nil
		case TargetJump:
			var targetPC uint64
			if a, ok := img.ProcAddrs[in.Target]; ok {
				targetPC = a
			} else if li, ok := p.LabelAt(in.Target); ok {
				targetPC = procBase + uint64(li)*isa.InstBytes
			} else {
				return m, fmt.Errorf("prog: %s: unknown jump target %q", p.Name, in.Target)
			}
			if targetPC >= 1<<28 {
				return m, fmt.Errorf("prog: jump target %q at %#x exceeds 28-bit range", in.Target, targetPC)
			}
			m.Imm = int64(targetPC)
			return m, nil
		case TargetDataHi, TargetDataLo:
			a, ok := img.dataAddrs[in.Target]
			if !ok {
				// Procedure addresses resolve too (function pointers for
				// indirect calls).
				a, ok = img.ProcAddrs[in.Target]
			}
			if !ok {
				return m, fmt.Errorf("prog: %s: unknown data symbol %q", p.Name, in.Target)
			}
			if a >= 1<<32 {
				return m, fmt.Errorf("prog: data symbol %q beyond 32-bit range", in.Target)
			}
			if in.Kind == TargetDataHi {
				m.Imm = int64(a >> 16)
			} else {
				m.Imm = int64(a & 0xFFFF)
			}
			return m, nil
		}
		return m, fmt.Errorf("prog: unknown target kind %d", in.Kind)
	}

	// Emit.
	for _, ti := range tramp {
		m, err := resolve(ti, img.TextBase+uint64(len(img.Insts))*isa.InstBytes, &Proc{labels: map[string]int{}}, 0)
		if err != nil {
			return nil, err
		}
		img.Insts = append(img.Insts, m)
		img.Code = append(img.Code, isa.Encode(m))
	}
	for _, pl := range order {
		for i, in := range pl.proc.Insts {
			here := pl.addr + uint64(i)*isa.InstBytes
			m, err := resolve(in, here, pl.proc, pl.addr)
			if err != nil {
				return nil, err
			}
			img.Insts = append(img.Insts, m)
			img.Code = append(img.Code, isa.Encode(m))
		}
		for name, li := range pl.proc.labels {
			img.labels[pl.addr+uint64(li)*isa.InstBytes] = pl.proc.Name + "." + name
		}
	}
	img.Metas = make([]Meta, len(img.Insts))
	for i, in := range img.Insts {
		img.Metas[i] = metaFor(img.TextBase+uint64(i)*isa.InstBytes, in)
	}
	return img, nil
}

// AtMeta returns the decoded instruction at pc together with its
// predecoded metadata, both by pointer into the image's tables: callers
// share them read-only, so a fetch copies no instruction. ok is false for
// a fetch outside the text segment (misaligned or out of range): the
// instruction is then a shared synthetic HALT — runaway control flow
// terminates deterministically — and callers that care distinguish a
// fault from the program's real HALT by ok.
func (img *Image) AtMeta(pc uint64) (in *isa.Inst, meta *Meta, ok bool) {
	if pc < img.TextBase || pc&3 != 0 {
		return &haltInst, &haltMeta, false
	}
	idx := (pc - img.TextBase) / isa.InstBytes
	if idx >= uint64(len(img.Metas)) {
		return &haltInst, &haltMeta, false
	}
	return &img.Insts[idx], &img.Metas[idx], true
}

// InText reports whether pc addresses a linked instruction.
func (img *Image) InText(pc uint64) bool {
	return pc >= img.TextBase && pc&3 == 0 &&
		(pc-img.TextBase)/isa.InstBytes < uint64(len(img.Insts))
}

// TextWords returns the static code size in instruction words (paper
// Figure 13 reports static code size overhead).
func (img *Image) TextWords() int { return len(img.Code) }

// DataAddr returns the linked address of a data symbol.
func (img *Image) DataAddr(name string) (uint64, bool) {
	a, ok := img.dataAddrs[name]
	return a, ok
}

// ProcOf returns the procedure containing pc.
func (img *Image) ProcOf(pc uint64) (string, bool) {
	i := sort.Search(len(img.ranges), func(i int) bool { return img.ranges[i].End > pc })
	if i < len(img.ranges) && pc >= img.ranges[i].Start {
		return img.ranges[i].Name, true
	}
	return "", false
}

// LoadInto materializes the image into memory: text at TextBase (encoded
// words) and initialized data at their symbols.
func (img *Image) LoadInto(m *mem.Memory, data []DataSym) {
	for i, w := range img.Code {
		m.Write32(img.TextBase+uint64(i)*isa.InstBytes, w)
	}
	for _, d := range data {
		if a, ok := img.dataAddrs[d.Name]; ok && len(d.Init) > 0 {
			m.StoreBytes(a, d.Init)
		}
	}
}

// NewMemory allocates a memory pre-loaded with this image and the given
// program's initialized data.
func NewMemory(pr *Program, img *Image) *mem.Memory {
	m := mem.New()
	img.LoadInto(m, pr.Data)
	return m
}
