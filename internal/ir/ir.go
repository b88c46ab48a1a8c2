// Package ir is the compiler's intermediate representation: functions of
// basic blocks over unlimited virtual registers, in three-address,
// non-SSA form. The seven SPEC95int-like workloads are authored in this IR
// and lowered by internal/compiler, which plays the role of the paper's
// modified GCC 2.6.3: it allocates registers under the caller/callee-saved
// convention, emits live-store/live-load saves and restores, and (via
// internal/rewrite) inserts E-DVI kill instructions.
package ir

import (
	"fmt"

	"dvi/internal/prog"
)

// Value names a virtual register. Negative means "no value".
type Value int

// NoValue is the absent-operand sentinel.
const NoValue Value = -1

// Op enumerates IR operations.
type Op uint8

const (
	// Arithmetic (Dst <- A op B; B may be replaced by Imm when UseImm).
	Add Op = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr // logical
	Sra // arithmetic
	SltS
	SltU

	Const  // Dst <- Imm
	AddrOf // Dst <- address of data symbol or function named Sym

	Load   // Dst <- mem64[A + Imm]
	Store  // mem64[A + Imm] <- B
	LoadB  // Dst <- zext mem8[A + Imm]
	StoreB // mem8[A + Imm] <- B

	Move // Dst <- A (redefinition of an existing variable)

	Call    // Dst (optional) <- Sym(Args...)
	CallPtr // Dst (optional) <- (*A)(Args...)

	Out // emit checksum: channel Imm, value A

	// Terminators.
	Br  // if A cmp B goto Then else goto Else
	Jmp // goto Then
	Ret // return A (optional)
)

// Cmp is a branch comparison kind.
type Cmp uint8

// Branch comparison kinds.
const (
	EQ Cmp = iota
	NE
	LT
	GE
	LTU
	GEU
)

// Instr is one IR instruction.
type Instr struct {
	Op     Op
	Dst    Value
	A, B   Value
	UseImm bool  // B is Imm for arithmetic ops
	Imm    int64 // constant / address offset / Out channel
	Sym    string
	Args   []Value
	Cmp    Cmp
	Then   string
	Else   string
}

// IsTerm reports whether the instruction ends a block.
func (i Instr) IsTerm() bool { return i.Op == Br || i.Op == Jmp || i.Op == Ret }

// Block is a basic block; the last instruction must be a terminator.
type Block struct {
	Name   string
	Instrs []Instr

	fn *Func
}

// Func is an IR function. Parameters are the first NParams virtual
// registers.
type Func struct {
	Name    string
	NParams int
	Blocks  []*Block
	nVals   int

	byName map[string]*Block
}

// Module is a set of functions plus data symbols.
type Module struct {
	Funcs []*Func
	Data  []prog.DataSym

	byName map[string]*Func
}

// NewModule returns an empty module.
func NewModule() *Module { return &Module{byName: make(map[string]*Func)} }

// Func creates a function with n parameters (max 4, the ABI's argument
// registers).
func (m *Module) Func(name string, nParams int) *Func {
	if nParams > 4 {
		panic("ir: more than 4 parameters not supported by the ABI")
	}
	if _, dup := m.byName[name]; dup {
		panic("ir: duplicate function " + name)
	}
	f := &Func{Name: name, NParams: nParams, nVals: nParams, byName: make(map[string]*Block)}
	m.Funcs = append(m.Funcs, f)
	m.byName[name] = f
	return f
}

// AddData registers a data symbol.
func (m *Module) AddData(d prog.DataSym) { m.Data = append(m.Data, d) }

// Param returns the i-th parameter value.
func (f *Func) Param(i int) Value {
	if i < 0 || i >= f.NParams {
		panic(fmt.Sprintf("ir: %s has no parameter %d", f.Name, i))
	}
	return Value(i)
}

// NumValues returns the virtual register count.
func (f *Func) NumValues() int { return f.nVals }

// Block creates (or returns, if only forward-declared) the named block.
func (f *Func) Block(name string) *Block {
	if b, ok := f.byName[name]; ok {
		return b
	}
	b := &Block{Name: name, fn: f}
	f.Blocks = append(f.Blocks, b)
	f.byName[name] = b
	return b
}

// Entry returns the first block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: function has no blocks")
	}
	return f.Blocks[0]
}

func (f *Func) newVal() Value {
	v := Value(f.nVals)
	f.nVals++
	return v
}

func (b *Block) push(i Instr) Value {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerm() {
		panic(fmt.Sprintf("ir: %s.%s: instruction after terminator", b.fn.Name, b.Name))
	}
	b.Instrs = append(b.Instrs, i)
	return i.Dst
}

// --- builder methods ---

func (b *Block) bin(op Op, a, v Value) Value {
	dst := b.fn.newVal()
	return b.push(Instr{Op: op, Dst: dst, A: a, B: v})
}

func (b *Block) binImm(op Op, a Value, imm int64) Value {
	dst := b.fn.newVal()
	return b.push(Instr{Op: op, Dst: dst, A: a, B: NoValue, UseImm: true, Imm: imm})
}

// Arithmetic over two values.
func (b *Block) Add(a, v Value) Value  { return b.bin(Add, a, v) }
func (b *Block) Sub(a, v Value) Value  { return b.bin(Sub, a, v) }
func (b *Block) Mul(a, v Value) Value  { return b.bin(Mul, a, v) }
func (b *Block) Div(a, v Value) Value  { return b.bin(Div, a, v) }
func (b *Block) Rem(a, v Value) Value  { return b.bin(Rem, a, v) }
func (b *Block) And(a, v Value) Value  { return b.bin(And, a, v) }
func (b *Block) Or(a, v Value) Value   { return b.bin(Or, a, v) }
func (b *Block) Xor(a, v Value) Value  { return b.bin(Xor, a, v) }
func (b *Block) Shl(a, v Value) Value  { return b.bin(Shl, a, v) }
func (b *Block) Shr(a, v Value) Value  { return b.bin(Shr, a, v) }
func (b *Block) SltS(a, v Value) Value { return b.bin(SltS, a, v) }

// Arithmetic with immediate second operand.
func (b *Block) AddI(a Value, imm int64) Value { return b.binImm(Add, a, imm) }
func (b *Block) SubI(a Value, imm int64) Value { return b.binImm(Sub, a, imm) }
func (b *Block) MulI(a Value, imm int64) Value { return b.binImm(Mul, a, imm) }
func (b *Block) DivI(a Value, imm int64) Value { return b.binImm(Div, a, imm) }
func (b *Block) RemI(a Value, imm int64) Value { return b.binImm(Rem, a, imm) }
func (b *Block) AndI(a Value, imm int64) Value { return b.binImm(And, a, imm) }
func (b *Block) OrI(a Value, imm int64) Value  { return b.binImm(Or, a, imm) }
func (b *Block) XorI(a Value, imm int64) Value { return b.binImm(Xor, a, imm) }
func (b *Block) ShlI(a Value, imm int64) Value { return b.binImm(Shl, a, imm) }
func (b *Block) ShrI(a Value, imm int64) Value { return b.binImm(Shr, a, imm) }
func (b *Block) SraI(a Value, imm int64) Value { return b.binImm(Sra, a, imm) }

// Const materializes a constant.
func (b *Block) Const(imm int64) Value {
	dst := b.fn.newVal()
	return b.push(Instr{Op: Const, Dst: dst, A: NoValue, B: NoValue, Imm: imm})
}

// Var allocates a mutable variable (a virtual register the program may
// redefine with Set/SetI — the loop-carried values of the workloads).
func (f *Func) Var() Value { return f.newVal() }

// Set redefines dst with the value of src.
func (b *Block) Set(dst, src Value) {
	b.push(Instr{Op: Move, Dst: dst, A: src, B: NoValue})
}

// SetI redefines dst with a constant.
func (b *Block) SetI(dst Value, imm int64) {
	b.push(Instr{Op: Const, Dst: dst, A: NoValue, B: NoValue, Imm: imm})
}

// AddrOf materializes the address of a data symbol or function.
func (b *Block) AddrOf(sym string) Value {
	dst := b.fn.newVal()
	return b.push(Instr{Op: AddrOf, Dst: dst, A: NoValue, B: NoValue, Sym: sym})
}

// Load reads mem64[base+off].
func (b *Block) Load(base Value, off int64) Value {
	dst := b.fn.newVal()
	return b.push(Instr{Op: Load, Dst: dst, A: base, B: NoValue, Imm: off})
}

// Store writes mem64[base+off] = v.
func (b *Block) Store(base Value, off int64, v Value) {
	b.push(Instr{Op: Store, Dst: NoValue, A: base, B: v, Imm: off})
}

// LoadB reads a byte zero-extended.
func (b *Block) LoadB(base Value, off int64) Value {
	dst := b.fn.newVal()
	return b.push(Instr{Op: LoadB, Dst: dst, A: base, B: NoValue, Imm: off})
}

// StoreB writes the low byte of v.
func (b *Block) StoreB(base Value, off int64, v Value) {
	b.push(Instr{Op: StoreB, Dst: NoValue, A: base, B: v, Imm: off})
}

// Call invokes a named function and returns its result value.
func (b *Block) Call(callee string, args ...Value) Value {
	if len(args) > 4 {
		panic("ir: more than 4 call arguments")
	}
	dst := b.fn.newVal()
	return b.push(Instr{Op: Call, Dst: dst, A: NoValue, B: NoValue, Sym: callee, Args: args})
}

// CallVoid invokes a function whose result is unused.
func (b *Block) CallVoid(callee string, args ...Value) {
	if len(args) > 4 {
		panic("ir: more than 4 call arguments")
	}
	b.push(Instr{Op: Call, Dst: NoValue, A: NoValue, B: NoValue, Sym: callee, Args: args})
}

// CallPtr invokes through a function pointer value.
func (b *Block) CallPtr(fn Value, args ...Value) Value {
	if len(args) > 4 {
		panic("ir: more than 4 call arguments")
	}
	dst := b.fn.newVal()
	return b.push(Instr{Op: CallPtr, Dst: dst, A: fn, B: NoValue, Args: args})
}

// Out emits v on checksum channel ch.
func (b *Block) Out(ch int64, v Value) {
	b.push(Instr{Op: Out, Dst: NoValue, A: v, B: NoValue, Imm: ch})
}

// Br ends the block with a conditional branch.
func (b *Block) Br(cmp Cmp, x, y Value, then, els string) {
	b.push(Instr{Op: Br, Dst: NoValue, A: x, B: y, Cmp: cmp, Then: then, Else: els})
}

// BrZ branches to then when v == 0.
func (b *Block) BrZ(v Value, then, els string) {
	zero := b.Const(0)
	b.Br(EQ, v, zero, then, els)
}

// Jmp ends the block with an unconditional jump.
func (b *Block) Jmp(target string) {
	b.push(Instr{Op: Jmp, Dst: NoValue, A: NoValue, B: NoValue, Then: target})
}

// Ret ends the block returning v (NoValue for void).
func (b *Block) Ret(v Value) {
	b.push(Instr{Op: Ret, Dst: NoValue, A: v, B: NoValue})
}

// Validate checks structural invariants: every block terminated, every
// branch target defined, operands in range.
func (m *Module) Validate() error {
	for _, f := range m.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: %s: no blocks", f.Name)
		}
		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 || !b.Instrs[len(b.Instrs)-1].IsTerm() {
				return fmt.Errorf("ir: %s.%s: not terminated", f.Name, b.Name)
			}
			for k, in := range b.Instrs {
				if in.IsTerm() && k != len(b.Instrs)-1 {
					return fmt.Errorf("ir: %s.%s: terminator mid-block", f.Name, b.Name)
				}
				for _, tgt := range []string{in.Then, in.Else} {
					if tgt == "" {
						continue
					}
					if _, ok := f.byName[tgt]; !ok {
						return fmt.Errorf("ir: %s.%s: unknown target %q", f.Name, b.Name, tgt)
					}
				}
				if in.Op == Call {
					if m.byName[in.Sym] == nil {
						return fmt.Errorf("ir: %s.%s: call to unknown function %q", f.Name, b.Name, in.Sym)
					}
				}
				for _, v := range []Value{in.Dst, in.A, in.B} {
					if v != NoValue && (v < 0 || int(v) >= f.nVals) {
						return fmt.Errorf("ir: %s.%s: value v%d out of range", f.Name, b.Name, v)
					}
				}
			}
		}
	}
	return nil
}
