// Package core implements the paper's primary contribution: Dead Value
// Information tracking hardware. It provides the Live Value Mask (LVM) —
// one live bit per architectural register attached to the rename table
// (paper §4.1) — the 16-entry circular LVM-Stack used to eliminate restores
// (paper §5.2), and the decode-time update rules for explicit DVI (kill
// instructions), implicit DVI (calls and returns under an ABI mask), and
// ordinary destination writes.
//
// The tracker is used by both the functional emulator (non-speculatively)
// and the out-of-order simulator (speculatively, with Snapshot/Restore for
// branch misprediction recovery, paper §7 "Speculative updates of hardware
// structures").
package core

import (
	"fmt"

	"dvi/internal/isa"
)

// Level selects how much DVI the hardware exploits. The paper evaluates
// three configurations (Figure 5): no DVI, I-DVI only, and E-DVI + I-DVI.
type Level uint8

const (
	// None disables all DVI hardware: no LVM, nothing eliminated.
	None Level = iota
	// IDVI tracks implicit DVI from calls and returns only; kill
	// instructions are treated as no-ops.
	IDVI
	// Full tracks both explicit kill instructions and implicit DVI.
	Full
)

// String returns the label used in tables ("No DVI", "I-DVI", "E-DVI and I-DVI").
func (l Level) String() string {
	switch l {
	case None:
		return "No DVI"
	case IDVI:
		return "I-DVI"
	default:
		return "E-DVI and I-DVI"
	}
}

// DefaultStackDepth is the LVM-Stack size the paper simulates (§5.2: "Our
// simulations use a 16-entry LVM-Stack").
const DefaultStackDepth = 16

// MaxStackDepth bounds configurable depths (ablation sweeps).
const MaxStackDepth = 64

// Config parameterizes the DVI hardware.
type Config struct {
	// Level selects which DVI sources are honoured.
	Level Level
	// ABI supplies the I-DVI masks (paper §7: I-DVI is inferred only for
	// registers in an ABI-supplied mask). Ignored unless Level >= IDVI.
	ABI isa.ABI
	// StackDepth is the LVM-Stack entry count; 0 means DefaultStackDepth.
	StackDepth int
}

// DefaultConfig is the paper's standard configuration: full DVI with the
// default ABI and a 16-entry stack.
func DefaultConfig() Config {
	return Config{Level: Full, ABI: isa.DefaultABI(), StackDepth: DefaultStackDepth}
}

// allLive is the LVM reset value: every register holds a live value.
const allLive = isa.RegMask(0xFFFFFFFF)

// Tracker is the DVI hardware state: the LVM plus the LVM-Stack. The zero
// value is unusable; construct with New.
type Tracker struct {
	cfg   Config
	depth int // configured stack depth

	lvm isa.RegMask // bit set = value is live

	// Circular LVM-Stack. sp points at the next push slot; count is the
	// number of valid entries (saturates at depth: overflow overwrites the
	// oldest entry, underflow is detected by count==0).
	stack [MaxStackDepth]isa.RegMask
	sp    int
	count int
}

// New returns a tracker with all registers live and an empty stack.
func New(cfg Config) *Tracker {
	t := &Tracker{}
	t.Reconfigure(cfg)
	return t
}

// Reset marks every register live and empties the stack (the paper's §7
// strategy for exceptional control flow: "flush these structures and safely
// assume that all registers are live").
func (t *Tracker) Reset() {
	t.lvm = allLive
	t.sp = 0
	t.count = 0
}

// Reconfigure installs a new configuration and resets, without
// allocating: pooled emulators retarget their tracker between jobs with
// this instead of constructing a fresh one.
func (t *Tracker) Reconfigure(cfg Config) {
	d := cfg.StackDepth
	if d == 0 {
		d = DefaultStackDepth
	}
	if d < 1 || d > MaxStackDepth {
		panic(fmt.Sprintf("core: stack depth %d out of range [1,%d]", d, MaxStackDepth))
	}
	t.cfg = cfg
	t.depth = d
	t.Reset()
}

// FlushStack empties the LVM-Stack without touching the LVM — the §7
// treatment of context switches and other non-standard control flow: the
// stack's snapshots belong to another context, so restores conservatively
// execute until new calls repopulate it.
func (t *Tracker) FlushStack() {
	t.sp = 0
	t.count = 0
}

// Level returns the configured DVI level.
func (t *Tracker) Level() Level { return t.cfg.Level }

// LVM returns the current live value mask.
func (t *Tracker) LVM() isa.RegMask { return t.lvm }

// Live reports whether r currently holds a live value. With DVI disabled
// everything is live.
func (t *Tracker) Live(r isa.Reg) bool { return t.cfg.Level == None || t.lvm.Has(r) }

// LiveCount returns the number of live registers (context-switch metric,
// paper §6.2).
func (t *Tracker) LiveCount() int {
	if t.cfg.Level == None {
		return isa.NumRegs
	}
	return t.lvm.Count()
}

// StackDepth returns the configured LVM-Stack depth.
func (t *Tracker) StackDepth() int { return t.depth }

// OnWrite records that an instruction produced a new value in r: the
// register becomes live (LVM update at decode by destination renaming,
// paper §4.1).
func (t *Tracker) OnWrite(r isa.Reg) {
	if t.cfg.Level == None {
		return
	}
	t.lvm = t.lvm.Set(r)
}

// OnKill applies an E-DVI kill mask. Always-live registers are unaffected
// regardless of the mask (hardware ignores those bits). With Level < Full,
// kill instructions carry no information.
func (t *Tracker) OnKill(mask isa.RegMask) {
	if t.cfg.Level != Full {
		return
	}
	t.lvm &^= mask &^ isa.AlwaysLive
}

// OnCall records a procedure call: the current LVM is pushed onto the
// LVM-Stack (snapshot of entry liveness, §5.2), then the ABI's
// dead-at-call I-DVI mask is applied (§2).
func (t *Tracker) OnCall() {
	if t.cfg.Level == None {
		return
	}
	t.stack[t.sp] = t.lvm
	t.sp++
	if t.sp == t.depth {
		t.sp = 0
	}
	if t.count < t.depth {
		t.count++
	}
	t.lvm &^= t.cfg.ABI.DeadAtCall &^ isa.AlwaysLive
}

// OnReturn records a procedure return: the LVM-Stack is popped and its
// contents copied back into the LVM (§5.2 step 4); an empty stack yields
// the conservative all-live mask. The ABI's dead-at-return I-DVI mask is
// then applied.
//
// Only the callee-saved bits of the popped snapshot are copied back: for a
// preserved register, liveness at procedure exit equals liveness at entry
// (it was either untouched or save/restored), but for everything else —
// return-value registers in particular — the callee's own writes determine
// exit liveness, so those bits keep their current value.
func (t *Tracker) OnReturn() {
	if t.cfg.Level == None {
		return
	}
	entry := allLive // underflow: assume empty stack, all live
	if t.count > 0 {
		t.count--
		t.sp--
		if t.sp < 0 {
			t.sp = t.depth - 1
		}
		entry = t.stack[t.sp]
	}
	t.lvm = (entry & isa.CalleeSaved) | (t.lvm &^ isa.CalleeSaved)
	t.lvm &^= t.cfg.ABI.DeadAtReturn &^ isa.AlwaysLive
}

// SaveEliminable reports whether a live-store of r may be dropped: true
// when the LVM marks r dead (LVM scheme, §5.2).
func (t *Tracker) SaveEliminable(r isa.Reg) bool {
	return t.cfg.Level != None && !t.lvm.Has(r)
}

// RestoreEliminable reports whether a live-load of r may be dropped: true
// when the entry at the top of the LVM-Stack — the same information that
// eliminated the matching save — marks r dead (LVM-Stack scheme, §5.2).
// An empty stack is conservative: nothing is eliminable.
func (t *Tracker) RestoreEliminable(r isa.Reg) bool {
	if t.cfg.Level == None || t.count == 0 {
		return false
	}
	i := t.sp - 1
	if i < 0 {
		i = t.depth - 1
	}
	return !t.stack[i].Has(r)
}

// SetLVM installs an LVM loaded from memory (the lvm-load instruction,
// paper §6.1). Always-live registers remain live.
func (t *Tracker) SetLVM(v isa.RegMask) {
	if t.cfg.Level == None {
		return
	}
	t.lvm = v | isa.AlwaysLive
}

// Snapshot captures the complete tracker state for speculation recovery.
type Snapshot struct {
	lvm   isa.RegMask
	stack [MaxStackDepth]isa.RegMask
	sp    int
	count int
}

// Snapshot returns a copy of the current state.
func (t *Tracker) Snapshot() Snapshot {
	return Snapshot{lvm: t.lvm, stack: t.stack, sp: t.sp, count: t.count}
}

// Restore reinstates a previously captured state.
func (t *Tracker) Restore(s Snapshot) {
	t.lvm = s.lvm
	t.stack = s.stack
	t.sp = s.sp
	t.count = s.count
}
