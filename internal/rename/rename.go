// Package rename models MIPS R10000-style register renaming: an
// architectural-to-physical mapping table, a physical register free list,
// and per-physical-register ready bits. The paper's §4 optimization hooks
// in here: DVI lets the pipeline unmap a killed architectural register and
// free its physical register at the kill's commit instead of waiting for
// the next redefinition to commit.
package rename

import (
	"fmt"
	"math/bits"
)

// PhysReg names a physical register.
type PhysReg uint16

// None marks an unmapped architectural register (paper §4: "Between I3 and
// I4 the architectural register r1 is not mapped to any physical
// register").
const None PhysReg = ^PhysReg(0)

// MaxPhys bounds the physical register file size.
const MaxPhys = 512

// NumArch is the number of architectural registers being renamed.
const NumArch = 32

// Bits is a physical register bitset used for free list reconstruction.
type Bits [MaxPhys / 64]uint64

// Set adds p to the set.
func (b *Bits) Set(p PhysReg) { b[p>>6] |= 1 << (p & 63) }

// Has reports membership.
func (b *Bits) Has(p PhysReg) bool { return b[p>>6]&(1<<(p&63)) != 0 }

// Count returns the population count.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Table is the rename state. One table serves nCtx hardware contexts:
// each context owns a private architectural map (its NumArch-entry slice
// of amap) while the physical register file, free list, ready bits and
// wakeup lists are shared — exactly the SMT split, where renaming keeps
// contexts' in-flight values apart in one physical file.
type Table struct {
	nPhys int
	nCtx  int
	amap  []PhysReg // nCtx×NumArch, context c's map at [c*NumArch, (c+1)*NumArch)
	free  Bits
	nFree int
	ready []bool

	// watch holds, per physical register, the wakeup tokens registered by
	// an event-driven scheduler: opaque consumer identities to be handed
	// back (TakeWatchers) when the register's value is produced. The
	// slices are retained across Reset so a warm table's steady state
	// registers and drains watchers without allocating.
	watch [][]uint32
}

// NewTableCtx builds a table with nPhys physical registers shared by nCtx
// hardware contexts. Each context pins NumArch physical registers for its
// architectural state, and one more is needed to rename anything, so
// nPhys must be at least nCtx*NumArch+1 (the paper's "minimum of 32
// required to avoid deadlock" counts one context's architectural state).
func NewTableCtx(nPhys, nCtx int) *Table {
	if nCtx < 1 {
		panic(fmt.Sprintf("rename: nCtx %d < 1", nCtx))
	}
	if nPhys < nCtx*NumArch+1 || nPhys > MaxPhys {
		panic(fmt.Sprintf("rename: nPhys %d out of range [%d,%d] for %d contexts",
			nPhys, nCtx*NumArch+1, MaxPhys, nCtx))
	}
	t := &Table{
		nPhys: nPhys,
		nCtx:  nCtx,
		amap:  make([]PhysReg, nCtx*NumArch),
		ready: make([]bool, nPhys),
		watch: make([][]uint32, nPhys),
	}
	t.Reset()
	return t
}

// Reset installs the identity mapping (context c's arch i -> phys
// c*NumArch+i, all ready) and frees the remainder.
func (t *Table) Reset() {
	t.free = Bits{}
	t.nFree = 0
	for i := range t.amap {
		t.amap[i] = PhysReg(i)
		t.ready[i] = true
	}
	for p := len(t.amap); p < t.nPhys; p++ {
		t.free.Set(PhysReg(p))
		t.ready[p] = false
		t.nFree++
	}
	for i := range t.watch {
		t.watch[i] = t.watch[i][:0]
	}
}

// NPhys returns the file size.
func (t *Table) NPhys() int { return t.nPhys }

// NCtx returns the number of hardware contexts sharing the table.
func (t *Table) NCtx() int { return t.nCtx }

// FreeCount returns the number of free physical registers.
func (t *Table) FreeCount() int { return t.nFree }

// MapCtx returns the physical register currently holding context ctx's
// arch register r, or (None, false) if r is unmapped (killed).
func (t *Table) MapCtx(ctx int, r uint8) (PhysReg, bool) {
	p := t.amap[ctx*NumArch+int(r)]
	return p, p != None
}

// allocate pops the lowest-numbered free register.
func (t *Table) allocate() (PhysReg, bool) {
	if t.nFree == 0 {
		return None, false
	}
	for i, w := range t.free {
		if w != 0 {
			bit := uint(bits.TrailingZeros64(w))
			p := PhysReg(i*64) + PhysReg(bit)
			t.free[i] &^= 1 << bit
			t.nFree--
			t.ready[p] = false
			t.watch[p] = t.watch[p][:0] // a recycled register starts with no watchers
			return p, true
		}
	}
	return None, false
}

// RenameCtx allocates a new physical register for a write to context
// ctx's arch register r. It returns the new mapping and the previous one
// (prev == None when r was unmapped). ok is false when the free list is
// empty: the pipeline must stall (this is the Figure 5 bottleneck).
func (t *Table) RenameCtx(ctx int, r uint8) (newP, prevP PhysReg, ok bool) {
	newP, ok = t.allocate()
	if !ok {
		return None, None, false
	}
	i := ctx*NumArch + int(r)
	prevP = t.amap[i]
	t.amap[i] = newP
	return newP, prevP, true
}

// UnmapCtx removes context ctx's mapping for r (a DVI kill at decode)
// and returns the physical register it held, which the caller must keep
// pinned until the kill commits, then Free.
func (t *Table) UnmapCtx(ctx int, r uint8) (PhysReg, bool) {
	i := ctx*NumArch + int(r)
	p := t.amap[i]
	if p == None {
		return None, false
	}
	t.amap[i] = None
	return p, true
}

// Free returns p to the free list (at commit: either the previous mapping
// of a committing definition, or a kill victim).
func (t *Table) Free(p PhysReg) {
	if p == None || int(p) >= t.nPhys {
		panic(fmt.Sprintf("rename: freeing invalid physical register %d", p))
	}
	if t.free.Has(p) {
		panic(fmt.Sprintf("rename: double free of p%d", p))
	}
	t.free.Set(p)
	t.nFree++
}

// Ready reports whether p's value has been produced. None is always ready
// (reads of unmapped registers are dead values).
func (t *Table) Ready(p PhysReg) bool {
	if p == None {
		return true
	}
	return t.ready[p]
}

// SetReady marks p's value produced (writeback).
func (t *Table) SetReady(p PhysReg) { t.ready[p] = true }

// Watch registers a wakeup token on p: TakeWatchers(p) will hand it back
// when p's value is produced. The scheduler registers a token per unready
// source at dispatch instead of re-polling Ready every cycle.
func (t *Table) Watch(p PhysReg, token uint32) {
	t.watch[p] = append(t.watch[p], token)
}

// TakeWatchers returns the tokens watching p and clears the list. The
// returned slice aliases internal storage: the caller must finish with it
// before registering new watchers on p.
func (t *Table) TakeWatchers(p PhysReg) []uint32 {
	w := t.watch[p]
	t.watch[p] = w[:0]
	return w
}

// PurgeWatchers drops every registered token the predicate rejects
// (misprediction recovery: squashed consumers must not be woken). It
// walks all physical registers, which recovery already does to rebuild
// the free list.
func (t *Table) PurgeWatchers(live func(token uint32) bool) {
	for p := range t.watch {
		w := t.watch[p]
		kept := w[:0]
		for _, tok := range w {
			if live(tok) {
				kept = append(kept, tok)
			}
		}
		t.watch[p] = kept
	}
}

// MapSnapshotCtx copies context ctx's architectural mapping (taken when
// a mispredicted branch dispatches).
func (t *Table) MapSnapshotCtx(ctx int) (m [NumArch]PhysReg) {
	copy(m[:], t.amap[ctx*NumArch:(ctx+1)*NumArch])
	return m
}

// RestoreMapCtx reinstates a snapshot of context ctx's map. Other
// contexts' maps are untouched: recovery is context-scoped. The free list
// must be rebuilt afterwards with RebuildFree.
func (t *Table) RestoreMapCtx(ctx int, m [NumArch]PhysReg) {
	copy(t.amap[ctx*NumArch:(ctx+1)*NumArch], m[:])
}

// RebuildFree recomputes the free list as "every register not in used".
// The caller marks the dest, previous-mapping, and kill-victim registers
// of every surviving in-flight instruction (across all contexts); the
// table itself marks every register reachable from any context's
// (restored) map. This reconstruction stays correct across commits that
// freed registers after the checkpoint was taken (see DESIGN.md).
func (t *Table) RebuildFree(used *Bits) {
	for i := range t.amap {
		if t.amap[i] != None {
			used.Set(t.amap[i])
		}
	}
	t.free = Bits{}
	t.nFree = 0
	for w := 0; w*64 < t.nPhys; w++ {
		m := ^used[w]
		if hi := t.nPhys - w*64; hi < 64 {
			m &= 1<<uint(hi) - 1
		}
		t.free[w] = m
		t.nFree += bits.OnesCount64(m)
	}
}

// InUse returns nPhys - free (diagnostics and invariant checks).
func (t *Table) InUse() int { return t.nPhys - t.nFree }
