package ooo

import (
	"math/bits"

	"dvi/internal/isa"
	"dvi/internal/rename"
)

// This file is the event-driven scheduler: the issue and writeback stages
// of a sim-outorder-style window scan, restructured so a cycle's host
// cost is proportional to what happens in it rather than to the window
// size. The scan itself is kept as a test oracle (issuePolled,
// writebackPolled and olderStoreConflict in polled_test.go), and the
// differential tests hold this file observably identical to it — every
// Stats field, every cycle count, every pipeline-trace record — across
// random programs, machine shapes and context counts. A change to the
// modelled pipeline semantics here must be made to the oracle too; a
// change to how the events are kept must not need it.

// wheelSlots is the completion wheel's size (a power of two). It covers
// the default machine's longest latency chain (L1 miss + L2 miss + memory
// is 59 cycles, a divide 20); an instruction finishing beyond the horizon
// parks in its slot and is revisited one wheel turn later, so arbitrary
// configured latencies remain correct.
const wheelSlots = 128

// wheelEvent schedules one instruction's completion. seq validates that
// the slot still holds the same instruction when the event fires:
// squashed or recycled entries are skipped.
type wheelEvent struct {
	due  uint64
	seq  uint64
	slot int32
}

// storeRef identifies the youngest in-flight store to one 8-byte block.
type storeRef struct {
	seq  uint64
	slot int32
}

// evSched is the event-driven scheduler's state. All storage is retained
// across Reset: a warm machine's steady state allocates nothing.
type evSched struct {
	// ready is a bitset over window slots: dispatched, all sources
	// ready, not yet issued. Issue walks it oldest-first, preserving the
	// window scan's seniority arbitration.
	ready []uint64
	// wheel is the completion calendar queue, indexed by cycle mod
	// wheelSlots.
	wheel [wheelSlots][]wheelEvent
	// due is the per-cycle scratch of events firing now, insertion-sorted
	// by seq so writeback processes them oldest-first (predictor training
	// and recovery order must match an age-order window scan).
	due []wheelEvent
	// stores maps addr>>3 to the youngest in-flight store writing that
	// block (storeTable, an open-addressed hash with no per-op
	// allocation).
	stores storeTable
	// liveTok is the recovery predicate passed to rename.PurgeWatchers,
	// built once so recoveries don't allocate a closure.
	liveTok func(token uint32) bool
}

// reset rebuilds the scheduler state for a (possibly reshaped) machine,
// reusing storage.
func (s *evSched) reset(m *Machine) {
	need := (len(m.rob) + 63) / 64
	if len(s.ready) != need {
		s.ready = make([]uint64, need)
	} else {
		for i := range s.ready {
			s.ready[i] = 0
		}
	}
	for i := range s.wheel {
		s.wheel[i] = s.wheel[i][:0]
	}
	s.due = s.due[:0]
	s.stores.reset()
	if s.liveTok == nil {
		s.liveTok = func(token uint32) bool {
			return m.inWindow(int(token)) && !m.rob[token].squashed
		}
	}
}

func (s *evSched) setReady(slot int)   { s.ready[slot>>6] |= 1 << (uint(slot) & 63) }
func (s *evSched) clearReady(slot int) { s.ready[slot>>6] &^= 1 << (uint(slot) & 63) }

// schedDispatch registers a freshly dispatched window entry with the
// event structures: its completion dependencies (wakeup lists or the
// ready set), and the last-store table / conflict record for memory
// ordering. Runs for correct- and wrong-path entries alike, after the
// entry is fully initialized.
func (m *Machine) schedDispatch(e *robEntry, slot int) {
	if e.st != stDispatched {
		return // NOPs and wrong-path HALTs are done at dispatch
	}
	e.hasConflict = false // the slot's previous occupant may have left one
	if !e.wrongPath {
		// Memory ordering bookkeeping. Only correct-path entries
		// participate: wrong-path stores have no address, and a
		// correct-path load's older window entries are always
		// correct-path (wrong-path entries are strictly younger than the
		// mispredicted branch).
		if e.isStore {
			m.es.stores.put(e.addr>>3, storeRef{seq: e.seq, slot: int32(slot)})
		} else if e.isLoad {
			if ref, ok := m.es.stores.get(e.addr >> 3); ok {
				// Validity (is that store still in flight?) is checked at
				// each issue attempt; in-order commit guarantees that when
				// it leaves the window no older store to the block remains.
				e.hasConflict, e.conflictSlot, e.conflictSeq = true, ref.slot, ref.seq
			}
		}
	}
	waits := uint8(0)
	for i := 0; i < e.nSrc; i++ {
		if p := e.srcPhys[i]; !m.rt.Ready(p) {
			m.rt.Watch(p, uint32(slot))
			waits++
		}
	}
	e.waits = waits
	if waits == 0 {
		m.es.setReady(slot)
	}
}

// schedComplete drops an instruction entering execution into the
// completion wheel. Writeback runs before issue within a cycle, so a
// result due "now or earlier" (zero-latency classes) is seen next cycle —
// exactly when a window scan would pick it up.
func (m *Machine) schedComplete(e *robEntry, slot int) {
	due := e.doneCycle
	if due <= m.cycle {
		due = m.cycle + 1
	}
	w := &m.es.wheel[due&(wheelSlots-1)]
	*w = append(*w, wheelEvent{due: due, seq: e.seq, slot: int32(slot)})
}

// Recovery cleanup (resolveControl): squashed entries leave the ready set
// as they are marked, and their wakeup registrations are purged with
// rename.PurgeWatchers(liveTok) so a recycled slot cannot be woken by a
// stale token. Wheel events and last-store records are invalidated lazily
// by their seq and squashed checks.

// wakeup publishes a produced result: the ready bit plus the watchers
// registered on the register. A watcher whose last outstanding source
// this was becomes issuable.
func (m *Machine) wakeup(p rename.PhysReg) {
	m.rt.SetReady(p)
	for _, tok := range m.rt.TakeWatchers(p) {
		e := &m.rob[tok]
		if e.st == stDispatched && e.waits > 0 {
			if e.waits--; e.waits == 0 {
				m.es.setReady(int(tok))
			}
		}
	}
}

// --- writeback (event-driven) ---

func (m *Machine) writebackEvent() {
	w := &m.es.wheel[m.cycle&(wheelSlots-1)]
	evs := *w
	if len(evs) == 0 {
		return
	}
	// Partition the slot: events due now (sorted by seq, i.e. age) fire;
	// events parked beyond the horizon stay for the next wheel turn.
	due := m.es.due[:0]
	keep := evs[:0]
	for _, ev := range evs {
		if ev.due > m.cycle {
			keep = append(keep, ev)
			continue
		}
		due = append(due, ev)
		for i := len(due) - 1; i > 0 && due[i-1].seq > due[i].seq; i-- {
			due[i-1], due[i] = due[i], due[i-1]
		}
	}
	*w = keep
	m.es.due = due

	for i := range due {
		ev := &due[i]
		e := &m.rob[ev.slot]
		// A recovery earlier in this loop (or cycle) may have squashed
		// the entry — in place (a hole) or with its slot popped and
		// recycled; in every case the event is stale.
		if e.seq != ev.seq || e.squashed || e.st != stIssued || !m.inWindow(int(ev.slot)) {
			continue
		}
		e.st = stDone
		if e.hasDest {
			m.wakeup(e.destPhys)
		}
		if e.isCtl && !e.wrongPath {
			m.resolveControl(e, m.robOffset(int(ev.slot)))
			// On a mispredict, recovery squashed the context's younger
			// entries; their remaining due events fail validation above.
			// Other contexts' younger completions still fire this cycle.
		}
	}
}

// --- issue (event-driven) ---

// storeConflict is the O(1) replacement for olderStoreConflict: the
// conflicting store was recorded at dispatch; the check each issue
// attempt is whether it is still in flight and whether its data is ready.
func (m *Machine) storeConflict(e *robEntry) (conflict, dataReady bool) {
	if !e.hasConflict {
		return false, false
	}
	o := &m.rob[e.conflictSlot]
	if o.seq != e.conflictSeq || !m.inWindow(int(e.conflictSlot)) {
		// The store committed (in-order, so every older store to the
		// block is gone too). Clear the record so later attempts skip
		// straight to the cache.
		e.hasConflict = false
		return false, false
	}
	return true, m.srcsReady(o)
}

func (m *Machine) issueEvent() {
	if m.robLen == 0 || m.issued >= m.cfg.IssueWidth {
		return
	}
	// Walk ready bits oldest-first: the live window is [head, head+len)
	// in the circular buffer, so age order is one or two ascending-slot
	// ranges.
	n := len(m.rob)
	tail := m.robHead + m.robLen
	if tail <= n {
		m.issueRange(m.robHead, tail)
		return
	}
	if m.issueRange(m.robHead, n) {
		m.issueRange(0, tail-n)
	}
}

// issueRange attempts to issue the ready entries with slots in [lo, hi),
// in slot order. It returns false when the cycle's issue width is
// exhausted.
func (m *Machine) issueRange(lo, hi int) bool {
	words := m.es.ready
	loWord := lo >> 6
	for wi := loWord; wi <= (hi-1)>>6; wi++ {
		w := words[wi]
		if wi == loWord {
			w &^= 1<<(uint(lo)&63) - 1
		}
		if upper := (wi + 1) << 6; upper > hi {
			w &= 1<<(uint(hi)&63) - 1
		}
		for ; w != 0; w &= w - 1 {
			m.tryIssue(wi<<6 + bits.TrailingZeros64(w))
			if m.issued >= m.cfg.IssueWidth {
				return false
			}
		}
	}
	return true
}

// tryIssue attempts to issue the ready entry in slot, mirroring one
// iteration of the oracle's issue scan (issuePolled): the entry issues, or
// stays in the ready set blocked on a structural resource or an unready
// forwarding store.
func (m *Machine) tryIssue(slot int) {
	e := &m.rob[slot]
	switch e.class {
	case isa.ClassStore:
		// Stores complete when operands are ready (the cache access
		// happens at commit, sim-outorder behaviour) but still consume
		// an issue slot for address generation.
		m.issued++
		e.st = stDone
		e.issueCycle = m.cycle
		e.doneCycle = m.cycle
		m.es.clearReady(slot)
	case isa.ClassLoad:
		if e.wrongPath {
			if m.portUsed >= m.cfg.CachePorts {
				return
			}
			m.portUsed++
			m.issued++
			m.ctxs[e.ctx].stats.WrongPathLoads++
			e.st = stIssued
			e.issueCycle = m.cycle
			e.doneCycle = m.cycle + uint64(m.cfg.Hierarchy.L1D.HitLatency)
			m.es.clearReady(slot)
			m.schedComplete(e, slot)
			return
		}
		conflict, dataReady := m.storeConflict(e)
		if conflict {
			if !dataReady {
				return // wait for the producing store's data
			}
			// Store-to-load forwarding: one cycle, no cache port.
			m.issued++
			m.ctxs[e.ctx].stats.LoadForwarded++
			e.st = stIssued
			e.issueCycle = m.cycle
			e.doneCycle = m.cycle + 1
			m.es.clearReady(slot)
			m.schedComplete(e, slot)
			return
		}
		if m.portUsed >= m.cfg.CachePorts {
			return
		}
		m.portUsed++
		m.issued++
		m.ctxs[e.ctx].stats.LoadsIssued++
		lat := m.hier.L1D.Access(e.addr, false)
		e.st = stIssued
		e.issueCycle = m.cycle
		e.doneCycle = m.cycle + uint64(lat)
		m.es.clearReady(slot)
		m.schedComplete(e, slot)
	case isa.ClassIntMul, isa.ClassIntDiv:
		if m.mdUsed >= m.cfg.IntMulDiv {
			return
		}
		m.mdUsed++
		m.issued++
		e.st = stIssued
		e.issueCycle = m.cycle
		if e.class == isa.ClassIntMul {
			e.doneCycle = m.cycle + uint64(m.cfg.MulLatency)
		} else {
			e.doneCycle = m.cycle + uint64(m.cfg.DivLatency)
		}
		m.es.clearReady(slot)
		m.schedComplete(e, slot)
	default: // ALU, branches, jumps
		if m.aluUsed >= m.cfg.IntALUs {
			return
		}
		m.aluUsed++
		m.issued++
		e.st = stIssued
		e.issueCycle = m.cycle
		e.doneCycle = m.cycle + uint64(e.lat)
		m.es.clearReady(slot)
		m.schedComplete(e, slot)
	}
}

// --- last-store table ---

// storeTable is an open-addressed hash from 8-byte block number to the
// youngest in-flight store writing it. Entries are never deleted: a
// lookup's result is validated against the window by (slot, seq), so a
// stale record is indistinguishable from "no conflict". Storage is
// retained across reset; re-running the same program on a warm machine
// allocates nothing.
type storeTable struct {
	keys []uint64 // block+1; 0 marks an empty cell
	vals []storeRef
	n    int
}

const storeTableMinSize = 256 // power of two

func (t *storeTable) reset() {
	if t.keys == nil {
		t.keys = make([]uint64, storeTableMinSize)
		t.vals = make([]storeRef, storeTableMinSize)
		t.n = 0
		return
	}
	for i := range t.keys {
		t.keys[i] = 0
	}
	t.n = 0
}

// slotFor probes for block's cell (Fibonacci hashing, linear probing).
func (t *storeTable) slotFor(block uint64) int {
	mask := uint64(len(t.keys) - 1)
	key := block + 1
	i := (block * 0x9E3779B97F4A7C15) >> 32 & mask
	for t.keys[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return int(i)
}

func (t *storeTable) put(block uint64, ref storeRef) {
	i := t.slotFor(block)
	if t.keys[i] == 0 {
		t.keys[i] = block + 1
		t.n++
		if t.n > len(t.keys)*3/4 {
			t.vals[i] = ref
			t.grow()
			return
		}
	}
	t.vals[i] = ref
}

func (t *storeTable) get(block uint64) (storeRef, bool) {
	i := t.slotFor(block)
	if t.keys[i] == 0 {
		return storeRef{}, false
	}
	return t.vals[i], true
}

func (t *storeTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, len(oldKeys)*2)
	t.vals = make([]storeRef, len(oldVals)*2)
	t.n = 0
	for i, k := range oldKeys {
		if k != 0 {
			t.put(k-1, oldVals[i])
		}
	}
}
