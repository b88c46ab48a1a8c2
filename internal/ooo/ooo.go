// Package ooo is the out-of-order timing simulator: a SimpleScalar
// sim-outorder-style pipeline (fetch, decode/rename/dispatch, issue,
// writeback, commit) extended with MIPS R10000-style register renaming over
// an explicit physical register file and the paper's DVI hardware: LVM and
// LVM-Stack driven save/restore elimination at dispatch, and early physical
// register reclamation at kill commit.
//
// Architectural semantics come from an embedded functional emulator stepped
// once per dispatched correct-path instruction. Misprediction is detected
// at dispatch (the emulator knows the outcome) but recovery waits until the
// branch resolves at writeback; in between, fetch streams real wrong-path
// instructions from the static image, which consume fetch and decode
// bandwidth, window slots, physical registers, functional units and cache
// ports before being squashed.
//
// # Hardware contexts
//
// The machine runs Config.Contexts SMT hardware contexts through one core.
// Per-context architectural state — the fetch PC and fetch queue, return
// address stack, branch-history register, rename map (a per-context map
// inside the shared rename.Table) and the bound functional emulator — lives
// in a hwContext; the window/ROB (entries carry a context tag), physical
// register file, caches, predictor tables, BTB and the event-scheduler
// structures are shared. Fetch arbitration picks one context per cycle
// (Config.FetchPolicy: round-robin or ICOUNT); dispatch rotates its
// starting context cycle by cycle and shares the machine width. Each
// context executes its own copy of the program in a disjoint address space
// (cache and store-queue addresses are tagged with the context ID above
// the program's address range), so contexts compete for shared capacity
// and bandwidth without aliasing each other's data.
//
// Misprediction recovery is context-scoped: the recovering context's
// younger window entries are marked squashed in place ("holes" — a
// different context's younger entries are unaffected and keep their slots)
// and the maximal squashed suffix is popped; remaining holes drain at the
// window head without consuming commit bandwidth. Only wrong-path entries
// are ever squashed, so holes pin no kill victims and publish no values. A
// single-context machine never leaves a hole (its squash is always a pure
// tail truncation) and is bit-identical to the pre-SMT machine (pinned by
// golden_test.go).
//
// # Scheduling
//
// Issue and writeback are event-driven. The textbook sim-outorder stages
// rescan the whole window every cycle for issuable and completing
// instructions and walk older entries to detect store-to-load conflicts —
// O(window) host work per simulated cycle no matter how little happens.
// This core restructures the same semantics around events, so each cycle
// touches only the instructions something happened to. The polled stages
// are kept as a test oracle (polled_test.go): the differential tests hold
// this core bit-identical to them on every Stats field and every
// pipeline-trace record.
//
//   - Completion wheel: instructions entering execution are dropped into a
//     calendar queue keyed by their finish cycle; writeback pops exactly
//     the instructions finishing now (sorted by age, so predictor training
//     and recovery order match an age-order window scan) instead of
//     scanning the window. Latencies beyond the wheel horizon park in
//     their slot and are revisited one wheel turn later.
//   - Wakeup lists: at dispatch an instruction counts its not-yet-ready
//     sources and registers a watcher on each with the rename table
//     (rename.Watch); when a result is produced, writeback drains the
//     register's watchers (rename.TakeWatchers) and decrements their
//     counts. An instruction is examined for issue only when its last
//     outstanding source arrives, entering an age-ordered ready set (a
//     bitset over window slots walked oldest-first) that preserves
//     seniority arbitration for issue width, functional units and cache
//     ports.
//   - Last-store table: an 8-byte-granular hash of the youngest in-flight
//     store per block. A dispatching load records its conflicting store
//     (if any) once, making the per-issue conflict check O(1); in-order
//     commit guarantees that when that store leaves the window no older
//     matching store can remain. Only correct-path stores enter the table,
//     and correct-path entries are never squashed, so context-scoped
//     recovery cannot invalidate a recorded conflict.
//
// Misprediction recovery clears squashed ready bits and purges squashed
// watchers (rename.PurgeWatchers); wheel events and last-store records are
// invalidated lazily by sequence-number checks. All event structures are
// rebuilt by Reset and reuse their storage, so a pooled machine's steady
// state allocates nothing per instruction at any context count.
package ooo

import (
	"fmt"
	"math/bits"

	"dvi/internal/bpred"
	"dvi/internal/cache"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/obs"
	"dvi/internal/prog"
	"dvi/internal/rename"
)

type state uint8

const (
	stDispatched state = iota
	stIssued
	stDone
)

type robEntry struct {
	valid     bool
	seq       uint64
	pc        uint64
	inst      *isa.Inst // decoded instruction (shared, read-only)
	class     isa.Class // predecoded pipeline class (prog.Meta)
	lat       uint8     // predecoded fixed latency (prog.Meta)
	ctx       uint8     // owning hardware context
	wrongPath bool
	squashed  bool // context-scoped recovery hole: dead, drains at commit
	st        state
	doneCycle uint64

	// Pipeline trace stamps (cheap unconditional stores; the records they
	// feed are built only when Config.Trace is set).
	traceID       uint64 // fetch sequence number (fetchRec.traceID)
	fetchCycle    uint64
	dispatchCycle uint64
	issueCycle    uint64

	// Renaming.
	hasDest  bool
	destArch isa.Reg
	destPhys rename.PhysReg
	prevPhys rename.PhysReg // None if the arch reg was unmapped
	nSrc     int
	srcPhys  [2]rename.PhysReg

	// DVI reclamation: physical registers unmapped at this instruction's
	// decode (explicit kill or I-DVI), freed when it commits.
	killVictims []rename.PhysReg

	// Memory.
	isLoad, isStore bool
	addr            uint64

	// Control.
	isCtl       bool
	isCondBr    bool
	mispredict  bool
	actualNPC   uint64
	bpInfo      bpred.Info
	hasBpInfo   bool
	histAtFetch uint32
	rasSnap     bpred.RASSnapshot
	mapSnap     [rename.NumArch]rename.PhysReg // recovery checkpoint (mispredicts only)

	// Event-driven scheduler state.
	waits        uint8  // outstanding not-yet-ready sources
	hasConflict  bool   // a possibly conflicting older store was recorded
	conflictSlot int32  // window slot of that store
	conflictSeq  uint64 // its seq (validates the slot hasn't been recycled)
}

type fetchRec struct {
	pc          uint64
	inst        *isa.Inst  // decoded instruction (shared, read-only)
	meta        *prog.Meta // predecoded metadata for inst (shared, read-only)
	faulted     bool       // pc was outside the text segment (synthetic HALT)
	traceID     uint64     // per-run fetch sequence number (trace identity)
	fetchCycle  uint64     // cycle this record entered the fetch queue
	predNPC     uint64
	isCtl       bool
	bpInfo      bpred.Info
	hasBpInfo   bool
	histAtFetch uint32
	rasSnap     bpred.RASSnapshot
}

// hwContext is the per-context architectural state of one SMT hardware
// context: the private half of the machine. Everything here belongs to
// exactly one software thread — its fetch stream, return-address stack,
// branch-history register, functional emulator (own memory image), and
// its slice of the statistics. Shared structures live on Machine.
type hwContext struct {
	id  uint8
	emu *emu.Emulator
	ras *bpred.RAS

	// hist is the context's branch-history register. The direction
	// predictor's tables are shared; its live history register is swapped
	// to the fetching context around each fetch group and re-seeded by
	// that context's recovery.
	hist uint32

	// Fetch state.
	fetchPC         uint64
	fetchStallUntil uint64
	fetchHalted     bool // stopped at a wrong-path HALT; waiting for redirect
	ifq             []fetchRec
	ifqHead, ifqLen int

	// fillPC/fillValid model the in-flight I-fetch fill on a multi-context
	// machine: when a miss completes, the context consumes the returned
	// line directly instead of re-probing the shared L1I. Without it, N
	// contexts at the same entry PC alias into one L1I set (the context
	// tag sits above the index bits) and N > associativity livelocks: each
	// retry re-probes, finds its line evicted by the other contexts'
	// fills, and stalls again without ever fetching.
	fillPC    uint64
	fillValid bool

	pendingMisp    bool // an unresolved correct-path mispredicted branch exists
	pendingMispSeq uint64

	dispatchHalted bool // correct-path HALT reached; drain and finish
	winCount       int  // live (non-squashed) window entries owned by this context

	// stats is this context's view of the run. Its additive fields
	// (fetch, dispatch, commit, elimination, stall and memory counts) are
	// the only place an event is counted; the aggregate Machine.Stats is
	// their sum across contexts. Shared-structure fields (Cycles,
	// MaxPhysInUse, cache stats) are copies of the aggregate.
	stats Stats
}

// ifqAt returns the i-th oldest fetch queue record (0 = head).
func (c *hwContext) ifqAt(i int) *fetchRec {
	idx := c.ifqHead + i
	if idx >= len(c.ifq) {
		idx -= len(c.ifq)
	}
	return &c.ifq[idx]
}

func (c *hwContext) popIFQ() {
	c.ifqHead++
	if c.ifqHead == len(c.ifq) {
		c.ifqHead = 0
	}
	c.ifqLen--
}

// ctxAddr tags an architectural address with its owning context so the
// shared caches and the store-conflict structures never alias across the
// contexts' separate address spaces. The tag sits above any program
// address, leaving the cache index bits intact: contexts compete for the
// same sets (capacity and conflict pressure are modelled) but cannot hit
// each other's lines. Context 0's addresses are untagged, so the
// single-context machine is bit-identical to the pre-SMT one.
func ctxAddr(addr uint64, ctx uint8) uint64 { return addr | uint64(ctx)<<44 }

// Machine is one simulated core executing Config.Contexts hardware
// contexts, each running its own copy of one program.
type Machine struct {
	cfg Config
	img *prog.Image

	ctxs []hwContext

	hier *cache.Hierarchy
	pred *bpred.Predictor
	btb  *bpred.BTB
	rt   *rename.Table

	cycle uint64
	seq   uint64

	// Arbitration rotors (invisible at Contexts=1).
	fetchRR int // context after the one that fetched last
	dispRR  int // context dispatch starts from this cycle

	// Window (circular, shared; entries carry their context tag).
	rob     []robEntry
	robHead int // oldest
	robLen  int

	// Per-cycle resource counters.
	aluUsed, mdUsed, portUsed, issued int

	// Event-driven scheduler structures (see sched.go).
	es evSched

	// Pipeline tracing (trace.go). trace mirrors cfg.Trace; traceRec is
	// the reusable record passed to the sink so emitting does not
	// allocate; traceSeq numbers fetched instructions within the run.
	trace    obs.PipeSink
	traceSeq uint64
	traceRec obs.PipeRecord

	Stats Stats
}

// New builds a machine over its own copy of the program state.
func New(pr *prog.Program, img *prog.Image, cfg Config) *Machine {
	m := &Machine{}
	m.Reset(pr, img, cfg)
	return m
}

// Reset retargets the machine to a (possibly different) program, image
// and configuration and rewinds it to cycle zero. Allocations whose shape
// still fits the new configuration — the embedded emulators' memory
// pages, cache arrays, predictor tables, the window and fetch queues —
// are reused, so a pooled machine runs job after job without rebuilding
// its footprint, including across context-count changes. The reset
// machine is observably identical to a New one.
func (m *Machine) Reset(pr *prog.Program, img *prog.Image, cfg Config) {
	m.img = img
	nCtx := cfg.ContextCount()
	predChanged := m.pred == nil || m.cfg.Pred != cfg.Pred
	if cap(m.ctxs) >= nCtx {
		m.ctxs = m.ctxs[:nCtx]
	} else {
		grown := make([]hwContext, nCtx)
		copy(grown, m.ctxs)
		m.ctxs = grown
	}
	for i := range m.ctxs {
		c := &m.ctxs[i]
		c.id = uint8(i)
		if c.emu == nil {
			c.emu = emu.New(pr, img, cfg.Emu)
		} else {
			c.emu.ResetFor(pr, img, cfg.Emu)
		}
		if c.ras == nil || predChanged {
			c.ras = bpred.NewRAS(cfg.Pred.RASDepth)
		} else {
			c.ras.Reset()
		}
		if len(c.ifq) != cfg.IFQSize {
			c.ifq = make([]fetchRec, cfg.IFQSize)
		}
		c.hist = 0
		c.fetchPC = img.EntryPC
		c.fetchStallUntil = 0
		c.fetchHalted = false
		c.fillPC, c.fillValid = 0, false
		c.ifqHead, c.ifqLen = 0, 0
		c.pendingMisp, c.pendingMispSeq = false, 0
		c.dispatchHalted = false
		c.winCount = 0
		c.stats = Stats{}
	}
	if m.hier == nil || m.cfg.Hierarchy != cfg.Hierarchy {
		m.hier = cache.NewHierarchy(cfg.Hierarchy)
	} else {
		m.hier.Reset()
	}
	if predChanged {
		m.pred = bpred.New(cfg.Pred)
		m.btb = bpred.NewBTB(cfg.Pred.BTBSets, cfg.Pred.BTBAssoc)
	} else {
		m.pred.Reset()
		m.btb.Reset()
	}
	if m.rt == nil || m.rt.NPhys() != cfg.PhysRegs || m.rt.NCtx() != nCtx {
		m.rt = rename.NewTableCtx(cfg.PhysRegs, nCtx)
	} else {
		m.rt.Reset()
	}
	if len(m.rob) != cfg.WindowSize {
		m.rob = make([]robEntry, cfg.WindowSize)
	}
	m.cfg = cfg
	m.es.reset(m)
	m.cycle, m.seq = 0, 0
	m.fetchRR, m.dispRR = 0, 0
	m.robHead, m.robLen = 0, 0
	m.aluUsed, m.mdUsed, m.portUsed, m.issued = 0, 0, 0, 0
	m.trace = cfg.Trace // always reassigned: a pooled machine must not keep a previous job's sink
	m.traceSeq = 0
	m.Stats = Stats{}
}

// Emu exposes context 0's embedded emulator (checksum and architectural
// stats; the single-context machine's only emulator).
func (m *Machine) Emu() *emu.Emulator { return m.ctxs[0].emu }

// EmuCtx exposes hardware context ctx's embedded emulator.
func (m *Machine) EmuCtx(ctx int) *emu.Emulator { return m.ctxs[ctx].emu }

// Contexts returns the number of hardware contexts the machine runs.
func (m *Machine) Contexts() int { return len(m.ctxs) }

// CtxStats returns a copy of the per-context statistics. Additive fields
// sum to the aggregate Stats across contexts; Cycles, MaxPhysInUse and
// the cache stats are shared-structure copies of the aggregate. Call
// after Run (the finalized counters include per-context emulator stats).
func (m *Machine) CtxStats() []Stats {
	out := make([]Stats, len(m.ctxs))
	for i := range m.ctxs {
		out[i] = m.ctxs[i].stats
	}
	return out
}

// Hierarchy exposes the cache hierarchy statistics.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Predictor exposes branch predictor statistics.
func (m *Machine) Predictor() *bpred.Predictor { return m.pred }

// robIdx maps the i-th oldest position (0 = head) to its slot in the
// circular buffer. head+i never exceeds twice the window, so the wrap is
// a compare instead of a division.
func (m *Machine) robIdx(i int) int {
	idx := m.robHead + i
	if idx >= len(m.rob) {
		idx -= len(m.rob)
	}
	return idx
}

// robAt returns the i-th oldest entry (0 = head).
func (m *Machine) robAt(i int) *robEntry {
	return &m.rob[m.robIdx(i)]
}

// robOffset is robIdx's inverse: the age position of a slot (0 = oldest).
func (m *Machine) robOffset(slot int) int {
	off := slot - m.robHead
	if off < 0 {
		off += len(m.rob)
	}
	return off
}

// inWindow reports whether slot currently holds a live window entry.
func (m *Machine) inWindow(slot int) bool {
	return m.robOffset(slot) < m.robLen
}

// done reports whether simulation has finished.
func (m *Machine) done() bool {
	if m.cfg.MaxInsts != 0 && m.committed() >= m.cfg.MaxInsts {
		return true
	}
	if m.robLen != 0 {
		return false
	}
	for i := range m.ctxs {
		if !m.ctxs[i].dispatchHalted {
			return false
		}
	}
	return true
}

// ErrDeadlock reports a wedged pipeline (an internal error, not a program
// property).
var ErrDeadlock = fmt.Errorf("ooo: pipeline deadlock")

// committed is the run's committed original-instruction count, summed
// over the contexts.
func (m *Machine) committed() uint64 {
	var n uint64
	for i := range m.ctxs {
		n += m.ctxs[i].stats.Committed
	}
	return n
}

// sumContexts sets the aggregate's additive counters to their sum over
// the contexts, which count each event once. Cycles, MaxPhysInUse and
// the cache and emulator stats are left as they are.
func (m *Machine) sumContexts() {
	sum := Stats{Cycles: m.Stats.Cycles, MaxPhysInUse: m.Stats.MaxPhysInUse,
		L1I: m.Stats.L1I, L1D: m.Stats.L1D, L2: m.Stats.L2, Emu: m.Stats.Emu}
	for i := range m.ctxs {
		sum.addCounters(&m.ctxs[i].stats)
	}
	m.Stats = sum
}

// finalize fills the end-of-run fields: the aggregate's additive counters
// and summed emulator stats, the shared cache hierarchy counters, and
// each context's shared-structure copies and emulator stats.
func (m *Machine) finalize() {
	m.sumContexts()
	m.Stats.L1I = m.hier.L1I.Stats
	m.Stats.L1D = m.hier.L1D.Stats
	m.Stats.L2 = m.hier.L2.Stats
	m.Stats.Emu = emu.Stats{}
	for i := range m.ctxs {
		c := &m.ctxs[i]
		c.stats.Cycles = m.Stats.Cycles
		c.stats.MaxPhysInUse = m.Stats.MaxPhysInUse
		c.stats.L1I, c.stats.L1D, c.stats.L2 = m.Stats.L1I, m.Stats.L1D, m.Stats.L2
		c.stats.Emu = c.emu.Stats
		addEmu(&m.Stats.Emu, c.emu.Stats)
	}
}

// Run simulates until every context's program halts or the configured
// aggregate instruction budget is reached, and returns the final
// statistics.
func (m *Machine) Run() (Stats, error) {
	idleCycles := 0
	lastCommitted := uint64(0)
	for !m.done() {
		m.step()
		if n := m.committed(); n == lastCommitted {
			idleCycles++
			if idleCycles > 100000 {
				m.sumContexts()
				return m.Stats, fmt.Errorf("%w at cycle %d (pc %#x, rob %d, free %d)",
					ErrDeadlock, m.cycle, m.ctxs[0].fetchPC, m.robLen, m.rt.FreeCount())
			}
		} else {
			idleCycles = 0
			lastCommitted = n
		}
	}
	if m.trace != nil {
		m.drainTrace()
	}
	m.finalize()
	return m.Stats, nil
}

// step advances one cycle. Stage order matches sim-outorder: results
// written back this cycle can issue dependents this cycle and commit runs
// first so freed resources are visible next cycle.
func (m *Machine) step() {
	m.cycle++
	m.Stats.Cycles++
	m.aluUsed, m.mdUsed, m.portUsed, m.issued = 0, 0, 0, 0

	m.commit()
	m.writebackEvent()
	m.issueEvent()
	m.dispatch()
	m.fetch()

	if used := m.rt.InUse(); used > m.Stats.MaxPhysInUse {
		m.Stats.MaxPhysInUse = used
	}
}

// --- fetch ---

// fetchEligible reports whether context c can use the fetch stage this
// cycle: not finished, not parked at a wrong-path HALT, not serving an
// I-cache miss, has fetch-queue room, and (in the no-wrong-path-fetch
// ablation) no unresolved misprediction.
func (m *Machine) fetchEligible(c *hwContext) bool {
	return !c.dispatchHalted && !c.fetchHalted &&
		m.cycle >= c.fetchStallUntil &&
		c.ifqLen < len(c.ifq) &&
		(m.cfg.WrongPathFetch || !c.pendingMisp)
}

// fetchArb picks the context that fetches this cycle: the single context
// when there is one, else round-robin rotation or the ICOUNT minimum over
// the eligible contexts.
func (m *Machine) fetchArb() *hwContext {
	if len(m.ctxs) == 1 {
		c := &m.ctxs[0]
		if m.fetchEligible(c) {
			return c
		}
		return nil
	}
	n := len(m.ctxs)
	if m.cfg.FetchPolicy == FetchICOUNT {
		var best *hwContext
		bestCount := 0
		for i := 0; i < n; i++ {
			c := &m.ctxs[i]
			if !m.fetchEligible(c) {
				continue
			}
			if count := c.ifqLen + c.winCount; best == nil || count < bestCount {
				best, bestCount = c, count
			}
		}
		return best
	}
	for k := 0; k < n; k++ {
		c := &m.ctxs[(m.fetchRR+k)%n]
		if m.fetchEligible(c) {
			m.fetchRR = int(c.id) + 1
			if m.fetchRR == n {
				m.fetchRR = 0
			}
			return c
		}
	}
	return nil
}

// fetch runs one context's fetch group. The shared predictor's history
// register is swapped to the fetching context around the group (a no-op
// at Contexts=1: the register already holds the only context's history).
func (m *Machine) fetch() {
	c := m.fetchArb()
	if c == nil {
		return
	}
	m.pred.SetHistory(c.hist)
	m.fetchGroup(c)
	c.hist = m.pred.History()
}

func (m *Machine) fetchGroup(c *hwContext) {
	// One I-cache access per cycle at the group's start; the group runs to
	// the machine width or the first predicted-taken transfer
	// (sim-outorder's fetch model: no break at line boundaries, so small
	// code-layout shifts from inserted annotations do not perturb fetch).
	first := true
	for n := 0; n < m.cfg.IssueWidth && c.ifqLen < len(c.ifq); n++ {
		pc := c.fetchPC
		if first {
			// A completed miss forwards its fill once; any other PC
			// (redirect while the fill was in flight) probes normally.
			forwarded := c.fillValid && c.fillPC == pc
			c.fillValid = false
			if !forwarded {
				lat := m.hier.L1I.Access(ctxAddr(pc, c.id), false)
				if lat > m.cfg.Hierarchy.L1I.HitLatency {
					c.fetchStallUntil = m.cycle + uint64(lat)
					if len(m.ctxs) > 1 {
						// Single-context keeps probe-on-retry (the retry
						// always hits: no other fetch stream can evict
						// the fill), preserving the pre-SMT cache stats.
						c.fillPC, c.fillValid = pc, true
					}
					return
				}
			}
			first = false
		}

		in, meta, inText := m.img.AtMeta(pc)
		if in.Op == isa.HALT && c.pendingMisp {
			// Wrong-path fetch ran off the program; wait for redirect.
			c.fetchHalted = true
			return
		}

		// Fill the fetch queue slot in place: the record embeds a RAS
		// snapshot, so building it in a local and copying it in would move
		// a few hundred bytes per fetched instruction. Checkpoint fields
		// (bpInfo, histAtFetch, rasSnap) are written only for control
		// instructions and only read behind isCtl/hasBpInfo, so stale
		// values in a reused slot are never observed.
		idx := c.ifqHead + c.ifqLen
		if idx >= len(c.ifq) {
			idx -= len(c.ifq)
		}
		rec := &c.ifq[idx]
		rec.pc, rec.inst, rec.meta, rec.faulted = pc, in, meta, !inText
		rec.traceID, rec.fetchCycle = m.traceSeq, m.cycle
		m.traceSeq++
		rec.predNPC = pc + isa.InstBytes
		rec.isCtl, rec.hasBpInfo = false, false
		taken := false
		switch meta.Class {
		case isa.ClassBranch:
			rec.isCtl = true
			rec.histAtFetch = m.pred.History()
			predTaken, info := m.pred.Predict(pc)
			rec.bpInfo, rec.hasBpInfo = info, true
			if predTaken {
				rec.predNPC = meta.Target
				taken = true
			}
			rec.rasSnap = c.ras.Snapshot()
		case isa.ClassJump:
			rec.isCtl = true
			rec.histAtFetch = m.pred.History()
			taken = true
			switch in.Op {
			case isa.J, isa.JAL:
				rec.predNPC = meta.Target
				if in.Op == isa.JAL {
					c.ras.Push(pc + isa.InstBytes)
				}
			case isa.JALR:
				c.ras.Push(pc + isa.InstBytes)
				if t, ok := m.btb.Lookup(pc); ok {
					rec.predNPC = t
				} else {
					taken = false // no prediction: fall through, will mispredict
				}
			case isa.JR:
				if in.IsReturn {
					if t, ok := c.ras.Pop(); ok {
						rec.predNPC = t
					} else {
						taken = false
					}
				} else if t, ok := m.btb.Lookup(pc); ok {
					rec.predNPC = t
				} else {
					taken = false
				}
			}
			rec.rasSnap = c.ras.Snapshot()
		}

		c.ifqLen++
		c.stats.Fetched++
		c.fetchPC = rec.predNPC
		if taken {
			break // fetch group breaks on a predicted-taken transfer
		}
	}
}

// --- dispatch (decode + rename) ---

// dispatch shares the machine's decode/rename bandwidth among the
// contexts, starting from a per-cycle rotating context. Global structural
// stalls (window full, empty free list) stop dispatch for every context;
// per-context conditions (drained fetch queue, the no-wrong-path-fetch
// ablation, a reached HALT) only move arbitration to the next context.
func (m *Machine) dispatch() {
	nc := len(m.ctxs)
	start := m.dispRR
	if m.dispRR++; m.dispRR == nc {
		m.dispRR = 0
	}
	n := 0 // decode slots consumed this cycle (shared width)
	for k := 0; k < nc && n < m.cfg.IssueWidth; k++ {
		c := &m.ctxs[(start+k)%nc]
		if c.dispatchHalted {
			continue
		}
		if !m.dispatchCtx(c, &n) {
			return // global structural stall
		}
	}
}

// dispatchCtx dispatches from context c until its fetch queue drains, a
// per-context condition stops it (returning true: the next context may
// use the remaining width), or a global structural stall blocks the
// machine (returning false).
func (m *Machine) dispatchCtx(c *hwContext, n *int) bool {
	for *n < m.cfg.IssueWidth && c.ifqLen > 0 {
		if c.pendingMisp && !m.cfg.WrongPathFetch {
			// Ablation mode: no wrong-path execution at all. Whatever is
			// in the fetch queue past the branch waits to be flushed at
			// recovery.
			return true
		}
		rec := &c.ifq[c.ifqHead]
		in := rec.inst

		// Save/restore elimination happens at decode and consumes no
		// window slot (paper §5: dead saves and restores "are not
		// dispatched"). Only meaningful on the correct path.
		if !c.pendingMisp {
			if in.Op == isa.LVST && m.cfg.Emu.Scheme != emu.ElimOff &&
				c.emu.Tracker.SaveEliminable(in.Rs2) {
				c.popIFQ()
				st := c.emu.Step()
				m.assertStep(rec, st, true)
				c.stats.ElimSaves++
				c.stats.Committed++
				if m.trace != nil {
					m.emitDecode(rec, c.id, obs.KindElimSave, obs.SquashNone, false, 0)
				}
				*n++
				continue
			}
			if in.Op == isa.LVLD && m.cfg.Emu.Scheme == emu.ElimLVMStack &&
				c.emu.Tracker.RestoreEliminable(in.Rd) {
				c.popIFQ()
				st := c.emu.Step()
				m.assertStep(rec, st, true)
				c.stats.ElimRests++
				c.stats.Committed++
				if m.trace != nil {
					m.emitDecode(rec, c.id, obs.KindElimRestore, obs.SquashNone, false, 0)
				}
				*n++
				continue
			}
		}

		// E-DVI kill annotations consume decode bandwidth but no window
		// slot, functional unit, or commit slot (paper §7: they are
		// effectively no-ops; the checkpoint mechanism tracks reclaimed
		// registers, "conserving space in the reorder buffer"). Their
		// victims ride on the context's youngest in-flight instruction and
		// are freed when it commits — at most one commit group before the
		// kill's own notional commit. Correct-path instructions are never
		// squashed in this simulator (misprediction is detected at
		// dispatch), so the early free is safe.
		if in.Op == isa.KILL {
			c.popIFQ()
			if c.pendingMisp {
				// Wrong-path kills have no lasting effect (see DESIGN.md).
				if m.trace != nil {
					m.emitDecode(rec, c.id, obs.KindKill, obs.SquashWrongPath, true, 0)
				}
				*n++
				continue
			}
			st := c.emu.Step()
			m.assertStep(rec, st, false)
			c.stats.KillsSeen++
			victims := uint8(0)
			for k := uint32(st.Killed); k != 0; k &= k - 1 {
				victim, ok := m.rt.UnmapCtx(int(c.id), uint8(bits.TrailingZeros32(k)))
				if !ok {
					continue
				}
				victims++
				if y := m.youngestLive(c); y != nil {
					y.killVictims = append(y.killVictims, victim)
				} else {
					// No in-flight instruction of this context: the kill
					// is trivially non-speculative; reclaim now.
					m.rt.Free(victim)
					c.stats.EarlyReclaimed++
				}
			}
			if m.trace != nil {
				m.emitDecode(rec, c.id, obs.KindKill, obs.SquashNone, false, victims)
			}
			*n++
			continue
		}

		// Window slot required for everything else.
		if m.robLen == len(m.rob) {
			c.stats.WindowFullCycles++
			return false
		}
		// Physical register required for destinations.
		if rec.meta.HasDest && m.rt.FreeCount() == 0 {
			c.stats.RenameStallCycles++
			return false
		}

		// Initialize the window entry field by field: a struct literal
		// would copy the embedded RAS/map checkpoints (a few hundred
		// bytes) on every dispatch. Checkpoint fields are written only
		// when needed and only read behind the flags set here.
		slot := m.robIdx(m.robLen)
		e := &m.rob[slot]
		e.valid = true
		e.seq = m.seq
		e.pc = rec.pc
		e.inst = in
		e.class = rec.meta.Class
		e.lat = rec.meta.Lat
		e.ctx = c.id
		e.wrongPath = false
		e.squashed = false
		e.st = stDispatched
		e.doneCycle = 0
		e.traceID = rec.traceID
		e.fetchCycle = rec.fetchCycle
		e.dispatchCycle = m.cycle
		e.issueCycle = 0
		e.hasDest = false
		e.destArch = 0
		e.destPhys = rename.None
		e.prevPhys = rename.None
		e.nSrc = 0
		e.killVictims = e.killVictims[:0] // reuse ring storage
		e.isLoad, e.isStore = false, false
		e.addr = 0
		e.isCtl = rec.isCtl
		e.isCondBr = rec.meta.Class == isa.ClassBranch
		e.mispredict = false
		e.actualNPC = 0
		e.hasBpInfo = rec.hasBpInfo
		if rec.isCtl {
			e.bpInfo = rec.bpInfo
			e.histAtFetch = rec.histAtFetch
			// rec.rasSnap is NOT copied here: it is only ever read when
			// recovering a mispredicted branch, which dispatchCorrect
			// detects below — copying the ~270-byte snapshot there, only
			// for actual mispredicts, keeps it off the per-control-
			// instruction fast path.
		}
		m.seq++

		if c.pendingMisp {
			m.dispatchWrongPath(c, e, rec)
		} else {
			if rec.pc != c.emu.PC {
				panic(fmt.Sprintf("ooo: correct-path fetch diverged: fetched %#x, emulator at %#x", rec.pc, c.emu.PC))
			}
			if in.Op == isa.HALT {
				if rec.faulted {
					// Synthetic HALT: correct-path control flow left the
					// text segment. Halt as before, but report it.
					c.stats.Faults++
				}
				c.dispatchHalted = true
				c.popIFQ()
				e.valid = false
				return true
			}
			m.dispatchCorrect(c, e, rec)
		}
		m.schedDispatch(e, slot)

		c.popIFQ()
		m.robLen++
		c.winCount++
		c.stats.Dispatched++
		*n++
	}
	return true
}

// youngestLive returns context c's youngest live (non-squashed) window
// entry, or nil when it has none in flight. At Contexts=1 the youngest
// entry overall always matches (holes never exist), so the walk is O(1).
func (m *Machine) youngestLive(c *hwContext) *robEntry {
	if c.winCount == 0 {
		return nil
	}
	for i := m.robLen - 1; i >= 0; i-- {
		if y := m.robAt(i); y.ctx == c.id && !y.squashed {
			return y
		}
	}
	return nil
}

func (m *Machine) assertStep(rec *fetchRec, st *emu.Step, wantElim bool) {
	if rec.pc != st.PC {
		panic(fmt.Sprintf("ooo: emulator desync: decode %#x vs step %#x", rec.pc, st.PC))
	}
	if st.Eliminated != wantElim {
		panic("ooo: dispatch elimination decision disagrees with emulator")
	}
}

// dispatchCorrect renames and functionally executes a correct-path
// instruction of context c.
func (m *Machine) dispatchCorrect(c *hwContext, e *robEntry, rec *fetchRec) {
	st := c.emu.Step()
	m.assertStep(rec, st, false)
	in := e.inst
	meta := rec.meta
	ctx := int(c.id)

	// Sources first (read old mappings), then kill victims, then the
	// destination: a kill mask plus destination write at a call (jal
	// writes ra, I-DVI kills temps) must see sources under pre-rename
	// mappings.
	for i := 0; i < int(meta.NSrc); i++ {
		r := meta.Srcs[i]
		if r == isa.Zero {
			continue
		}
		p, mapped := m.rt.MapCtx(ctx, uint8(r))
		if mapped {
			e.srcPhys[e.nSrc] = p
			e.nSrc++
		}
	}

	// DVI: unmap registers that transitioned live->dead at this
	// instruction (explicit kill mask or I-DVI at call/return). Victims
	// are pinned in the entry and freed when it commits (paper §4.1:
	// reclamation only when non-speculative).
	for k := uint32(st.Killed); k != 0; k &= k - 1 {
		if victim, ok := m.rt.UnmapCtx(ctx, uint8(bits.TrailingZeros32(k))); ok {
			e.killVictims = append(e.killVictims, victim)
		}
	}

	if meta.HasDest {
		newP, prevP, renamed := m.rt.RenameCtx(ctx, uint8(meta.Dest))
		if !renamed {
			panic("ooo: rename failed after free-list check")
		}
		e.hasDest, e.destArch, e.destPhys, e.prevPhys = true, meta.Dest, newP, prevP
	}

	switch meta.Class {
	case isa.ClassLoad:
		e.isLoad, e.addr = true, ctxAddr(st.Addr, c.id)
	case isa.ClassStore:
		e.isStore, e.addr = true, ctxAddr(st.Addr, c.id)
	}

	e.actualNPC = st.NextPC
	if e.isCtl {
		if rec.predNPC != st.NextPC {
			// Misprediction detected at dispatch; recovery at writeback.
			e.mispredict = true
			e.rasSnap = rec.rasSnap
			e.mapSnap = m.rt.MapSnapshotCtx(ctx)
			c.pendingMisp = true
			c.pendingMispSeq = e.seq
		}
	}

	// NOPs occupy a slot but no functional unit: done immediately.
	if in.Op == isa.NOP {
		e.st = stDone
		e.doneCycle = m.cycle
	}
}

// dispatchWrongPath renames a wrong-path instruction without functional
// execution. Its DVI decode effects are skipped (equivalent to perfect
// checkpoint recovery of the LVM structures, see DESIGN.md).
func (m *Machine) dispatchWrongPath(c *hwContext, e *robEntry, rec *fetchRec) {
	c.stats.WrongPath++
	e.wrongPath = true
	in := e.inst
	meta := rec.meta
	ctx := int(c.id)
	for i := 0; i < int(meta.NSrc); i++ {
		r := meta.Srcs[i]
		if r == isa.Zero {
			continue
		}
		if p, mapped := m.rt.MapCtx(ctx, uint8(r)); mapped {
			e.srcPhys[e.nSrc] = p
			e.nSrc++
		}
	}
	if meta.HasDest {
		newP, prevP, renamed := m.rt.RenameCtx(ctx, uint8(meta.Dest))
		if !renamed {
			panic("ooo: rename failed after free-list check")
		}
		e.hasDest, e.destArch, e.destPhys, e.prevPhys = true, meta.Dest, newP, prevP
	}
	switch meta.Class {
	case isa.ClassLoad:
		e.isLoad = true // no address: charged a port and hit latency only
	case isa.ClassStore:
		e.isStore = true
	}
	if in.Op == isa.NOP || in.Op == isa.HALT {
		e.st = stDone
		e.doneCycle = m.cycle
	}
}

// srcsReady reports whether every source operand of e has been produced.
func (m *Machine) srcsReady(e *robEntry) bool {
	for i := 0; i < e.nSrc; i++ {
		if !m.rt.Ready(e.srcPhys[i]) {
			return false
		}
	}
	return true
}

// resolveControl trains the predictor structures and performs misprediction
// recovery for a resolved correct-path control instruction.
func (m *Machine) resolveControl(e *robEntry, idx int) {
	if e.hasBpInfo {
		taken := e.actualNPC != e.pc+isa.InstBytes
		m.pred.Resolve(e.pc, taken, e.bpInfo)
	}
	if e.inst.Op == isa.JALR || (e.inst.Op == isa.JR && !e.inst.IsReturn) {
		m.btb.Update(e.pc, e.actualNPC)
	}
	if !e.mispredict {
		return
	}
	c := &m.ctxs[e.ctx]
	if !c.pendingMisp || e.seq != c.pendingMispSeq {
		panic("ooo: recovering a branch that is not the pending misprediction")
	}

	c.stats.Mispredicts++
	c.stats.Recoveries++

	// Squash everything younger than the branch in its context. Another
	// context's younger entries keep their slots: squashed same-context
	// entries become holes that drain at the window head. All of them are
	// wrong-path (within a context, everything dispatched after the
	// mispredicted branch is wrong-path), so they pin no kill victims and
	// publish no values.
	for i := idx + 1; i < m.robLen; i++ {
		o := m.robAt(i)
		if o.ctx != e.ctx || o.squashed {
			continue
		}
		o.squashed = true
		c.winCount--
		if m.trace != nil {
			// Squashed entries stay intact in their slots until reuse;
			// record them before the scheduler forgets about them.
			m.emitRob(o, obs.SquashRecovery)
		}
		m.es.clearReady(m.robIdx(i))
	}
	// Pop the maximal squashed suffix so the tail slot is reusable; at
	// Contexts=1 this is the whole squashed range (a pure truncation).
	for m.robLen > idx+1 && m.robAt(m.robLen-1).squashed {
		m.robLen--
	}
	m.rt.PurgeWatchers(m.es.liveTok)

	// Restore the context's rename map and rebuild the shared free list
	// from every context's surviving in-flight state.
	m.rt.RestoreMapCtx(int(e.ctx), e.mapSnap)
	var used rename.Bits
	for i := 0; i < m.robLen; i++ {
		o := m.robAt(i)
		if o.squashed {
			continue
		}
		if o.hasDest {
			used.Set(o.destPhys)
			if o.prevPhys != rename.None {
				used.Set(o.prevPhys)
			}
		}
		for _, v := range o.killVictims {
			used.Set(v)
		}
	}
	m.rt.RebuildFree(&used)

	// Restore fetch structures to the state just after this instruction.
	c.ras.Restore(e.rasSnap)
	if e.isCondBr {
		m.pred.RestoreHistory(e.bpInfo.Hist, e.actualNPC != e.pc+isa.InstBytes)
	} else {
		// Target mispredict of an unconditional transfer: it never shifted
		// history, so reinstate the fetch-time value as-is.
		m.pred.SetHistory(e.histAtFetch)
	}
	c.hist = m.pred.History()

	// Redirect the context's fetch. Everything still in its fetch queue
	// was fetched on the mispredicted path and is flushed without
	// dispatching.
	if m.trace != nil {
		for i := 0; i < c.ifqLen; i++ {
			m.emitDecode(c.ifqAt(i), c.id, obs.KindInst, obs.SquashFetch, true, 0)
		}
	}
	c.ifqHead, c.ifqLen = 0, 0
	c.fetchPC = e.actualNPC
	c.fetchHalted = false
	c.fetchStallUntil = 0
	c.pendingMisp = false
}

// --- commit ---

func (m *Machine) commit() {
	for n := 0; n < m.cfg.IssueWidth && m.robLen > 0; {
		e := m.robAt(0)
		if e.squashed {
			// A recovery hole reaching the head drains for free: it holds
			// no resources (its registers were reclaimed when the free
			// list was rebuilt) and consumes no commit bandwidth.
			e.valid = false
			m.robHead++
			if m.robHead == len(m.rob) {
				m.robHead = 0
			}
			m.robLen--
			continue
		}
		if e.st != stDone {
			return
		}
		if e.wrongPath {
			panic(fmt.Sprintf("ooo: wrong-path instruction at commit: %v @%#x", e.inst, e.pc))
		}
		c := &m.ctxs[e.ctx]
		if e.isStore {
			if m.portUsed >= m.cfg.CachePorts {
				c.stats.PortStallCycles++
				return
			}
			m.portUsed++
			c.stats.StoresCommit++
			m.hier.L1D.Access(e.addr, true)
		}
		if e.prevPhys != rename.None {
			m.rt.Free(e.prevPhys)
		}
		for _, v := range e.killVictims {
			m.rt.Free(v)
			c.stats.EarlyReclaimed++
		}
		c.stats.Committed++
		if m.trace != nil {
			m.emitRob(e, obs.SquashNone)
		}
		e.valid = false
		c.winCount--
		m.robHead++
		if m.robHead == len(m.rob) {
			m.robHead = 0
		}
		m.robLen--
		n++
	}
}
