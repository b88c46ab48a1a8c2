package ooo

import (
	"fmt"

	"dvi/internal/bpred"
	"dvi/internal/cache"
	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/rename"
)

// FetchPolicy selects how the fetch stage arbitrates its one I-cache
// access per cycle among hardware contexts (meaningful only when
// Config.Contexts > 1; a single-context machine always fetches its only
// context).
type FetchPolicy uint8

const (
	// FetchRoundRobin (the default, zero value) rotates fetch among the
	// eligible contexts cycle by cycle.
	FetchRoundRobin FetchPolicy = iota
	// FetchICOUNT fetches for the eligible context with the fewest
	// instructions in its fetch queue plus the shared window (Tullsen's
	// ICOUNT heuristic: feed the context draining fastest), ties broken
	// toward the lower context ID.
	FetchICOUNT
)

// String names the policy for flags, wire enums and test labels.
func (p FetchPolicy) String() string {
	if p == FetchICOUNT {
		return "icount"
	}
	return "round-robin"
}

// Config parameterizes the simulated machine. DefaultConfig reproduces the
// paper's Figure 2.
type Config struct {
	IssueWidth int // fetch/decode/issue/commit width
	WindowSize int // unified instruction window / reorder buffer (RUU)
	IFQSize    int // fetch queue depth
	PhysRegs   int // integer physical register file size (§4 sweeps this)

	// Contexts is the number of SMT hardware contexts sharing the core
	// (0 or 1 = the single-context machine). Each context runs its own
	// copy of the program in its own address space and rename map; the
	// window, physical register file, caches and predictor are shared.
	// PhysRegs must be at least Contexts*32+1 (Check).
	Contexts int
	// FetchPolicy arbitrates fetch among contexts (Contexts > 1 only).
	FetchPolicy FetchPolicy

	IntALUs    int // total integer units
	IntMulDiv  int // units capable of mul/div
	CachePorts int // fully independent cache ports (§5.3 sweeps this)

	MulLatency int
	DivLatency int

	Hierarchy cache.HierarchyConfig
	Pred      bpred.Config

	// Emu configures the DVI hardware and elimination scheme; the
	// emulator inside the simulator uses it for architectural semantics
	// and the pipeline uses its decisions at dispatch.
	Emu emu.Config

	// WrongPathFetch controls whether instructions beyond a mispredicted
	// branch are fetched, renamed and executed until the branch resolves
	// (true, the realistic mode) or fetch simply stalls (false; ablation).
	WrongPathFetch bool

	// MaxInsts stops simulation after this many committed original
	// instructions (0 = run to completion).
	MaxInsts uint64

	// Trace, when non-nil, receives a per-instruction pipeline lifecycle
	// record for every instruction that leaves the machine (commit,
	// squash, flush, drain). Tracing does not change timing: with it off
	// (nil, the default) the core's only overhead is a few integer stamps
	// per instruction and the steady-state zero-alloc gates still hold.
	// Not a property of the modelled machine — excluded from cache keys
	// and report identity.
	Trace obs.PipeSink
}

// DefaultConfig returns the paper's machine: 4-wide, 64-entry window,
// 4 int ALUs (2 mul/div), 2 cache ports, Figure 2 memory system, 16-bit
// history combining predictor, and an effectively unconstrained 96-entry
// physical register file.
func DefaultConfig() Config {
	return Config{
		IssueWidth: 4,
		WindowSize: 64,
		IFQSize:    16,
		PhysRegs:   96,
		IntALUs:    4,
		IntMulDiv:  2,
		CachePorts: 2,
		MulLatency: 3,
		DivLatency: 20,
		Hierarchy:  cache.DefaultHierarchyConfig(),
		Pred:       bpred.DefaultConfig(),
		Emu: emu.Config{
			DVI:    core.DefaultConfig(),
			Scheme: emu.ElimLVMStack,
		},
		WrongPathFetch: true,
	}
}

// ContextCount returns the effective number of hardware contexts (0 and 1
// both mean the single-context machine).
func (c Config) ContextCount() int {
	if c.Contexts < 1 {
		return 1
	}
	return c.Contexts
}

// limits is the one table of machine ranges: every Config field a wire
// request can set, by its wire name, with the inclusive range Check
// admits. The ranges admit every machine the figures, the CLIs and the
// benchmarks build; the caps keep one request from sizing the window,
// the fetch queues or the completion times far beyond what the
// simulator is tested at.
var limits = []struct {
	name   string
	field  func(*Config) int
	lo, hi int
}{
	{"issue_width", func(c *Config) int { return c.IssueWidth }, 1, 64},
	{"window_size", func(c *Config) int { return c.WindowSize }, 1, 1024},
	{"ifq_size", func(c *Config) int { return c.IFQSize }, 1, 1024},
	{"int_alus", func(c *Config) int { return c.IntALUs }, 1, 64},
	{"int_muldiv", func(c *Config) int { return c.IntMulDiv }, 1, 64},
	{"cache_ports", func(c *Config) int { return c.CachePorts }, 1, 64},
	{"mul_latency", func(c *Config) int { return c.MulLatency }, 0, 1024},
	{"div_latency", func(c *Config) int { return c.DivLatency }, 0, 1024},
	{"stack_depth", func(c *Config) int { return c.Emu.DVI.StackDepth }, 0, core.MaxStackDepth},
	// Each context pins NumArch physical registers, so MaxPhys bounds
	// the contexts too.
	{"contexts", func(c *Config) int { return c.Contexts }, 0, (rename.MaxPhys - 1) / rename.NumArch},
}

// Check validates the machine against the range table: a front door
// (CLI, service, session, engine) calls it to reject an impossible
// machine with an error that names the field, instead of letting Machine
// construction panic, allocate without bound or deadlock. PhysRegs must
// leave at least one register to rename once each context has pinned its
// architectural state.
func (c Config) Check() error {
	for _, l := range limits {
		if v := l.field(&c); v < l.lo || v > l.hi {
			return fmt.Errorf("ooo: %s %d out of range [%d, %d]", l.name, v, l.lo, l.hi)
		}
	}
	n := c.ContextCount()
	if lo := n*rename.NumArch + 1; c.PhysRegs < lo || c.PhysRegs > rename.MaxPhys {
		return fmt.Errorf("ooo: phys_regs %d out of range [%d, %d] for %d contexts",
			c.PhysRegs, lo, rename.MaxPhys, n)
	}
	return nil
}

// Stats aggregates timing results for one run.
type Stats struct {
	Cycles uint64

	Fetched    uint64 // instructions fetched (incl. wrong path and kills)
	Dispatched uint64 // entered the window (excl. eliminated saves/restores)
	WrongPath  uint64 // wrong-path instructions dispatched
	Committed  uint64 // committed original instructions (excl. kills)
	KillsSeen  uint64 // kill instructions committed (overhead, not work)
	ElimSaves  uint64 // live-stores dropped at dispatch
	ElimRests  uint64 // live-loads dropped at dispatch

	Mispredicts uint64 // correct-path branch mispredictions recovered
	Recoveries  uint64

	RenameStallCycles uint64 // dispatch blocked by an empty free list
	WindowFullCycles  uint64 // dispatch blocked by a full window
	PortStallCycles   uint64 // commit blocked waiting for a cache port

	LoadsIssued    uint64
	StoresCommit   uint64
	LoadForwarded  uint64 // store-to-load forwarding hits
	WrongPathLoads uint64

	// Register file behaviour (§4).
	MaxPhysInUse   int    // high-water mark of allocated physical registers
	EarlyReclaimed uint64 // physical registers freed by DVI kills

	// Faults counts correct-path fetches outside the text segment (wild
	// jumps, misaligned targets). The machine halts as if the program
	// ended — the historical behaviour — but the count distinguishes
	// corrupted control flow from a clean exit.
	Faults uint64

	// Shared cache hierarchy behaviour, filled at the end of a run. In a
	// multi-context machine these aggregate over all contexts: the caches
	// are shared structures, so per-context attribution is not meaningful
	// (contexts' footprints are disjoint by address-space tagging but
	// compete for the same sets).
	L1I, L1D, L2 cache.Stats

	Emu emu.Stats // architectural counts from the embedded emulator
}

// addCounters adds o's additive event counters to s: every field but
// the machine-level Cycles, MaxPhysInUse and cache and emulator stats.
func (s *Stats) addCounters(o *Stats) {
	s.Fetched += o.Fetched
	s.Dispatched += o.Dispatched
	s.WrongPath += o.WrongPath
	s.Committed += o.Committed
	s.KillsSeen += o.KillsSeen
	s.ElimSaves += o.ElimSaves
	s.ElimRests += o.ElimRests
	s.Mispredicts += o.Mispredicts
	s.Recoveries += o.Recoveries
	s.RenameStallCycles += o.RenameStallCycles
	s.WindowFullCycles += o.WindowFullCycles
	s.PortStallCycles += o.PortStallCycles
	s.LoadsIssued += o.LoadsIssued
	s.StoresCommit += o.StoresCommit
	s.LoadForwarded += o.LoadForwarded
	s.WrongPathLoads += o.WrongPathLoads
	s.EarlyReclaimed += o.EarlyReclaimed
	s.Faults += o.Faults
}

// addEmu accumulates architectural counts from one context's emulator
// into the aggregate (a single-context machine's aggregate is exactly its
// only emulator's counts).
func addEmu(dst *emu.Stats, s emu.Stats) {
	dst.Total += s.Total
	dst.Kills += s.Kills
	dst.Calls += s.Calls
	dst.Returns += s.Returns
	dst.CondBr += s.CondBr
	dst.TakenBr += s.TakenBr
	dst.Jumps += s.Jumps
	dst.MemRefs += s.MemRefs
	dst.Loads += s.Loads
	dst.Stores += s.Stores
	dst.LvmOps += s.LvmOps
	dst.ALUOps += s.ALUOps
	dst.MulDiv += s.MulDiv
	dst.SavesExec += s.SavesExec
	dst.SavesElim += s.SavesElim
	dst.RestoresExec += s.RestoresExec
	dst.RestoresElim += s.RestoresElim
	dst.Faults += s.Faults
}

// IPC returns committed original program instructions per cycle. Original
// instructions include executed and eliminated saves/restores but exclude
// E-DVI kill annotations (paper §3).
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}
