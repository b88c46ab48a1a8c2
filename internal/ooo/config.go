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
	// PhysRegs must be at least Contexts*32+1 (CheckContexts).
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

// CheckContexts validates the context configuration: a front door (CLI,
// service, session) calls it to reject impossible machines with an error
// instead of letting Machine construction panic. Each context pins 32
// physical registers for its architectural state, so PhysRegs must leave
// at least one register to rename.
func (c Config) CheckContexts() error {
	if c.Contexts < 0 {
		return fmt.Errorf("ooo: contexts %d < 0", c.Contexts)
	}
	n := c.ContextCount()
	if need := n*rename.NumArch + 1; c.PhysRegs < need {
		return fmt.Errorf("ooo: %d contexts need at least %d physical registers, have %d",
			n, need, c.PhysRegs)
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
