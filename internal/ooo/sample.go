package ooo

import (
	"fmt"

	"dvi/internal/bpred"
	"dvi/internal/cache"
	"dvi/internal/emu"
)

// WarmState bundles the functionally-warmed microarchitectural state a
// sampled-simulation checkpoint carries alongside the architectural
// snapshot: the cache hierarchy, the direction predictor, the branch
// target buffer and the return address stack. The sampler fills it from
// structures it warms during the functional fast-forward pass; Boot
// transplants it into a pooled machine so a detailed interval does not
// start from cold caches.
type WarmState struct {
	Hier cache.HierarchySnapshot
	Pred bpred.PredictorSnapshot
	BTB  bpred.BTBSnapshot
	RAS  bpred.RASSnapshot
}

// Boot positions a freshly Reset machine at a checkpointed mid-program
// point: the embedded emulator's architectural state is restored from
// arch (the machine's memory must still be the pristine loaded image
// Reset left it with — arch carries a page delta against that baseline),
// the warm microarchitectural state is transplanted, and fetch is
// redirected to the restored PC. The pipeline itself starts empty; the
// sampler's detailed warmup run absorbs the fill transient.
//
// Sampling is a single-context protocol: a checkpoint captures one
// program's architectural state and the sampler's interval accounting
// assumes one committed-instruction stream, so Boot rejects a
// multi-context machine (the front doors validate the combination and
// return an error before any machine is built).
func (m *Machine) Boot(arch *emu.Snapshot, warm *WarmState) {
	if m.cycle != 0 {
		panic("ooo: Boot on a machine that already ran; Reset first")
	}
	if len(m.ctxs) != 1 {
		panic("ooo: Boot on a multi-context machine; sampling is single-context")
	}
	c := &m.ctxs[0]
	c.emu.RestoreSnapshot(arch)
	if warm != nil {
		m.hier.Restore(&warm.Hier)
		m.pred.Restore(&warm.Pred)
		m.btb.Restore(&warm.BTB)
		c.ras.Restore(warm.RAS)
		c.hist = m.pred.History()
	}
	c.fetchPC = c.emu.PC
	if c.emu.Halted {
		c.dispatchHalted = true
	}
}

// RunUntil simulates until the committed original-instruction count
// reaches target or the program halts, and returns the statistics so
// far. Unlike Run it ignores the configured MaxInsts: the sampler calls
// it twice per interval — once to the end of the detailed warmup, once to
// the end of the measured region — and differences the two Stats. The
// machine stays in a resumable state between calls. Single-context only
// (the machine was positioned by Boot).
func (m *Machine) RunUntil(target uint64) (Stats, error) {
	c := &m.ctxs[0]
	idleCycles := 0
	lastCommitted := m.committed()
	for !(c.dispatchHalted && m.robLen == 0) && m.committed() < target {
		m.step()
		if n := m.committed(); n == lastCommitted {
			idleCycles++
			if idleCycles > 100000 {
				m.sumContexts()
				return m.Stats, fmt.Errorf("%w at cycle %d (pc %#x, rob %d, free %d)",
					ErrDeadlock, m.cycle, c.fetchPC, m.robLen, m.rt.FreeCount())
			}
		} else {
			idleCycles = 0
			lastCommitted = n
		}
	}
	m.sumContexts()
	m.Stats.Emu = c.emu.Stats
	return m.Stats, nil
}
