package ooo

import (
	"fmt"

	"dvi/internal/isa"
)

// This file is the polled scheduler: the original sim-outorder-style
// issue and writeback stages, which rescan the whole window every cycle
// and walk older entries to detect store-to-load conflicts. Production
// runs only the event-driven stages (sched.go); the polled ones are the
// reference the differential tests hold them to, on every Stats field
// (sched_test.go, smt_test.go, golden_test.go's /polled keys) and every
// pipeline-trace record (trace_test.go). Dispatch and recovery keep the
// event structures up to date under either stage pair; the polled stages
// never read them, so that bookkeeping cannot perturb the oracle.

// runPolled is Run with the polled stages.
func (m *Machine) runPolled() (Stats, error) {
	idleCycles := 0
	lastCommitted := uint64(0)
	for !m.done() {
		m.stepPolled()
		if n := m.committed(); n == lastCommitted {
			idleCycles++
			if idleCycles > 100000 {
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

// stepPolled is step with the polled stages.
func (m *Machine) stepPolled() {
	m.cycle++
	m.Stats.Cycles++
	m.aluUsed, m.mdUsed, m.portUsed, m.issued = 0, 0, 0, 0

	m.commit()
	m.writebackPolled()
	m.issuePolled()
	m.dispatch()
	m.fetch()

	if used := m.rt.InUse(); used > m.Stats.MaxPhysInUse {
		m.Stats.MaxPhysInUse = used
	}
}

// --- issue (polled scheduler) ---

// olderStoreConflict scans entries older than index i for live stores
// whose (8-byte aligned) address overlaps addr. It returns the youngest
// match. Context-tagged addresses keep contexts' separate address spaces
// from aliasing; squashed holes are skipped (their register references
// are stale).
func (m *Machine) olderStoreConflict(i int, addr uint64) (conflict, dataReady bool) {
	a := addr &^ 7
	for j := i - 1; j >= 0; j-- {
		o := m.robAt(j)
		if !o.isStore || o.squashed {
			continue
		}
		if o.addr&^7 == a {
			return true, m.srcsReady(o)
		}
	}
	return false, false
}

func (m *Machine) issuePolled() {
	for i := 0; i < m.robLen && m.issued < m.cfg.IssueWidth; i++ {
		e := m.robAt(i)
		if e.squashed || e.st != stDispatched || !m.srcsReady(e) {
			continue
		}
		cls := e.class
		switch cls {
		case isa.ClassStore:
			// Stores complete when operands are ready (the cache access
			// happens at commit, sim-outorder behaviour) but still consume
			// an issue slot for address generation.
			m.issued++
			e.st = stDone
			e.issueCycle = m.cycle
			e.doneCycle = m.cycle
			continue
		case isa.ClassLoad:
			if e.wrongPath {
				if m.portUsed >= m.cfg.CachePorts {
					continue
				}
				m.portUsed++
				m.issued++
				m.ctxs[e.ctx].stats.WrongPathLoads++
				e.st = stIssued
				e.issueCycle = m.cycle
				e.doneCycle = m.cycle + uint64(m.cfg.Hierarchy.L1D.HitLatency)
				continue
			}
			conflict, dataReady := m.olderStoreConflict(i, e.addr)
			if conflict {
				if !dataReady {
					continue // wait for the producing store's data
				}
				// Store-to-load forwarding: one cycle, no cache port.
				m.issued++
				m.ctxs[e.ctx].stats.LoadForwarded++
				e.st = stIssued
				e.issueCycle = m.cycle
				e.doneCycle = m.cycle + 1
				continue
			}
			if m.portUsed >= m.cfg.CachePorts {
				continue
			}
			m.portUsed++
			m.issued++
			m.ctxs[e.ctx].stats.LoadsIssued++
			lat := m.hier.L1D.Access(e.addr, false)
			e.st = stIssued
			e.issueCycle = m.cycle
			e.doneCycle = m.cycle + uint64(lat)
			continue
		case isa.ClassIntMul, isa.ClassIntDiv:
			if m.mdUsed >= m.cfg.IntMulDiv {
				continue
			}
			m.mdUsed++
			m.issued++
			e.st = stIssued
			e.issueCycle = m.cycle
			if cls == isa.ClassIntMul {
				e.doneCycle = m.cycle + uint64(m.cfg.MulLatency)
			} else {
				e.doneCycle = m.cycle + uint64(m.cfg.DivLatency)
			}
			continue
		default: // ALU, branches, jumps
			if m.aluUsed >= m.cfg.IntALUs {
				continue
			}
			m.aluUsed++
			m.issued++
			e.st = stIssued
			e.issueCycle = m.cycle
			e.doneCycle = m.cycle + uint64(e.lat)
		}
	}
}

// --- writeback (polled scheduler) ---

func (m *Machine) writebackPolled() {
	for i := 0; i < m.robLen; i++ {
		e := m.robAt(i)
		if e.squashed || e.st != stIssued || e.doneCycle > m.cycle {
			continue
		}
		e.st = stDone
		if e.hasDest {
			m.rt.SetReady(e.destPhys)
		}
		if e.isCtl && !e.wrongPath {
			m.resolveControl(e, i)
			// On a mispredict, recovery marked the context's younger
			// entries squashed (skipped above) and popped the squashed
			// suffix (robLen shrank, ending the scan at Contexts=1);
			// other contexts' younger entries still complete this cycle.
		}
	}
}
