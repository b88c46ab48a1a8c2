package ooo

import "dvi/internal/obs"

// Pipeline tracing (Config.Trace). The machine stamps fetch/dispatch/
// issue cycles unconditionally — a handful of integer stores per
// instruction — and builds trace records only behind a `m.trace != nil`
// guard, at the points where an instruction leaves the machine: commit,
// misprediction squash, fetch-queue flush, decode-time elimination, and
// the end-of-run drain. Records are written into the reusable traceRec
// and passed by pointer, so a warm sink (obs.PipeBuffer with grown
// capacity) keeps the zero-allocation steady state. Every record carries
// its hardware context ID, so the renderers can lay multi-context
// pipelines out in per-context lanes.

// emitRob records a window entry leaving the machine at the current
// cycle — by commit (cause SquashNone) or by squash/drain.
func (m *Machine) emitRob(e *robEntry, cause obs.SquashCause) {
	complete := uint64(0)
	if e.st == stDone {
		complete = e.doneCycle
	}
	m.traceRec = obs.PipeRecord{
		ID:        e.traceID,
		PC:        e.pc,
		Inst:      *e.inst,
		Ctx:       e.ctx,
		Fetch:     e.fetchCycle,
		Dispatch:  e.dispatchCycle,
		Issue:     e.issueCycle,
		Complete:  complete,
		Retire:    m.cycle,
		Kind:      obs.KindInst,
		Squash:    cause,
		WrongPath: e.wrongPath,
	}
	m.trace.Emit(&m.traceRec)
}

// emitDecode records an instruction disposed of before entering the
// window: eliminated saves/restores, kill annotations, and fetch-queue
// flushes/drains.
func (m *Machine) emitDecode(rec *fetchRec, ctx uint8, kind obs.PipeKind, cause obs.SquashCause, wrongPath bool, victims uint8) {
	m.traceRec = obs.PipeRecord{
		ID:        rec.traceID,
		PC:        rec.pc,
		Inst:      *rec.inst,
		Ctx:       ctx,
		Fetch:     rec.fetchCycle,
		Retire:    m.cycle,
		Kind:      kind,
		Squash:    cause,
		WrongPath: wrongPath,
		Victims:   victims,
	}
	m.trace.Emit(&m.traceRec)
}

// drainTrace records everything still in flight when the run ends (the
// instruction-budget cutoff leaves a populated window and fetch queues).
// Squashed holes were already recorded when their recovery marked them.
func (m *Machine) drainTrace() {
	for i := 0; i < m.robLen; i++ {
		e := m.robAt(i)
		if e.squashed {
			continue
		}
		m.emitRob(e, obs.SquashDrain)
	}
	for ci := range m.ctxs {
		c := &m.ctxs[ci]
		for i := 0; i < c.ifqLen; i++ {
			m.emitDecode(c.ifqAt(i), c.id, obs.KindInst, obs.SquashDrain, c.pendingMisp, 0)
		}
	}
}
