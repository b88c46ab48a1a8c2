package ooo

import (
	"testing"

	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/workload"
)

// Multi-context (SMT) machine tests: scheduler equivalence at N > 1,
// per-context accounting, fetch policies, architectural completion of
// every context, pooling across context counts, and the zero-alloc
// steady state with two contexts.

// smtConfig scales a single-context shape to n contexts, preserving its
// rename headroom: each context pins 32 physical registers, so the
// stress character of a starved-renaming shape carries over.
func smtConfig(cfg Config, n int, policy FetchPolicy) Config {
	cfg.Contexts = n
	cfg.FetchPolicy = policy
	cfg.PhysRegs = 32*n + (cfg.PhysRegs - 32)
	return cfg
}

// sumCtxStats folds the additive per-context fields into one Stats for
// comparison against the aggregate.
func sumCtxStats(ctx []Stats) Stats {
	var sum Stats
	for _, s := range ctx {
		sum.Fetched += s.Fetched
		sum.Dispatched += s.Dispatched
		sum.WrongPath += s.WrongPath
		sum.Committed += s.Committed
		sum.KillsSeen += s.KillsSeen
		sum.ElimSaves += s.ElimSaves
		sum.ElimRests += s.ElimRests
		sum.Mispredicts += s.Mispredicts
		sum.Recoveries += s.Recoveries
		sum.RenameStallCycles += s.RenameStallCycles
		sum.WindowFullCycles += s.WindowFullCycles
		sum.PortStallCycles += s.PortStallCycles
		sum.LoadsIssued += s.LoadsIssued
		sum.StoresCommit += s.StoresCommit
		sum.LoadForwarded += s.LoadForwarded
		sum.WrongPathLoads += s.WrongPathLoads
		sum.EarlyReclaimed += s.EarlyReclaimed
		sum.Faults += s.Faults
		addEmu(&sum.Emu, s.Emu)
	}
	return sum
}

// checkCtxInvariants asserts the per-context accounting contract against
// the aggregate: additive fields sum to it, shared-structure fields are
// copies of it.
func checkCtxInvariants(t *testing.T, m *Machine, agg Stats) {
	t.Helper()
	ctx := m.CtxStats()
	if len(ctx) != m.Contexts() {
		t.Fatalf("CtxStats len %d, want %d", len(ctx), m.Contexts())
	}
	sum := sumCtxStats(ctx)
	// Graft the shared fields so a single struct compare covers the rest.
	sum.Cycles = agg.Cycles
	sum.MaxPhysInUse = agg.MaxPhysInUse
	sum.L1I, sum.L1D, sum.L2 = agg.L1I, agg.L1D, agg.L2
	if sum != agg {
		t.Fatalf("per-context stats do not sum to aggregate:\n sum %+v\n agg %+v", sum, agg)
	}
	for i, s := range ctx {
		if s.Cycles != agg.Cycles || s.MaxPhysInUse != agg.MaxPhysInUse ||
			s.L1I != agg.L1I || s.L1D != agg.L1D || s.L2 != agg.L2 {
			t.Fatalf("ctx %d shared-structure fields are not aggregate copies: %+v", i, s)
		}
	}
}

// TestMultiContextSchedulerDifferential extends the scheduler-equivalence
// property to SMT machines: at 2 and 4 contexts, under both fetch
// policies, production and the polled oracle must produce bit-identical
// aggregate and per-context Stats across the fuzz programs and machine
// shapes.
func TestMultiContextSchedulerDifferential(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	cfgs := schedFuzzConfigs()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		pr := buildFuzzProgram(seed)
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("seed %d: link: %v", seed, err)
		}
		for ci, base := range cfgs {
			for _, n := range []int{2, 4} {
				for _, policy := range []FetchPolicy{FetchRoundRobin, FetchICOUNT} {
					cfg := smtConfig(base, n, policy)
					mp := New(pr, img, cfg)
					polled, err := mp.runPolled()
					if err != nil {
						t.Fatalf("seed %d cfg %d n=%d %v polled: %v", seed, ci, n, policy, err)
					}
					me := New(pr, img, cfg)
					event, err := me.Run()
					if err != nil {
						t.Fatalf("seed %d cfg %d n=%d %v event: %v", seed, ci, n, policy, err)
					}
					if polled != event {
						t.Fatalf("seed %d cfg %d n=%d %v: schedulers diverge:\npolled %+v\nevent  %+v",
							seed, ci, n, policy, polled, event)
					}
					pc, ec := mp.CtxStats(), me.CtxStats()
					for i := range pc {
						if pc[i] != ec[i] {
							t.Fatalf("seed %d cfg %d n=%d %v ctx %d: per-context stats diverge:\npolled %+v\nevent  %+v",
								seed, ci, n, policy, i, pc[i], ec[i])
						}
					}
					checkCtxInvariants(t, me, event)
				}
			}
		}
	}
}

// TestMultiContextSquashedHoleDifferential pins cells where a squashed
// SMT hole is still in the window when its completion event fires.
// Writeback must skip it, as the oracle does: recovery already freed its
// destination register, which another instruction may own by then. The
// cells come from a search of fuzz seeds against a writebackEvent without
// its squashed check; the corpus above never reaches the case.
func TestMultiContextSquashedHoleDifferential(t *testing.T) {
	for _, c := range []struct {
		seed                 int64
		shape, n, mulLatency int
	}{{46, 8, 3, 3}, {9, 10, 2, 20}} {
		pr := buildFuzzProgram(c.seed)
		img, err := pr.Link()
		if err != nil {
			t.Fatalf("seed %d: link: %v", c.seed, err)
		}
		cfg := smtConfig(schedFuzzConfigs()[c.shape], c.n, FetchRoundRobin)
		cfg.MulLatency = c.mulLatency
		polled := runScheduler(t, pr, img, cfg, schedPolled)
		event := runScheduler(t, pr, img, cfg, schedEvent)
		if polled != event {
			t.Fatalf("%+v: schedulers diverge:\npolled %+v\nevent  %+v", c, polled, event)
		}
	}
}

// TestMultiContextWorkloadDifferential covers a real benchmark binary:
// elimination fast paths, kills and cache behaviour under two contexts,
// production and the polled oracle, and both fetch policies.
func TestMultiContextWorkloadDifferential(t *testing.T) {
	w, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("unknown workload compress")
	}
	pr, img, err := workload.CompileSpec(w, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []FetchPolicy{FetchRoundRobin, FetchICOUNT} {
		cfg := smtConfig(DefaultConfig(), 2, policy)
		cfg.MaxInsts = 40_000
		polled := runScheduler(t, pr, img, cfg, schedPolled)
		event := runScheduler(t, pr, img, cfg, schedEvent)
		if polled != event {
			t.Fatalf("%v: schedulers diverge:\npolled %+v\nevent  %+v", policy, polled, event)
		}
	}
}

// TestMultiContextArchitecturalCompletion runs four contexts to
// completion and checks each executed the full program: same checksum
// and architectural instruction counts as a single-context reference,
// with the aggregate the exact sum.
func TestMultiContextArchitecturalCompletion(t *testing.T) {
	pr := fibProgram(12)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(pr, img, DefaultConfig()).Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := smtConfig(DefaultConfig(), 4, FetchRoundRobin)
	m := New(pr, img, cfg)
	agg, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * ref.Committed; agg.Committed != want {
		t.Fatalf("aggregate committed %d, want %d (4× single-context)", agg.Committed, want)
	}
	for i := 0; i < m.Contexts(); i++ {
		e := m.EmuCtx(i)
		if e.Checksum != m.EmuCtx(0).Checksum {
			t.Fatalf("ctx %d checksum %#x differs from ctx 0 %#x", i, e.Checksum, m.EmuCtx(0).Checksum)
		}
		if e.Stats != ref.Emu {
			t.Fatalf("ctx %d architectural stats differ from single-context reference:\n got %+v\nwant %+v",
				i, e.Stats, ref.Emu)
		}
	}
	checkCtxInvariants(t, m, agg)

	// Per-context elimination accounting: every context eliminated exactly
	// what the single-context machine did (homogeneous multiprogramming).
	for i, s := range m.CtxStats() {
		if s.ElimSaves != ref.ElimSaves || s.ElimRests != ref.ElimRests ||
			s.KillsSeen != ref.KillsSeen || s.EarlyReclaimed != ref.EarlyReclaimed {
			t.Fatalf("ctx %d DVI accounting differs from single-context reference:\n got elim=%d/%d kills=%d early=%d\nwant elim=%d/%d kills=%d early=%d",
				i, s.ElimSaves, s.ElimRests, s.KillsSeen, s.EarlyReclaimed,
				ref.ElimSaves, ref.ElimRests, ref.KillsSeen, ref.EarlyReclaimed)
		}
	}
}

// TestFetchPolicies pins that both arbitration policies complete the same
// architectural work (timing may differ) and that ICOUNT is exercised —
// its cycle count must be positive and its contexts all finish.
func TestFetchPolicies(t *testing.T) {
	pr := fibProgram(11)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	var committed [2]uint64
	for pi, policy := range []FetchPolicy{FetchRoundRobin, FetchICOUNT} {
		m := New(pr, img, smtConfig(DefaultConfig(), 2, policy))
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i, s := range m.CtxStats() {
			if s.Committed == 0 {
				t.Fatalf("%v: ctx %d committed nothing", policy, i)
			}
		}
		committed[pi] = st.Committed
	}
	if committed[0] != committed[1] {
		t.Fatalf("policies commit different work: rr %d, icount %d", committed[0], committed[1])
	}
}

// TestResetAcrossContextCounts pins pooling across machine shapes: a
// machine reused via Reset with a different context count produces
// exactly a fresh machine's aggregate and per-context statistics, in
// both directions (grow and shrink).
func TestResetAcrossContextCounts(t *testing.T) {
	pr := fibProgram(11)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := DefaultConfig()
	cfg4 := smtConfig(DefaultConfig(), 4, FetchICOUNT)

	fresh1, err := New(pr, img, cfg1).Run()
	if err != nil {
		t.Fatal(err)
	}
	f4 := New(pr, img, cfg4)
	fresh4, err := f4.Run()
	if err != nil {
		t.Fatal(err)
	}

	m := New(pr, img, cfg1)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.Reset(pr, img, cfg4)
	got4, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got4 != fresh4 {
		t.Fatalf("1→4 context reuse diverges:\n got %+v\nwant %+v", got4, fresh4)
	}
	want4, have4 := f4.CtxStats(), m.CtxStats()
	for i := range want4 {
		if have4[i] != want4[i] {
			t.Fatalf("1→4 context reuse: ctx %d stats diverge:\n got %+v\nwant %+v", i, have4[i], want4[i])
		}
	}

	m.Reset(pr, img, cfg1)
	got1, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got1 != fresh1 {
		t.Fatalf("4→1 context reuse diverges:\n got %+v\nwant %+v", got1, fresh1)
	}
}

// TestMultiContextTraceLabels runs a traced two-context machine and
// checks the pipeline records carry context IDs consistent with the
// per-context commit accounting.
func TestMultiContextTraceLabels(t *testing.T) {
	pr := fibProgram(10)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	cfg := smtConfig(DefaultConfig(), 2, FetchRoundRobin)
	buf := obs.NewPipeBuffer(0)
	cfg.Trace = buf
	m := New(pr, img, cfg)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var committedInst, elim [2]uint64
	for _, r := range buf.Records() {
		if int(r.Ctx) >= m.Contexts() {
			t.Fatalf("record with out-of-range ctx %d", r.Ctx)
		}
		if r.Squash == obs.SquashNone {
			switch r.Kind {
			case obs.KindInst:
				committedInst[r.Ctx]++
			case obs.KindElimSave, obs.KindElimRestore:
				elim[r.Ctx]++
			}
		}
	}
	for i, s := range m.CtxStats() {
		if wantElim := s.ElimSaves + s.ElimRests; elim[i] != wantElim {
			t.Fatalf("ctx %d: %d eliminated-record traces, want %d", i, elim[i], wantElim)
		}
		// KindInst commits are the committed count minus the
		// decode-eliminated instructions (traced as elim records; kill
		// annotations never enter the window and are KindKill records).
		if want := s.Committed - s.ElimSaves - s.ElimRests; committedInst[i] != want {
			t.Fatalf("ctx %d: %d committed-instruction traces, want %d", i, committedInst[i], want)
		}
	}
	if committedInst[0] == 0 || committedInst[1] == 0 {
		t.Fatal("expected committed traces from both contexts")
	}
}

// TestMultiContextSteadyStateZeroAlloc extends the 0 allocs/op invariant,
// traced and untraced, to a two-context machine: the per-context
// structures (fetch queues, emulators, RAS) must all reuse their storage
// across Reset.
func TestMultiContextSteadyStateZeroAlloc(t *testing.T) {
	pr := fibProgram(12)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	t.Run(schedEvent.name, func(t *testing.T) {
		checkSteadyStateZeroAlloc(t, pr, img, smtConfig(DefaultConfig(), 2, FetchICOUNT))
	})
}

// TestContextsRunAllSchemes runs a 2-context machine under every
// elimination scheme against per-scheme single-context references: the
// per-context architectural and elimination counts must match the
// reference exactly.
func TestContextsRunAllSchemes(t *testing.T) {
	pr := fibProgram(12)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []emu.Scheme{emu.ElimOff, emu.ElimLVM, emu.ElimLVMStack} {
		base := DefaultConfig()
		base.Emu.Scheme = scheme
		ref, err := New(pr, img, base).Run()
		if err != nil {
			t.Fatalf("scheme %v ref: %v", scheme, err)
		}
		m := New(pr, img, smtConfig(base, 2, FetchRoundRobin))
		agg, err := m.Run()
		if err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
		checkCtxInvariants(t, m, agg)
		for i, s := range m.CtxStats() {
			if s.Emu != ref.Emu || s.ElimSaves != ref.ElimSaves || s.ElimRests != ref.ElimRests {
				t.Fatalf("scheme %v ctx %d diverges from single-context reference", scheme, i)
			}
		}
	}
}

// TestContextsExceedL1IAssoc pins the in-flight-fill regression: with more
// contexts than L1I ways, every context's entry PC aliases into the same
// I-cache set (the context tag sits above the index bits), and without the
// fill forward a completed miss re-probes, finds its line evicted by the
// other contexts' fills, and stalls again — fetch livelocks at zero
// instructions. Eight contexts on the default 4-way L1I must still finish
// with every context committing.
func TestContextsExceedL1IAssoc(t *testing.T) {
	pr := fibProgram(10)
	img, err := pr.Link()
	if err != nil {
		t.Fatal(err)
	}
	if assoc := DefaultConfig().Hierarchy.L1I.Assoc; assoc >= 8 {
		t.Fatalf("default L1I associativity %d no longer below 8; pick a larger context count", assoc)
	}
	for _, sched := range schedulers {
		m := New(pr, img, smtConfig(DefaultConfig(), 8, FetchRoundRobin))
		agg, err := sched.run(m)
		if err != nil {
			t.Fatalf("%s: %v", sched.name, err)
		}
		for i, s := range m.CtxStats() {
			if s.Committed == 0 {
				t.Fatalf("%s: ctx %d committed nothing (fetch livelock)", sched.name, i)
			}
		}
		checkCtxInvariants(t, m, agg)
	}
}

// TestCheckContexts covers the front-door validation.
func TestCheckContexts(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Check(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	cfg.Contexts = -1
	if err := cfg.Check(); err == nil {
		t.Fatal("negative contexts accepted")
	}
	cfg.Contexts = 4 // 4*32+1 = 129 > default 96 registers
	if err := cfg.Check(); err == nil {
		t.Fatal("4 contexts on 96 registers accepted")
	}
	cfg.PhysRegs = 192
	if err := cfg.Check(); err != nil {
		t.Fatalf("4 contexts on 192 registers rejected: %v", err)
	}
}
