package session

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"dvi/internal/bpred"
	"dvi/internal/cache"
	"dvi/internal/emu"
	"dvi/internal/mem"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// WithSampling switches Simulate (and jobs routed through CollectSampled)
// from exact detailed simulation to statistical sampling: one fast
// functional pass captures checkpoints, the selected intervals are
// simulated in detail as parallel jobs, and the result is an estimate
// with a confidence interval. interval and warmup are in original
// instructions (0 picks the package defaults); targetCI, when positive,
// makes the sampler densify the measured set — halving the selection
// period round by round — until the estimate's relative CI half-width
// reaches the target.
func WithSampling(interval, warmup uint64, targetCI float64) RunOption {
	return WithSamplingOptions(sample.Options{
		Interval: interval,
		Warmup:   warmup,
		TargetCI: targetCI,
	})
}

// WithSamplingOptions is WithSampling with full control of the plan
// (period, seed).
func WithSamplingOptions(opt sample.Options) RunOption {
	return func(rs *runSettings) { rs.sampling = &opt }
}

// SimulateSampled runs a workload through the statistical sampler and
// returns the full estimate (Simulate with WithSampling returns only the
// rendered machine stats). Sampling options come from WithSampling /
// WithSamplingOptions, or the defaults when absent. The machine must pass
// sample.CheckMachine: ooo.Config.Check, one context (a checkpoint
// restores one architectural state) and no trace sink.
func (s *Session) SimulateSampled(ctx context.Context, w workload.Spec, opts ...RunOption) (sample.Estimate, error) {
	rs := resolve(opts)
	cfg := rs.machineConfig()
	if err := sample.CheckMachine(cfg); err != nil {
		return sample.Estimate{}, err
	}
	so := sample.Options{}
	if rs.sampling != nil {
		so = *rs.sampling
	}
	out, err := s.sampleGroup(ctx, []Job{{
		Label:    rs.label,
		Workload: w,
		Scale:    rs.scale,
		Build:    rs.buildOptions(cfg.Emu.DVI.Level),
		Kind:     runner.Timing,
		Machine:  cfg,
	}}, so)
	if err != nil {
		return sample.Estimate{}, err
	}
	return *out[0].Sampled, nil
}

// CollectSampled is Collect with every single-context Timing job routed
// through the statistical sampler under so: each such result carries the
// estimate on Result.Sampled and the estimate rendered as machine stats
// on Result.Timing, so figure renderers consume it unchanged. The other
// jobs (functional, ctx-switch, build, and multi-context timing, since a
// checkpoint restores one architectural state) run exactly as in
// Collect, as one batch after the sampled ones. Results are in
// submission order; the first failure aborts everything. A sampled job
// whose machine fails sample.CheckMachine (ooo.Config.Check, or a trace
// sink) fails the call, naming the job, before any build or scan.
//
// Sampled jobs run in scan groups (see package sample): jobs with equal
// scan keys — the same binary, emulator, cache hierarchy, predictor and
// instruction cap — share one functional scan per round, and the
// interval jobs of all a group's members run as one batch on the whole
// worker pool. Groups run one at a time, in order of first appearance,
// so only one group's checkpoints are alive at a time. Each estimate is
// the one the job gets alone.
func (s *Session) CollectSampled(ctx context.Context, jobs []Job, so sample.Options) ([]Result, error) {
	var (
		groups   [][]int // job indices per scan key
		byKey    = map[scanKey]int{}
		exact    []Job
		exactIdx []int
	)
	for i, j := range jobs {
		if j.Kind != runner.Timing || j.Machine.ContextCount() != 1 {
			exact = append(exact, j)
			exactIdx = append(exactIdx, i)
			continue
		}
		if err := sample.CheckMachine(j.Machine); err != nil {
			return nil, fmt.Errorf("%s: %w", sampleLabel(j), err)
		}
		k := scanKeyOf(j)
		g, ok := byKey[k]
		if !ok {
			g = len(groups)
			byKey[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	results := make([]Result, len(jobs))
	for _, idx := range groups {
		group := make([]Job, len(idx))
		for k, i := range idx {
			group[k] = jobs[i]
		}
		out, err := s.sampleGroup(ctx, group, so)
		if err != nil {
			return nil, err
		}
		for k, i := range idx {
			out[k].Index = i
			results[i] = out[k]
		}
	}
	out, err := s.eng.Run(ctx, exact)
	if err != nil {
		return nil, err
	}
	for k, res := range out {
		res.Index = exactIdx[k]
		results[exactIdx[k]] = res
	}
	return results, nil
}

// scanKey is everything a functional scan reads (sample.Scanner.Scan):
// the binary, the emulator configuration, the cache hierarchy and
// predictor it warms, and the instruction cap. Timing jobs with equal
// keys differ only in fields the scan never reads, so one scan serves
// them all. TestScanKeyPartitionsConfig sorts every ooo.Config field
// into the key or out of it.
type scanKey struct {
	build    workload.BuildKey
	emu      emu.Config
	hier     cache.HierarchyConfig
	pred     bpred.Config
	maxInsts uint64
}

func scanKeyOf(j Job) scanKey {
	return scanKey{
		build:    j.Workload.Key(j.Scale, j.Build),
		emu:      j.Machine.Emu,
		hier:     j.Machine.Hierarchy,
		pred:     j.Machine.Pred,
		maxInsts: j.Machine.MaxInsts,
	}
}

// sampleLabel names a sampled job in errors and in its interval jobs'
// labels.
func sampleLabel(j Job) string {
	if j.Label != "" {
		return j.Label
	}
	return fmt.Sprintf("sampled %s", j.Workload.Key(j.Scale, j.Build))
}

// maxSampleRounds bounds adaptive densification: starting from the
// default period 8, five halvings reach period 1 (a full census), so more
// rounds can never add coverage.
const maxSampleRounds = 5

// sampleGroup runs Timing jobs that share one scan key through the
// sampler and returns their results in order; each mirrors an exact
// Timing result (Timing = the estimate rendered as machine stats) and
// carries the estimate on Sampled. A member whose plan the store holds
// is answered from it. The others share one functional scan per round;
// their interval jobs run as one batch on the engine's pool, and each
// member aggregates its own measurements in interval order. A member
// short of its target (TargetCI, else two measured intervals) goes on to
// a round at half the period. The members that go on have measured the
// same intervals under the same period, so one scan serves them again,
// and every estimate equals the member's run alone.
//
// Each register-file class's leader (see package sample), the member
// with the class's largest file, submits its interval jobs first, and
// the followers follow from the smallest file up: those the leader's
// run can answer (sample.Checkpoint.Answer) start last, when it has
// most likely finished. No job waits for another: a follower that
// starts before its leader finishes simulates, and gets the same
// result.
func (s *Session) sampleGroup(ctx context.Context, group []Job, so sample.Options) ([]Result, error) {
	key := scanKeyOf(group[0])
	label := sampleLabel(group[0])
	ctx, span := obs.StartSpan(ctx, "sample")
	if span != nil {
		span.SetAttr("label", label)
		span.SetAttr("jobs", len(group))
		defer span.End()
	}

	bctx, bspan := obs.StartSpan(ctx, "build")
	pr, img, err := s.eng.Cache().Get(bctx, group[0].Workload, group[0].Scale, group[0].Build)
	bspan.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	opt := so
	opt.MaxInsts = key.maxInsts
	opt = opt.WithDefaults()

	results := make([]Result, len(group))
	finish := func(i int, est sample.Estimate) {
		results[i] = Result{Job: group[i], Program: pr, Image: img, Timing: est.Stats, Sampled: &est}
	}

	// member is a job still being measured.
	type member struct {
		i        int
		label    string
		machine  ooo.Config // the job's machine, uncapped for intervals
		planKey  string
		planOK   bool
		measured map[int]sample.IntervalResult
	}
	st := s.eng.Store()
	var open []*member
	for i, j := range group {
		m := &member{i: i, label: sampleLabel(j), machine: j.Machine, measured: map[int]sample.IntervalResult{}}
		// A persisted measured set for this exact plan reproduces the
		// estimate bit-identically through the deterministic aggregation
		// fold — no scan, no interval simulation.
		m.planKey, m.planOK = s.samplePlanKey(j, opt)
		if st != nil && m.planOK {
			if payload, ok := st.Get(store.SampledKind, m.planKey); ok {
				if est, err := decodeSampledRecord(payload, opt); err == nil {
					finish(i, est)
					continue
				}
				// Undecodable despite a good checksum (version drift):
				// fall through and re-measure.
			}
		}
		// Interval jobs must never truncate: RunUntil drives the measured
		// region; the whole-program cap already shaped the scan.
		m.machine.MaxInsts = 0
		open = append(open, m)
	}
	if span != nil {
		span.SetAttr("store_hits", len(group)-len(open))
	}
	if len(open) == 0 {
		return results, nil
	}

	// The pristine loaded image: the baseline every checkpoint's memory
	// delta is taken against, matching the state Machine.Reset leaves a
	// pooled machine's memory in.
	base := mem.New()
	img.LoadInto(base, pr.Data)
	scanner := sample.NewScanner()
	done := map[int]bool{} // intervals every open member has measured
	period := opt.Period
	for round := 0; len(open) > 0; round++ {
		_, sspan := obs.StartSpan(ctx, "scan")
		em := s.eng.AcquireEmulator(pr, img, key.emu)
		scan := scanner.Scan(em, base, key.hier, key.pred, opt, func(idx int) bool {
			return !done[idx] && sample.Selected(idx, period, opt.Seed)
		}, s.eng.AcquireCheckpoint)
		s.eng.ReleaseEmulator(em)
		if sspan != nil {
			sspan.SetAttr("round", round)
			sspan.SetAttr("checkpoints", len(scan.Checkpoints))
			sspan.End()
		}

		// Every open member simulates every checkpoint; interval jobs
		// only read the checkpoints they share. Class leaders submit
		// first, then the followers from the smallest file up.
		leaders := map[ooo.Config]*member{}
		for _, m := range open {
			k := sample.Class(m.machine)
			if l := leaders[k]; l == nil || m.machine.PhysRegs > l.machine.PhysRegs {
				leaders[k] = m
			}
		}
		rank := func(m *member) int {
			if leaders[sample.Class(m.machine)] == m {
				return 0
			}
			return m.machine.PhysRegs
		}
		slices.SortStableFunc(open, func(a, b *member) int { return cmp.Compare(rank(a), rank(b)) })
		var (
			ivJobs []Job
			owners []*member
		)
		for _, m := range open {
			j := group[m.i]
			for _, ck := range scan.Checkpoints {
				if ck.MeasureLen == 0 {
					continue
				}
				ivJobs = append(ivJobs, Job{
					Label:    fmt.Sprintf("%s interval %d", m.label, ck.Index),
					Workload: j.Workload,
					Scale:    j.Scale,
					Build:    j.Build,
					Kind:     runner.SampledInterval,
					Machine:  m.machine,
					Sample:   ck,
				})
				owners = append(owners, m)
			}
		}
		out, err := s.eng.Run(ctx, ivJobs)
		// Run has returned, so no job still reads a checkpoint.
		for _, ck := range scan.Checkpoints {
			if ck.MeasureLen > 0 {
				done[ck.Index] = true
			}
			s.eng.ReleaseCheckpoint(ck)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		for k, r := range out {
			owners[k].measured[r.Interval.Index] = r.Interval
		}
		idxs := make([]int, 0, len(done))
		for idx := range done {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)

		// Aggregate in interval order — a deterministic fold at any
		// worker count.
		short := open[:0]
		for _, m := range open {
			ordered := make([]sample.IntervalResult, len(idxs))
			for k, idx := range idxs {
				ordered[k] = m.measured[idx]
			}
			_, aspan := obs.StartSpan(ctx, "aggregate")
			est, err := sample.Aggregate(scan, ordered, opt)
			aspan.End()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.label, err)
			}
			enough := est.Measured >= 2
			if opt.TargetCI > 0 {
				enough = est.RelCI <= opt.TargetCI
			}
			if !enough && est.Measured < scan.Intervals && period > 1 && round < maxSampleRounds {
				short = append(short, m)
				continue
			}
			if st != nil && m.planOK {
				if payload, err := encodeSampledRecord(scan, ordered); err == nil {
					// Best-effort durability; the store counts its own errors.
					_ = st.Put(store.SampledKind, m.planKey, payload)
				}
			}
			finish(m.i, est)
		}
		open = short
		period /= 2
	}
	return results, nil
}
