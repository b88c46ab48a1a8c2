package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"dvi/internal/core"
	"dvi/internal/ctxswitch"
	"dvi/internal/emu"
	"dvi/internal/isa"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/prog"
	"dvi/internal/rewrite"
	"dvi/internal/runner"
	"dvi/internal/sample"
	"dvi/internal/session"
	"dvi/internal/workload"
)

// This file is the service's single execution path. Every request —
// the versioned /v2/jobs batch endpoint and the /v1 one-shot shims —
// goes through the same three stages:
//
//	prepare:  validate the wire request and freeze it into a preparedJob
//	execute:  run it on the shared session (engine pool + build cache)
//	render:   shape the runner result into the wire response
//
// The /v1 endpoints submit a one-job batch through exactly this path, so
// their response bytes are pinned by construction to what /v2 produces
// for the same job (service_test.go's golden test verifies both against
// the library).

// errDeliveryClosed cancels the engine batch when the /v2/jobs delivery
// loop has stopped consuming (the response stream broke).
var errDeliveryClosed = errors.New("service: /v2/jobs delivery closed")

// httpError is a wire-facing failure: an HTTP status plus the exact
// message the JSON error body carries.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// errf builds an httpError with a formatted message.
func errf(code int, format string, args ...any) *httpError {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// preparedJob is one validated, ready-to-run unit of work. Engine-backed
// kinds (exact simulate, ctxswitch) carry a runner job plus a render
// hook; the rest carry a self-contained inline thunk that fills its
// result line directly. Annotate is inline because the binary rewriter
// mutates its program and therefore works on private builds outside the
// shared cache; sampled simulate is inline because the sampler is its
// own orchestration — it fans interval jobs out across the engine's
// worker pool itself.
type preparedJob struct {
	kind   string
	job    runner.Job
	render func(runner.Result, *JobResult)
	inline func(context.Context, *JobResult) *httpError
}

// engineBacked reports whether the job executes on the session's engine.
func (pj *preparedJob) engineBacked() bool { return pj.inline == nil }

// prepareJob validates one /v2 batch entry.
func (s *Server) prepareJob(jr JobRequest) (*preparedJob, *httpError) {
	payloads := 0
	for _, set := range []bool{jr.Simulate != nil, jr.CtxSwitch != nil, jr.Annotate != nil} {
		if set {
			payloads++
		}
	}
	if payloads != 1 {
		return nil, errf(http.StatusBadRequest,
			"exactly one of simulate, ctxswitch or annotate must be set (got %d)", payloads)
	}
	switch jr.Kind {
	case "simulate":
		if jr.Simulate == nil {
			return nil, errf(http.StatusBadRequest, "kind %q needs a simulate payload", jr.Kind)
		}
		return s.prepareSimulate(jr.Simulate)
	case "ctxswitch":
		if jr.CtxSwitch == nil {
			return nil, errf(http.StatusBadRequest, "kind %q needs a ctxswitch payload", jr.Kind)
		}
		return s.prepareCtxSwitch(jr.CtxSwitch)
	case "annotate":
		if jr.Annotate == nil {
			return nil, errf(http.StatusBadRequest, "kind %q needs an annotate payload", jr.Kind)
		}
		return s.prepareAnnotate(jr.Annotate)
	}
	return nil, errf(http.StatusBadRequest,
		"unknown job kind %q (want simulate, ctxswitch or annotate)", jr.Kind)
}

// simSource is the validated (source, flavour, emulator-config) triple
// shared by timing and context-switch requests — one place derives the
// binary flavour for both, so the rule cannot drift between kinds.
type simSource struct {
	spec  workload.Spec
	scale int
	bopt  workload.BuildOptions
	ecfg  emu.Config
}

// resolveSimSource validates the knobs every simulation-class request
// carries (source, dvi_level, scheme, policy, edvi, infer) in the wire
// format's canonical order, and derives the binary flavour through the
// session layer's central E-DVI rule: annotated binaries iff the DVI
// level is full, client assembly runs as written, an explicit edvi field
// wins. The infer flag swaps the annotation engine for the
// interprocedural inference pass; it needs no compiler hints, so it
// applies to submitted assembly too — and like E-DVI it is effective
// only when the hardware honours explicit annotations (level full).
func (s *Server) resolveSimSource(wl, asm string, reqScale int, dviLevel, scheme, policy string, edvi *bool, infer bool) (simSource, *httpError) {
	spec, scale, err := s.resolveSource(wl, asm, reqScale)
	if err != nil {
		return simSource{}, errf(http.StatusBadRequest, "%v", err)
	}
	level, err := parseLevel(dviLevel)
	if err != nil {
		return simSource{}, errf(http.StatusBadRequest, "%v", err)
	}
	sch, err := parseScheme(scheme)
	if err != nil {
		return simSource{}, errf(http.StatusBadRequest, "%v", err)
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return simSource{}, errf(http.StatusBadRequest, "%v", err)
	}
	bopt := session.BuildOptionsFor(level)
	bopt.Policy = pol
	if asm != "" {
		// Submitted assembly runs exactly as written unless the client
		// asks the daemon to annotate it.
		bopt.EDVI = false
	}
	if edvi != nil {
		bopt.EDVI = *edvi
	}
	if infer && level == core.Full {
		bopt.Infer = true
		bopt.EDVI = false
	}
	return simSource{spec: spec, scale: scale, bopt: bopt, ecfg: session.EmuConfigFor(level, sch)}, nil
}

// renderTrace shapes a finished run's pipeline buffer into the wire
// summary.
func renderTrace(buf *obs.PipeBuffer, format string) (*TraceSummary, error) {
	ts := &TraceSummary{
		Format:  format,
		Records: buf.Len(),
		Dropped: buf.Dropped(),
	}
	if format == "konata" {
		var sb strings.Builder
		if err := obs.WriteKonata(&sb, buf.Records()); err != nil {
			return nil, err
		}
		ts.Konata = sb.String()
		return ts, nil
	}
	ts.Events = obs.ChromeTraceEvents(buf.Records())
	return ts, nil
}

// prepareSimulate validates a timing-simulation request and freezes it
// into an engine job.
func (s *Server) prepareSimulate(req *SimulateRequest) (*preparedJob, *httpError) {
	src, herr := s.resolveSimSource(req.Workload, req.Asm, req.Scale, req.DVILevel, req.Scheme, req.Policy, req.EDVI, req.Infer)
	if herr != nil {
		return nil, herr
	}
	spec, scale, bopt := src.spec, src.scale, src.bopt

	cfg := ooo.DefaultConfig()
	cfg.Emu = src.ecfg
	req.Machine.apply(&cfg)
	cfg.MaxInsts = s.clampInsts(req.MaxInsts)

	if req.Contexts > s.cfg.MaxContexts {
		return nil, errf(http.StatusBadRequest,
			"contexts %d exceeds the %d-context limit", req.Contexts, s.cfg.MaxContexts)
	}
	fp, err := parseFetchPolicy(req.FetchPolicy)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	cfg.Contexts = req.Contexts
	cfg.FetchPolicy = fp
	if err := cfg.Check(); err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	if cfg.ContextCount() > 1 && req.Sampling != nil {
		return nil, errf(http.StatusBadRequest,
			"sampling is single-context (contexts=%d): checkpoints restore one architectural state", req.Contexts)
	}

	var traceBuf *obs.PipeBuffer
	traceFormat := ""
	if req.Trace != nil {
		if req.Sampling != nil {
			return nil, errf(http.StatusBadRequest, "%v", sample.ErrTraced)
		}
		switch req.Trace.Format {
		case "", "chrome":
			traceFormat = "chrome"
		case "konata":
			traceFormat = "konata"
		default:
			return nil, errf(http.StatusBadRequest,
				"unknown trace format %q (want chrome or konata)", req.Trace.Format)
		}
		limit := req.Trace.MaxRecords
		if limit <= 0 {
			limit = defaultTraceRecords
		}
		if limit > s.cfg.MaxTraceRecords {
			limit = s.cfg.MaxTraceRecords
		}
		traceBuf = obs.NewPipeBuffer(limit)
		cfg.Trace = traceBuf
	}

	key := spec.Key(scale, bopt).String()
	job := runner.Job{
		Label:    "simulate " + key,
		Workload: spec,
		Scale:    scale,
		Build:    bopt,
		Kind:     runner.Timing,
		Machine:  cfg,
	}
	if req.Sampling != nil {
		so := sample.Options{
			Interval: req.Sampling.Interval,
			Warmup:   req.Sampling.Warmup,
			TargetCI: req.Sampling.TargetCI,
		}
		return &preparedJob{
			kind: "simulate",
			inline: func(ctx context.Context, line *JobResult) *httpError {
				out, err := s.sess.CollectSampled(ctx, []runner.Job{job}, so)
				if err != nil {
					return errf(http.StatusBadRequest, "%v", err)
				}
				res, est := out[0], out[0].Sampled
				s.met.observeSim(res.Timing)
				s.met.observeSampled(est.RelCI)
				_, rspan := obs.StartSpan(ctx, "render")
				defer rspan.End()
				line.Simulate = &SimulateResponse{
					Workload: spec.Name,
					Scale:    scale,
					BuildKey: key,
					MaxInsts: cfg.MaxInsts,
					IPC:      est.IPC,
					Stats:    res.Timing,
					Sampled: &SampledSummary{
						Interval:      est.Interval,
						Warmup:        est.Warmup,
						Intervals:     est.Intervals,
						Measured:      est.Measured,
						TotalInsts:    est.TotalInsts,
						DetailedInsts: est.DetailedInsts,
						CIHalfWidth:   est.CIHalfWidth,
						RelCI:         est.RelCI,
						Confidence:    est.Confidence,
					},
				}
				return nil
			},
		}, nil
	}
	return &preparedJob{
		kind: "simulate",
		job:  job,
		render: func(res runner.Result, line *JobResult) {
			st := res.Timing
			s.met.observeSim(st)
			line.Simulate = &SimulateResponse{
				Workload: spec.Name,
				Scale:    scale,
				BuildKey: key,
				MaxInsts: cfg.MaxInsts,
				IPC:      st.IPC(),
				Stats:    st,
				CtxStats: res.CtxStats,
			}
			if traceBuf != nil {
				ts, err := renderTrace(traceBuf, traceFormat)
				if err != nil {
					// Rendering is pure formatting over an in-memory
					// buffer; a failure means a renderer bug, not a bad
					// request. Surface it on the line rather than
					// dropping the whole result.
					line.Error = fmt.Sprintf("render trace: %v", err)
					return
				}
				line.Simulate.Trace = ts
			}
		},
	}, nil
}

// prepareCtxSwitch validates a context-switch sampling request.
func (s *Server) prepareCtxSwitch(req *CtxSwitchRequest) (*preparedJob, *httpError) {
	src, herr := s.resolveSimSource(req.Workload, req.Asm, req.Scale, req.DVILevel, req.Scheme, req.Policy, req.EDVI, req.Infer)
	if herr != nil {
		return nil, herr
	}
	spec, scale, bopt, ecfg := src.spec, src.scale, src.bopt, src.ecfg

	key := spec.Key(scale, bopt).String()
	return &preparedJob{
		kind: "ctxswitch",
		job: runner.Job{
			Label:     "ctxswitch " + key,
			Workload:  spec,
			Scale:     scale,
			Build:     bopt,
			Kind:      runner.CtxSwitch,
			Emu:       ecfg,
			EmuBudget: s.clampInsts(req.MaxInsts),
			Interval:  req.Interval,
		},
		render: func(res runner.Result, line *JobResult) {
			line.CtxSwitch = &CtxSwitchResponse{
				Workload: spec.Name,
				Scale:    scale,
				BuildKey: key,
				SaveSet:  ctxswitch.SaveSet,
				Result:   res.Switch,
			}
		},
	}, nil
}

// prepareAnnotate validates a kill-insertion request and freezes it into
// a thunk. The rewriter mutates its program, so the thunk always works on
// a fresh private build (never the shared cache) and runs inline at its
// slot in the result stream — it is compile-bound, not simulation-bound.
func (s *Server) prepareAnnotate(req *AnnotateRequest) (*preparedJob, *httpError) {
	policy, err := parsePolicy(req.Policy)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	noPrune := req.NoPrune
	var infer bool
	switch req.Mode {
	case "", "rewrite":
	case "infer":
		infer = true
	default:
		return nil, errf(http.StatusBadRequest,
			"unknown mode %q (want rewrite or infer)", req.Mode)
	}

	// finish runs the selected annotation engine over a private program
	// and shapes the response; shared by both sources.
	finish := func(pr *prog.Program) (*AnnotateResponse, *httpError) {
		annotate := rewrite.InsertKills
		if infer {
			annotate = rewrite.Infer
		}
		inserted, err := annotate(pr, rewrite.Options{Policy: policy, NoPrune: noPrune})
		if err != nil {
			return nil, errf(http.StatusBadRequest, "rewrite: %v", err)
		}
		img, err := pr.Link()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "link: %v", err)
		}
		var perProc []ProcKills
		for _, p := range pr.Procs {
			kills := 0
			for _, in := range p.Insts {
				if in.Op == isa.KILL {
					kills++
				}
			}
			if kills > 0 {
				perProc = append(perProc, ProcKills{Proc: p.Name, Kills: kills})
			}
		}
		return &AnnotateResponse{
			Asm:       prog.FormatAsm(pr),
			Inserted:  inserted,
			PerProc:   perProc,
			TextWords: img.TextWords(),
		}, nil
	}

	var thunk func() (*AnnotateResponse, *httpError)
	switch {
	case req.Asm != "" && req.Workload != "":
		return nil, errf(http.StatusBadRequest, "set either workload or asm, not both")
	case req.Asm != "":
		asm := req.Asm
		thunk = func() (*AnnotateResponse, *httpError) {
			pr, err := prog.ParseAsm(asm)
			if err != nil {
				return nil, errf(http.StatusBadRequest, "parse: %v", err)
			}
			return finish(pr)
		}
	case req.Workload != "":
		spec, scale, rerr := s.resolveSource(req.Workload, "", req.Scale)
		if rerr != nil {
			return nil, errf(http.StatusBadRequest, "%v", rerr)
		}
		thunk = func() (*AnnotateResponse, *httpError) {
			// A fresh, un-annotated build — never the cache's: the rewriter
			// mutates the program, and cached artifacts are shared read-only.
			pr, _, err := s.compile(spec, scale, workload.BuildOptions{})
			if err != nil {
				return nil, errf(http.StatusInternalServerError, "build %s: %v", spec.Name, err)
			}
			return finish(pr)
		}
	default:
		return nil, errf(http.StatusBadRequest, "one of workload or asm is required")
	}
	return &preparedJob{kind: "annotate", inline: func(_ context.Context, line *JobResult) *httpError {
		resp, herr := thunk()
		if herr != nil {
			return herr
		}
		line.Annotate = resp
		return nil
	}}, nil
}

// executeOne runs a single prepared job through the shared session — the
// /v1 shim path. Inline jobs (annotate, sampled simulate) run on the
// calling goroutine; engine-backed jobs submit a one-job batch. The
// returned error is either the job's failure (an *httpError for inline
// jobs; otherwise wrapped with its label, for runError to map onto a
// status) or the request context's cancellation.
func (s *Server) executeOne(ctx context.Context, pj *preparedJob) (*JobResult, error) {
	var (
		line   JobResult
		jobErr error
	)
	if !pj.engineBacked() {
		line.Kind = pj.kind
		if herr := pj.inline(ctx, &line); herr != nil {
			return nil, herr
		}
		return &line, nil
	}
	err := s.sess.Run(ctx, []runner.Job{pj.job}, func(res runner.Result) error {
		if res.Err != nil {
			jobErr = res.Err
			return nil
		}
		line.Kind = pj.kind
		_, rspan := obs.StartSpan(ctx, "render")
		pj.render(res, &line)
		rspan.End()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if jobErr != nil {
		return nil, jobErr
	}
	return &line, nil
}

// ValidateJob runs one /v2 batch entry through the same prepare step
// the daemon's own handlers use, without executing it. The gateway uses
// it to validate whole batches up front with exactly the error messages
// a single-node daemon would produce. A non-nil error always maps to a
// 400-class rejection.
func (s *Server) ValidateJob(jr JobRequest) error {
	if _, herr := s.prepareJob(jr); herr != nil {
		return herr
	}
	return nil
}

// ExecuteJob validates and runs one job on the local session, returning
// the same line /v2/jobs would stream for it (Index is left zero; the
// caller owns stream positions). Failures — validation or execution —
// travel on the line's error field, mirroring /v2's per-job error
// isolation. The gateway uses this for degraded-mode local fallback
// when every backend for a key is down.
func (s *Server) ExecuteJob(ctx context.Context, jr JobRequest) JobResult {
	pj, herr := s.prepareJob(jr)
	if herr != nil {
		return JobResult{Kind: jr.Kind, Error: herr.msg}
	}
	line, err := s.executeOne(ctx, pj)
	if err != nil {
		return JobResult{Kind: pj.kind, Error: err.Error()}
	}
	return *line
}

// handleJobs is POST /v2/jobs: a heterogeneous job batch answered as an
// NDJSON stream in submission order. The whole batch is validated before
// the first byte of the response (any invalid job rejects the batch with
// 400), so every accepted batch streams exactly one line per job. Line i
// is flushed as soon as jobs 0..i have finished while later jobs still
// run; per-job failures travel on the line's error field and do not
// abort the batch. One admission slot covers the whole batch — the
// engine's worker pool, not the client's job count, bounds concurrency.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req JobsRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, "at least one job is required")
		return
	}
	if len(req.Jobs) > s.cfg.MaxJobs {
		s.writeError(w, http.StatusBadRequest,
			"batch of %d jobs exceeds the %d-job limit", len(req.Jobs), s.cfg.MaxJobs)
		return
	}
	prepared := make([]*preparedJob, len(req.Jobs))
	for i, jr := range req.Jobs {
		pj, herr := s.prepareJob(jr)
		if herr != nil {
			s.writeError(w, herr.code, "jobs[%d]: %s", i, herr.msg)
			return
		}
		prepared[i] = pj
	}

	// The batch is accepted; from here every job answers on its own
	// NDJSON line and the HTTP status is already committed.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	writeLine := func(line JobResult) error {
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	// Engine-backed jobs are submitted to the session immediately and run
	// concurrently on its worker pool, so a leading inline job never
	// delays engine submission. Inline jobs execute on this goroutine at
	// their slot in the stream: annotate is compile-bound and cheap, and
	// a sampled simulate fans its interval jobs out across the same
	// worker pool itself, so running them serially here keeps a single
	// batch from oversubscribing the machine (at the cost that an inline
	// job behind a slow simulation starts only when its slot comes up).
	var engJobs []runner.Job
	for _, pj := range prepared {
		if pj.engineBacked() {
			engJobs = append(engJobs, pj.job)
		}
	}
	done := make(chan struct{}) // closed when delivery stops consuming
	var doneOnce sync.Once
	closeDone := func() { doneOnce.Do(func() { close(done) }) }
	defer closeDone()

	resCh := make(chan runner.Result) // engine results, submission order
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		err := s.sess.Run(r.Context(), engJobs, func(res runner.Result) error {
			select {
			case resCh <- res:
				return nil
			case <-done:
				return errDeliveryClosed
			}
		})
		_ = err // the stream is the only way to answer; see below
		close(resCh)
	}()

	for idx, pj := range prepared {
		line := JobResult{Index: idx, Kind: pj.kind}
		if pj.engineBacked() {
			res, ok := <-resCh
			if !ok {
				// The engine batch ended early: the client went away and
				// the request context cancelled it. Nothing left to say.
				break
			}
			if res.Err != nil {
				line.Error = res.Err.Error()
			} else {
				_, rspan := obs.StartSpan(r.Context(), "render")
				pj.render(res, &line)
				rspan.End()
			}
		} else if herr := pj.inline(r.Context(), &line); herr != nil {
			line.Error = herr.msg
		}
		if err := writeLine(line); err != nil {
			// The stream broke mid-batch; the response cannot change
			// status anymore. Stop consuming so the engine batch cancels.
			break
		}
	}
	closeDone()
	<-runDone
}
