// Package service exposes the reproduction over HTTP/JSON: DVI-as-a-
// service. The paper's capabilities — kill insertion via binary rewriting
// (§2), out-of-order timing simulation with DVI hardware (§4-§5), and
// context-switch liveness sampling (§6) — become endpoints a long-lived
// daemon (cmd/dvid) serves to many concurrent clients:
//
//	POST /v2/jobs       heterogeneous job batch, NDJSON results streamed
//	                    in submission order
//	POST /v1/annotate   assembly in, kill-annotated assembly out
//	POST /v1/simulate   workload or assembly in, timing statistics out
//	POST /v1/ctxswitch  liveness sampling at preemption points
//	GET  /v1/workloads  the built-in benchmark suite
//	GET  /healthz       liveness and cache/queue gauges
//	GET  /metrics       Prometheus text exposition
//
// Every request routes through one shared session.Session — the same
// orchestration layer behind the dvi facade and the CLIs — so all
// clients share its single-flight build cache and pooled simulator
// instances: concurrent identical requests coalesce into one compile.
// The cache is LRU-bounded because clients submit arbitrary assembly.
// The /v1 one-shot endpoints are thin shims that submit a one-job batch
// through the same prepare/execute/render path as /v2/jobs (see jobs.go),
// so both versions answer byte-identically for the same job. Admission
// control bounds concurrent execution and queue depth (429 once the
// queue is full). Queued requests honour their HTTP context — an
// abandoned client frees its queue slot immediately — while a simulation
// that has already started runs to its clamped instruction budget
// (MaxInsts bounds the wasted work). Shutdown drains in-flight work via
// the standard http.Server.Shutdown contract.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dvi/internal/obs"
	"dvi/internal/runner"
	"dvi/internal/session"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// Defaults applied by New for zero Config fields.
const (
	// DefaultMaxQueue bounds requests waiting for an execution slot.
	DefaultMaxQueue = 256
	// DefaultCacheCapacity bounds the build cache: plenty for the seven
	// benchmarks in every flavour plus a working set of client assembly.
	DefaultCacheCapacity = 64
	// DefaultMaxRequestBytes bounds request bodies (assembly text).
	DefaultMaxRequestBytes = 8 << 20
	// DefaultMaxInsts is the per-request instruction budget ceiling. The
	// daemon never runs unbounded simulations on behalf of a client.
	DefaultMaxInsts = 2_000_000
	// DefaultMaxScale caps the workload scale factor per request.
	DefaultMaxScale = 8
	// DefaultMaxJobs caps the number of jobs in one /v2/jobs batch.
	DefaultMaxJobs = 256
	// DefaultTraceRing is how many recent request span trees
	// /debug/trace/recent retains.
	DefaultTraceRing = 64
	// DefaultMaxTraceRecords is the ceiling on pipeline-trace records a
	// /v1/simulate request may ask for; requests asking for more are
	// clamped. Traces are held in memory until rendered into the
	// response, so the bound is a memory bound.
	DefaultMaxTraceRecords = 50_000
	// defaultTraceRecords is the per-request record budget when the
	// client enables tracing without choosing one.
	defaultTraceRecords = 5_000
	// DefaultMaxContexts caps the SMT hardware contexts one simulate
	// request may ask for. Each context embeds its own emulator and
	// fetch queue, so the bound is a memory and CPU bound.
	DefaultMaxContexts = 8

	// asmPrefix marks synthetic workload specs backed by client assembly.
	asmPrefix = "asm:"
)

// Config parameterizes a Server. The zero value serves with defaults.
type Config struct {
	// Workers sizes the shared engine's worker pool
	// (<=0 = runtime.GOMAXPROCS(0)).
	Workers int
	// MaxConcurrent bounds requests executing simultaneously
	// (<=0 = Workers).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot; beyond it
	// the daemon answers 429 (0 = DefaultMaxQueue, negative = no queue:
	// reject whenever all slots are busy).
	MaxQueue int
	// CacheCapacity bounds the build cache with LRU eviction
	// (0 = DefaultCacheCapacity, negative = unbounded).
	CacheCapacity int
	// MaxRequestBytes bounds request bodies (0 = DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// MaxInsts is the ceiling on per-request instruction budgets
	// (0 = DefaultMaxInsts). Requests asking for more are clamped.
	MaxInsts uint64
	// MaxScale is the ceiling on per-request workload scale
	// (0 = DefaultMaxScale).
	MaxScale int
	// MaxJobs is the ceiling on jobs per /v2/jobs batch
	// (<=0 = DefaultMaxJobs).
	MaxJobs int
	// Compile overrides the workload build function; nil uses
	// workload.CompileSpec. It receives every spec, client-assembly ones
	// included. Tests use this to count or stall builds.
	Compile runner.CompileFunc
	// Logger receives structured request logs (nil = discard). Normal
	// requests log at Debug, server errors at Warn.
	Logger *slog.Logger
	// TraceRing is how many recent request span trees
	// /debug/trace/recent retains (0 = DefaultTraceRing, negative =
	// disable the recorder entirely).
	TraceRing int
	// MaxTraceRecords is the per-request pipeline-trace record ceiling
	// (0 = DefaultMaxTraceRecords).
	MaxTraceRecords int
	// MaxContexts is the ceiling on SMT hardware contexts per simulate
	// request (0 = DefaultMaxContexts).
	MaxContexts int
	// Store, when non-nil, backs the build cache with an on-disk
	// artifact store (compiled binaries and sampled-run records survive
	// restarts and are shared across processes on the same directory).
	Store *store.Store
}

// Server implements the DVI service over HTTP. Construct with New; it is
// an http.Handler, ready to mount on any http.Server or mux.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	sess     *session.Session
	eng      *runner.Engine // the session's engine (cache accounting)
	met      metrics
	adm      *admission
	start    time.Time
	compile  runner.CompileFunc // resolved Config.Compile
	log      *slog.Logger
	rec      *obs.Recorder // recent request span trees (may be nil)
	reqID    atomic.Uint64 // request-ID counter for generated X-Request-Id values
	draining atomic.Bool   // graceful shutdown has begun; /healthz answers 503
}

// New builds a Server, resolving zero Config fields to defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = cfg.Workers
	}
	switch {
	case cfg.MaxQueue == 0:
		cfg.MaxQueue = DefaultMaxQueue
	case cfg.MaxQueue < 0:
		cfg.MaxQueue = 0
	}
	switch {
	case cfg.CacheCapacity == 0:
		cfg.CacheCapacity = DefaultCacheCapacity
	case cfg.CacheCapacity < 0:
		cfg.CacheCapacity = 0
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = DefaultMaxInsts
	}
	if cfg.MaxScale == 0 {
		cfg.MaxScale = DefaultMaxScale
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.MaxTraceRecords == 0 {
		cfg.MaxTraceRecords = DefaultMaxTraceRecords
	}
	if cfg.MaxContexts == 0 {
		cfg.MaxContexts = DefaultMaxContexts
	}

	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		start:   time.Now(),
		compile: cfg.Compile,
		log:     cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceRing >= 0 {
		ring := cfg.TraceRing
		if ring == 0 {
			ring = DefaultTraceRing
		}
		s.rec = obs.NewRecorder(ring)
		// Fold every finished request's span tree into the per-phase
		// latency histograms as it is recorded.
		s.rec.OnRecord = s.met.observeSpans
	}
	if s.compile == nil {
		s.compile = workload.CompileSpec
	}
	s.sess = session.New(
		session.WithWorkers(cfg.Workers),
		session.WithCacheCapacity(cfg.CacheCapacity),
		session.WithCompile(cfg.Compile),
		session.WithStore(cfg.Store),
	)
	s.eng = s.sess.Engine()

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", s.heavy("jobs", s.handleJobs))
	mux.HandleFunc("POST /v1/annotate", s.heavy("annotate", s.handleAnnotate))
	mux.HandleFunc("POST /v1/simulate", s.heavy("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/ctxswitch", s.heavy("ctxswitch", s.handleCtxSwitch))
	mux.HandleFunc("GET /v1/workloads", s.light("workloads", s.handleWorkloads))
	mux.HandleFunc("GET /healthz", s.light("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.light("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/trace/recent", s.light("trace", s.handleTraceRecent))
	// net/http/pprof registers only on http.DefaultServeMux; mount its
	// handlers explicitly so profiling works on this mux without pulling
	// in whatever else the default mux has accumulated.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Session exposes the shared orchestration session every request routes
// through.
func (s *Server) Session() *session.Session { return s.sess }

// Engine exposes the shared execution engine (build cache accounting).
func (s *Server) Engine() *runner.Engine { return s.eng }

// Inflight returns the number of requests currently executing.
func (s *Server) Inflight() int64 { return s.adm.inflight.Load() }

// QueueDepth returns the number of requests waiting for a slot.
func (s *Server) QueueDepth() int64 { return s.adm.waiting.Load() }

// BeginDrain marks the server as draining: /healthz flips to
// "draining" with a 503 so readiness checks (the gateway's health
// checker, load balancers) eject this backend before its listener
// closes. Call it when graceful shutdown starts, before
// http.Server.Shutdown. Request handling is otherwise unaffected —
// in-flight and freshly arriving work still completes while the
// listener lives.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// --- admission control ---

// errBusy reports a full admission queue.
var errBusy = errors.New("service: admission queue full")

// admission bounds concurrently executing requests (sem) and the number
// allowed to wait for a slot (maxQueue); further arrivals bounce with
// errBusy so overload produces fast 429s instead of unbounded goroutines.
type admission struct {
	sem      chan struct{}
	maxQueue int
	waiting  atomic.Int64
	inflight atomic.Int64
}

func newAdmission(maxConcurrent, maxQueue int) *admission {
	return &admission{sem: make(chan struct{}, maxConcurrent), maxQueue: maxQueue}
}

// acquire claims an execution slot, waiting in the bounded queue if none
// is free. It fails with errBusy when the queue is full and with the
// context error when the client gives up while queued.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.sem <- struct{}{}:
		a.inflight.Add(1)
		return nil
	default:
	}
	if a.waiting.Add(1) > int64(a.maxQueue) {
		a.waiting.Add(-1)
		return errBusy
	}
	defer a.waiting.Add(-1)
	select {
	case a.sem <- struct{}{}:
		// Both arms can be ready at once and select picks randomly: a
		// client that disconnected while queued may still win the slot.
		// Hand it back instead of running work nobody will read — under
		// churn, leaked slots here would strand inflight/queue gauges
		// and eventually wedge admission entirely.
		if err := ctx.Err(); err != nil {
			<-a.sem
			return err
		}
		a.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.sem
}

// --- middleware ---

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers
// (/v2/jobs NDJSON) can push each line out as it completes.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID returns the request's correlation ID: the inbound
// X-Request-Id when the client supplied one, else a fresh server-local
// ID. Either way the value is echoed on the response, so clients can
// correlate server logs and span trees with their own.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" && len(id) <= 128 {
		return id
	}
	return "dvid-" + strconv.FormatUint(s.reqID.Add(1), 16)
}

// heavy wraps simulation-class endpoints with admission control, body
// limits, spans, logging, and metrics. The body is read in full — and
// bounded — before an execution slot is acquired, so a client trickling
// a slow upload never holds a slot, and over-limit bodies answer 413
// rather than consuming admission capacity.
//
// Each admitted request runs under a root span (named after the
// endpoint) with a "queue-wait" child covering admission and an
// "execute" child covering the handler; the orchestration layers hang
// their own children (build, scan, interval, render, ...) off the
// execute span via the request context. Completed trees land in the
// ring served by /debug/trace/recent and fold into the per-phase
// histograms.
func (s *Server) heavy(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := s.requestID(r)
		w.Header().Set("X-Request-Id", reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
		switch {
		case errors.As(err, new(*http.MaxBytesError)):
			s.writeError(sw, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxRequestBytes)
		case err != nil:
			s.writeError(sw, http.StatusBadRequest, "read request body: %v", err)
		default:
			r.Body = io.NopCloser(bytes.NewReader(body))
			ctx := r.Context()
			if s.rec != nil {
				ctx = obs.WithRecorder(ctx, s.rec)
			}
			ctx, span := obs.StartSpan(ctx, name)
			if span != nil {
				span.SetAttr("request_id", reqID)
				span.SetAttr("bytes", len(body))
			}
			qctx, qspan := obs.StartSpan(ctx, "queue-wait")
			err := s.adm.acquire(qctx)
			qspan.End()
			if err != nil {
				if errors.Is(err, errBusy) {
					s.writeError(sw, http.StatusTooManyRequests,
						"admission queue full (%d executing, %d queued); retry later",
						s.adm.inflight.Load(), s.adm.maxQueue)
				} else {
					s.writeError(sw, http.StatusServiceUnavailable, "request abandoned while queued: %v", err)
				}
			} else {
				func() {
					defer s.adm.release()
					ectx, espan := obs.StartSpan(ctx, "execute")
					defer espan.End()
					h(sw, r.WithContext(ectx))
				}()
			}
			if span != nil {
				span.SetAttr("code", sw.code)
				span.End()
			}
		}
		// Admission rejections are counted but kept out of the latency
		// histogram: a flood of instant 429s must not mask the latency
		// of the work that was actually admitted.
		if sw.code == http.StatusTooManyRequests {
			s.met.reject(name)
		} else {
			s.met.observe(name, sw.code, time.Since(start))
		}
		s.logRequest(name, reqID, sw.code, time.Since(start))
	}
}

// light wraps cheap read-only endpoints with metrics and logging only.
func (s *Server) light(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := s.requestID(r)
		w.Header().Set("X-Request-Id", reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.met.observe(name, sw.code, time.Since(start))
		s.logRequest(name, reqID, sw.code, time.Since(start))
	}
}

// logRequest writes one structured line per request: Debug normally,
// Warn for server-side errors so they surface at default log levels.
func (s *Server) logRequest(name, reqID string, code int, d time.Duration) {
	lvl := slog.LevelDebug
	if code >= 500 {
		lvl = slog.LevelWarn
	}
	s.log.Log(context.Background(), lvl, "request",
		"endpoint", name, "request_id", reqID, "code", code,
		"duration_ms", float64(d.Microseconds())/1000)
}

// --- JSON helpers ---

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, Error{Message: fmt.Sprintf(format, args...)})
}

// readJSON decodes a request body strictly: unknown fields are an error,
// so client typos fail loudly instead of silently running defaults.
func readJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// --- request sources ---

// resolveSource turns the (workload, asm, scale) request triple into a
// spec the engine can build: a registered benchmark, or a synthetic spec
// backed by the submitted assembly (scale is meaningless there and pins
// to 1 so identical submissions share one build-cache key).
func (s *Server) resolveSource(name, asm string, scale int) (workload.Spec, int, error) {
	switch {
	case name != "" && asm != "":
		return workload.Spec{}, 0, fmt.Errorf("set either workload or asm, not both")
	case name != "":
		spec, ok := workload.ByName(name)
		if !ok {
			return workload.Spec{}, 0, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workload.Names(), ", "))
		}
		if scale < 1 {
			scale = 1
		}
		if scale > s.cfg.MaxScale {
			scale = s.cfg.MaxScale
		}
		return spec, scale, nil
	case asm != "":
		return s.asmSpec(asm), 1, nil
	}
	return workload.Spec{}, 0, fmt.Errorf("one of workload or asm is required")
}

// asmSpec wraps the assembly text in a synthetic spec whose name
// content-addresses the source, so identical submissions share one
// build-cache key. The text travels inside the spec itself (Spec.Asm):
// nothing to expire, nothing for a client to pin beyond in-flight
// requests, and cached artifacts are keyed by digest, not by reference.
func (s *Server) asmSpec(asm string) workload.Spec {
	sum := sha256.Sum256([]byte(asm))
	return workload.Spec{
		Name:     asmPrefix + hex.EncodeToString(sum[:12]),
		Describe: "client-submitted assembly",
		Asm:      asm,
	}
}

// clampInsts applies the server's instruction budget ceiling; the daemon
// never runs unbounded simulations for a client.
func (s *Server) clampInsts(v uint64) uint64 {
	if v == 0 || v > s.cfg.MaxInsts {
		return s.cfg.MaxInsts
	}
	return v
}

// --- handlers ---
//
// The /v1 one-shot endpoints are shims: each validates through the same
// prepare step and executes through the same session path as a /v2/jobs
// batch entry of the corresponding kind, then unwraps the single result.
// Their response bytes are pinned against the pre-shim wire format by
// TestV1GoldenShims.

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req AnnotateRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	pj, herr := s.prepareAnnotate(&req)
	if herr != nil {
		s.writeError(w, herr.code, "%s", herr.msg)
		return
	}
	var line JobResult
	if herr := pj.inline(r.Context(), &line); herr != nil {
		s.writeError(w, herr.code, "%s", herr.msg)
		return
	}
	s.writeJSON(w, http.StatusOK, line.Annotate)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	pj, herr := s.prepareSimulate(&req)
	if herr != nil {
		s.writeError(w, herr.code, "%s", herr.msg)
		return
	}
	line, err := s.executeOne(r.Context(), pj)
	if err != nil {
		s.runError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, line.Simulate)
}

func (s *Server) handleCtxSwitch(w http.ResponseWriter, r *http.Request) {
	var req CtxSwitchRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	pj, herr := s.prepareCtxSwitch(&req)
	if herr != nil {
		s.writeError(w, herr.code, "%s", herr.msg)
		return
	}
	line, err := s.executeOne(r.Context(), pj)
	if err != nil {
		s.runError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, line.CtxSwitch)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadInfo
	for _, spec := range workload.All() {
		out = append(out, WorkloadInfo{Name: spec.Name, Describe: spec.Describe})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.eng.Cache().Stats()
	h := Health{
		Status:         "ok",
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Workers:        s.eng.Workers(),
		Inflight:       s.adm.inflight.Load(),
		QueueDepth:     s.adm.waiting.Load(),
		QueueCapacity:  s.adm.maxQueue,
		CacheEntries:   s.eng.Cache().Len(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: s.eng.Cache().Evictions(),
		CacheCompiles:  s.eng.Cache().Compiles(),
	}
	if st := s.eng.Store(); st != nil {
		sst := st.Stats()
		h.Store = &StoreHealth{
			Entries:     sst.Entries,
			Bytes:       sst.Bytes,
			Hits:        sst.Hits,
			Misses:      sst.Misses,
			Puts:        sst.Puts,
			Evictions:   sst.Evictions,
			Quarantined: sst.Quarantined,
		}
	}
	code := http.StatusOK
	if s.draining.Load() {
		// Still answering requests, but readiness checks must stop
		// routing fresh work here: the listener is about to close.
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// handleTraceRecent serves the last-N completed request span trees,
// newest first. It answers from the in-process ring — no storage, no
// exporter — which is exactly enough to ask "where did that slow
// request spend its time?" against a live daemon.
func (s *Server) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.writeError(w, http.StatusNotFound, "trace recorder disabled")
		return
	}
	s.writeJSON(w, http.StatusOK, TraceRecent{Traces: s.rec.Recent()})
}

// runError maps an engine failure onto an HTTP status: client-abandoned
// contexts get 503 (nobody is reading anyway), inline jobs carry their
// own status, everything else is a bad build or run rooted in the
// request (400).
func (s *Server) runError(w http.ResponseWriter, r *http.Request, err error) {
	if r.Context().Err() != nil {
		s.writeError(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
		return
	}
	var herr *httpError
	if errors.As(err, &herr) {
		s.writeError(w, herr.code, "%s", herr.msg)
		return
	}
	s.writeError(w, http.StatusBadRequest, "%v", err)
}
