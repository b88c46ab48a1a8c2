// Package gateway fronts a fleet of dvid backends: it consistent-hashes
// build keys across N daemons (so the fleet-wide build cache stays
// single-flight per key), health-checks them, and wraps every dispatch
// in per-request deadlines, capped exponential backoff + jitter
// retries, tail-latency hedging to the next replica, and per-backend
// circuit breakers. Every job the daemon serves is a pure deterministic
// computation — retrying or hedging one is always safe, and any replica
// answers byte-identically — which is what makes this layer possible
// without any coordination between backends.
//
// Degradation is graceful by construction: the gateway embeds a local
// service.Server, used both to validate batches up front with exactly
// the errors a single-node daemon would produce and to execute jobs
// locally when every backend for a key is down. A /v2 batch therefore
// survives backend death mid-stream: the affected jobs retry on other
// replicas or run locally, and their lines arrive in order like any
// other — clients cannot tell a degraded batch from a healthy one
// except by the X-Dvid-Degraded header and the gateway's /metrics.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/obs"
	"dvi/internal/service"
)

// DegradedHeader marks responses (or response streams) that the local
// fallback session served in whole or in part because no backend was
// available; its value names the mode ("local").
const DegradedHeader = "X-Dvid-Degraded"

// Defaults applied by New for zero Config fields.
const (
	DefaultRequestTimeout  = 60 * time.Second
	DefaultHedgeAfter      = 150 * time.Millisecond
	DefaultRetries         = 3
	DefaultBackoffBase     = 25 * time.Millisecond
	DefaultBackoffCap      = 1 * time.Second
	DefaultBreakerFailures = 3
	DefaultBreakerCooldown = 2 * time.Second
	DefaultHealthInterval  = 2 * time.Second
	DefaultVirtualNodes    = 64
	DefaultMaxInflight     = 16
	// DefaultMaxResponseBytes is deliberately far above the request
	// limit: simulate responses carrying a full trace routinely dwarf
	// the request that asked for them.
	DefaultMaxResponseBytes = 256 << 20
)

// Config parameterizes a Gateway.
type Config struct {
	// Backends are the dvid base URLs to route across. At least one is
	// required.
	Backends []string
	// Local is the embedded fallback service. Required: it provides
	// whole-batch validation parity with single-node daemons and the
	// degradation path when every backend is down.
	Local *service.Server
	// RequestTimeout bounds each dispatch attempt to one backend
	// (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// HedgeAfter launches a duplicate request on the next replica when
	// the primary has not answered within this budget; first success
	// wins (0 = DefaultHedgeAfter, negative = hedging off).
	HedgeAfter time.Duration
	// Retries is how many additional attempts a failed dispatch gets
	// across replicas (0 = DefaultRetries, negative = none).
	Retries int
	// BackoffBase/BackoffCap shape the capped exponential backoff with
	// jitter between attempts (0 = defaults).
	BackoffBase, BackoffCap time.Duration
	// BreakerFailures consecutive failures open a backend's circuit
	// breaker for BreakerCooldown (0 = defaults).
	BreakerFailures int
	BreakerCooldown time.Duration
	// HealthInterval is the active health-check period
	// (0 = DefaultHealthInterval).
	HealthInterval time.Duration
	// VirtualNodes is the consistent-hash ring's points per backend
	// (0 = DefaultVirtualNodes).
	VirtualNodes int
	// MaxInflight bounds concurrently dispatched jobs per /v2 batch
	// (0 = DefaultMaxInflight).
	MaxInflight int
	// MaxRequestBytes bounds request bodies
	// (0 = service.DefaultMaxRequestBytes).
	MaxRequestBytes int64
	// MaxResponseBytes bounds buffered backend response bodies
	// (0 = DefaultMaxResponseBytes). A larger answer is an error —
	// retried elsewhere or served by the local fallback — never
	// silently truncated: a clipped body forwarded as a 200 would break
	// the byte-identical-to-single-node contract.
	MaxResponseBytes int64
	// MaxJobs caps jobs per /v2 batch (0 = service.DefaultMaxJobs).
	MaxJobs int
	// Seed seeds the backoff jitter; fault-injection tests pin it for
	// reproducible schedules.
	Seed int64
	// Transport overrides the backend HTTP transport (tests inject
	// faults here); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Logger receives structured logs (nil = discard).
	Logger *slog.Logger
	// TraceRing is how many recent request span trees
	// /debug/trace/recent retains (0 = service default, negative =
	// disabled).
	TraceRing int
}

// backend is one dvid replica and its recovery state.
type backend struct {
	url     string
	healthy atomic.Bool // last active-probe verdict (optimistic start)
	br      *breaker
	fails   atomic.Int64 // dispatch failures, for /metrics
}

// Gateway routes dvid traffic across a fleet. Construct with New; it is
// an http.Handler serving the same endpoints as a dvid backend.
type Gateway struct {
	cfg      Config
	backends []*backend
	ring     *ring
	hc       *http.Client
	local    *service.Server
	mux      *http.ServeMux
	log      *slog.Logger
	rec      *obs.Recorder
	met      gwMetrics
	start    time.Time

	jmu sync.Mutex // jitter PRNG
	jrn *rand.Rand

	stop     context.CancelFunc
	checkerD chan struct{} // closed when the health loop exits
}

// New builds a Gateway. It does not probe backends; call Start to run
// the active health checker (backends are assumed healthy until a probe
// says otherwise, so startup order does not matter).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend is required")
	}
	if cfg.Local == nil {
		return nil, errors.New("gateway: a local fallback service is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = DefaultHedgeAfter
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = DefaultBackoffCap
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = DefaultBreakerFailures
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = service.DefaultMaxRequestBytes
	}
	if cfg.MaxResponseBytes <= 0 {
		cfg.MaxResponseBytes = DefaultMaxResponseBytes
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = service.DefaultMaxJobs
	}

	g := &Gateway{
		cfg:   cfg,
		ring:  newRing(cfg.Backends, cfg.VirtualNodes),
		local: cfg.Local,
		log:   cfg.Logger,
		start: time.Now(),
		jrn:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if g.log == nil {
		g.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceRing >= 0 {
		ring := cfg.TraceRing
		if ring == 0 {
			ring = service.DefaultTraceRing
		}
		g.rec = obs.NewRecorder(ring)
	}
	for _, u := range cfg.Backends {
		b := &backend{url: u, br: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown)}
		b.healthy.Store(true)
		g.backends = append(g.backends, b)
	}
	g.hc = &http.Client{Transport: cfg.Transport}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/jobs", g.handleJobs)
	mux.HandleFunc("POST /v1/annotate", g.proxyHandler("annotate", "/v1/annotate"))
	mux.HandleFunc("POST /v1/simulate", g.proxyHandler("simulate", "/v1/simulate"))
	mux.HandleFunc("POST /v1/ctxswitch", g.proxyHandler("ctxswitch", "/v1/ctxswitch"))
	mux.HandleFunc("GET /v1/workloads", g.handleWorkloads)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /debug/trace/recent", g.handleTraceRecent)
	g.mux = mux
	return g, nil
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// --- routing keys ---

// routeKeyJob extracts the consistent-hash key from a /v2 batch entry's
// source; see service.Server.RouteKey.
func (g *Gateway) routeKeyJob(jr service.JobRequest) string {
	switch {
	case jr.Simulate != nil:
		return g.local.RouteKey(jr.Simulate.Workload, jr.Simulate.Asm, jr.Simulate.Scale)
	case jr.CtxSwitch != nil:
		return g.local.RouteKey(jr.CtxSwitch.Workload, jr.CtxSwitch.Asm, jr.CtxSwitch.Scale)
	case jr.Annotate != nil:
		return g.local.RouteKey(jr.Annotate.Workload, jr.Annotate.Asm, jr.Annotate.Scale)
	}
	return ""
}

// --- dispatch with recovery ---

// pick selects the attempt-th available backend in the key's ring
// order (consuming its breaker's admission), plus a hedge candidate: a
// distinct healthy backend whose breaker is fully closed, so a hedge
// never burns a half-open probe slot. Either may be nil.
func (g *Gateway) pick(key string, attempt int) (primary, hedge *backend) {
	now := time.Now()
	var avail []*backend
	for _, idx := range g.ring.ordered(key) {
		b := g.backends[idx]
		if b.healthy.Load() {
			avail = append(avail, b)
		}
	}
	if len(avail) == 0 {
		return nil, nil
	}
	for i := 0; i < len(avail); i++ {
		b := avail[(attempt+i)%len(avail)]
		if primary == nil && b.br.allow(now) {
			primary = b
			continue
		}
		if primary != nil && hedge == nil && b.br.closed() {
			hedge = b
		}
	}
	return primary, hedge
}

// available counts backends currently considered routable: actively
// healthy with a fully closed breaker. Half-open does not count — at
// most one probe passes through it, so with every breaker open or
// half-open nearly all traffic runs on the local fallback, and /healthz
// plus the degraded header must say so rather than report a healthy
// fleet.
func (g *Gateway) available() int {
	n := 0
	for _, b := range g.backends {
		if b.healthy.Load() && b.br.closed() {
			n++
		}
	}
	return n
}

// errNoBackends reports that no backend was available for a dispatch.
var errNoBackends = errors.New("gateway: no backend available")

// proxyResp is a buffered backend response.
type proxyResp struct {
	code        int
	contentType string
	body        []byte
}

// fetch sends one request to one backend under the per-attempt deadline
// and buffers the answer, whatever its status; each caller decides which
// statuses count as failures. A body over the response budget is an
// error — so the dispatch ladder retries elsewhere or falls back
// locally — never a silently truncated answer.
func (g *Gateway) fetch(ctx context.Context, b *backend, method, path string, body []byte) (proxyResp, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, b.url+path, bytes.NewReader(body))
	if err != nil {
		return proxyResp{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := g.hc.Do(req)
	if err != nil {
		return proxyResp{}, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, g.cfg.MaxResponseBytes+1))
	if err != nil {
		return proxyResp{}, err
	}
	if int64(len(data)) > g.cfg.MaxResponseBytes {
		return proxyResp{}, fmt.Errorf("gateway: backend response exceeds %d bytes", g.cfg.MaxResponseBytes)
	}
	return proxyResp{code: res.StatusCode, contentType: res.Header.Get("Content-Type"), body: data}, nil
}

// statusError reports a backend answer its caller counts as a failure.
func statusError(b *backend, code int) error {
	return fmt.Errorf("gateway: backend %s: status %d", b.url, code)
}

// backoff returns the jittered delay before retry number attempt
// (capped exponential, uniform jitter in [50%, 100%]).
func (g *Gateway) backoff(attempt int) time.Duration {
	d := g.cfg.BackoffBase << attempt
	if d > g.cfg.BackoffCap || d <= 0 {
		d = g.cfg.BackoffCap
	}
	g.jmu.Lock()
	f := 0.5 + 0.5*g.jrn.Float64()
	g.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// dispatch runs send against the fleet with the full recovery ladder:
// ring-ordered backend selection, per-attempt deadline (inside send),
// hedging, breaker accounting, and capped backoff retries. send must be
// idempotent — every dvid job is a pure deterministic computation, so
// it is. A nil error means send succeeded on the returned backend; the
// caller falls back locally on error.
func dispatch[T any](g *Gateway, ctx context.Context, key string, send func(context.Context, *backend) (T, error)) (T, *backend, error) {
	var zero T
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return zero, nil, err
		}
		primary, hedge := g.pick(key, attempt)
		if primary == nil {
			if lastErr != nil {
				return zero, nil, lastErr
			}
			return zero, nil, errNoBackends
		}
		v, b, err := hedged(g, ctx, primary, hedge, send)
		if err == nil {
			return v, b, nil
		}
		lastErr = err
		if attempt >= g.cfg.Retries {
			return zero, nil, lastErr
		}
		g.met.retries.Add(1)
		select {
		case <-time.After(g.backoff(attempt)):
		case <-ctx.Done():
			return zero, nil, ctx.Err()
		}
	}
}

// hedged runs send on primary and, if it has not answered within
// HedgeAfter, duplicates it on hedge; the first success wins and the
// loser is cancelled.
func hedged[T any](g *Gateway, ctx context.Context, primary, hedge *backend, send func(context.Context, *backend) (T, error)) (T, *backend, error) {
	type outcome struct {
		v   T
		b   *backend
		err error
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	// Breaker and failure accounting happen inside the send goroutine,
	// not the select loop below: when the other attempt wins the race
	// (or the caller abandons both), hedged returns without draining ch,
	// and the loser must still settle its breaker — in particular a
	// half-open probe slot consumed by pick, which would otherwise wedge
	// the breaker half-open and eject the backend from rotation forever.
	// A send that failed only because hctx was cancelled is abandoned
	// rather than counted: losing the race is not the backend's fault.
	launch := func(b *backend) {
		go func() {
			v, err := send(hctx, b)
			switch {
			case err == nil:
				b.br.success()
			case hctx.Err() != nil:
				b.br.abandon()
			default:
				b.br.failure(time.Now())
				b.fails.Add(1)
			}
			ch <- outcome{v, b, err}
		}()
	}
	launch(primary)
	inflight := 1
	var hedgeC <-chan time.Time
	if hedge != nil && g.cfg.HedgeAfter > 0 {
		t := time.NewTimer(g.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var zero T
	var firstErr error
	for {
		select {
		case o := <-ch:
			inflight--
			if o.err == nil {
				if o.b == hedge {
					g.met.hedgeWins.Add(1)
				}
				return o.v, o.b, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if inflight == 0 {
				return zero, nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			g.met.hedges.Add(1)
			launch(hedge)
			inflight++
		case <-hctx.Done():
			// Abandoned from above; in-flight sends resolve into the
			// buffered channel.
			return zero, nil, hctx.Err()
		}
	}
}

// --- /v2/jobs ---

// rawLine is one NDJSON line with payloads kept as raw bytes: the
// gateway re-frames backend lines (rewriting the index from the
// single-job sub-batch back to the client's batch position) without
// decoding and re-encoding payloads, so reassembled responses stay
// byte-identical to a single-node daemon's. Field order mirrors
// service.JobResult — the wire contract.
type rawLine struct {
	Index     int             `json:"index"`
	Kind      string          `json:"kind"`
	Simulate  json.RawMessage `json:"simulate,omitempty"`
	CtxSwitch json.RawMessage `json:"ctxswitch,omitempty"`
	Annotate  json.RawMessage `json:"annotate,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// toRawLine converts a locally executed result into the wire framing.
func toRawLine(res service.JobResult) (rawLine, error) {
	rl := rawLine{Index: res.Index, Kind: res.Kind, Error: res.Error}
	marshal := func(v any) (json.RawMessage, error) {
		b, err := json.Marshal(v)
		return b, err
	}
	var err error
	if res.Simulate != nil {
		if rl.Simulate, err = marshal(res.Simulate); err != nil {
			return rl, err
		}
	}
	if res.CtxSwitch != nil {
		if rl.CtxSwitch, err = marshal(res.CtxSwitch); err != nil {
			return rl, err
		}
	}
	if res.Annotate != nil {
		if rl.Annotate, err = marshal(res.Annotate); err != nil {
			return rl, err
		}
	}
	return rl, err
}

// decodeLine parses a backend's answer to a single-job /v2 batch: its
// one result line. A truncated or malformed stream — a backend killed
// mid-write — is an error, which dispatch retries elsewhere: per-job
// error isolation survives backend death because only deterministic
// per-job failures travel inside a successfully parsed line.
func decodeLine(b *backend, data []byte) (rawLine, error) {
	var line rawLine
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&line); err != nil {
		return rawLine{}, fmt.Errorf("gateway: backend %s: bad result line: %w", b.url, err)
	}
	if dec.More() {
		return rawLine{}, fmt.Errorf("gateway: backend %s: more than one result line", b.url)
	}
	if line.Kind == "" {
		return rawLine{}, fmt.Errorf("gateway: backend %s: result line without kind", b.url)
	}
	return line, nil
}

// runJob resolves one batch entry to its final line bytes: backend
// dispatch with the full recovery ladder, then local execution when the
// fleet cannot answer. The returned bytes always end in exactly one
// newline.
func (g *Gateway) runJob(ctx context.Context, idx int, jr service.JobRequest, body []byte) []byte {
	ctx, span := obs.StartSpan(ctx, "gateway-job")
	key := g.routeKeyJob(jr)
	if span != nil {
		span.SetAttr("index", idx)
		span.SetAttr("key", key)
		defer span.End()
	}
	// Each job travels as a single-job /v2 batch; any status but 200 is
	// a failure.
	line, b, err := dispatch(g, ctx, key, func(ctx context.Context, b *backend) (rawLine, error) {
		resp, err := g.fetch(ctx, b, http.MethodPost, "/v2/jobs", body)
		if err != nil {
			return rawLine{}, err
		}
		if resp.code != http.StatusOK {
			return rawLine{}, statusError(b, resp.code)
		}
		return decodeLine(b, resp.body)
	})
	switch {
	case err == nil:
		if span != nil {
			span.SetAttr("backend", b.url)
		}
	case ctx.Err() != nil:
		// The client is gone; nobody reads this line.
		return nil
	default:
		// Every replica for this key is down or exhausted its retry
		// budget: run the job on the embedded session instead of
		// failing the batch.
		g.met.fallbackLocal.Add(1)
		if span != nil {
			span.SetAttr("fallback", "local")
		}
		g.log.Warn("gateway: local fallback", "index", idx, "key", key, "err", err)
		res := g.local.ExecuteJob(ctx, jr)
		var lerr error
		if line, lerr = toRawLine(res); lerr != nil {
			line = rawLine{Kind: jr.Kind, Error: fmt.Sprintf("gateway: encode local result: %v", lerr)}
		}
	}
	line.Index = idx
	out, merr := json.Marshal(line)
	if merr != nil {
		out = []byte(fmt.Sprintf(`{"index":%d,"kind":%q,"error":"gateway: encode result line"}`, idx, jr.Kind))
	}
	return append(out, '\n')
}

// handleJobs is the gateway's POST /v2/jobs: the batch is validated up
// front through the embedded service (same errors, same 400s as a
// single-node daemon), then every job dispatches independently across
// the fleet and lines stream back in submission order — line i flushes
// as soon as jobs 0..i are done, wherever each one ran.
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if g.rec != nil {
		ctx = obs.WithRecorder(ctx, g.rec)
	}
	ctx, span := obs.StartSpan(ctx, "gateway-jobs")
	code := http.StatusOK
	defer func() {
		if span != nil {
			span.SetAttr("code", code)
			span.End()
		}
		g.met.observe("jobs", code)
	}()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxRequestBytes))
	if err != nil {
		code = http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		g.writeError(w, code, "read request body: %v", err)
		return
	}
	var req service.JobsRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code = http.StatusBadRequest
		g.writeError(w, code, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		code = http.StatusBadRequest
		g.writeError(w, code, "at least one job is required")
		return
	}
	if len(req.Jobs) > g.cfg.MaxJobs {
		code = http.StatusBadRequest
		g.writeError(w, code, "batch of %d jobs exceeds the %d-job limit", len(req.Jobs), g.cfg.MaxJobs)
		return
	}
	// Whole-batch validation before the first response byte, exactly
	// like a single-node daemon: an invalid job rejects the batch.
	for i, jr := range req.Jobs {
		if err := g.local.ValidateJob(jr); err != nil {
			code = http.StatusBadRequest
			g.writeError(w, code, "jobs[%d]: %s", i, err.Error())
			return
		}
	}

	// Pre-encode each single-job sub-batch once; retries and hedges
	// reuse the bytes.
	bodies := make([][]byte, len(req.Jobs))
	for i, jr := range req.Jobs {
		bb, err := json.Marshal(service.JobsRequest{Jobs: []service.JobRequest{jr}})
		if err != nil {
			code = http.StatusBadRequest
			g.writeError(w, code, "jobs[%d]: encode: %v", i, err)
			return
		}
		bodies[i] = bb
	}

	if g.available() == 0 {
		// Headers must precede the stream; per-job fallback later in
		// the batch is visible on /metrics instead.
		w.Header().Set(DegradedHeader, "local")
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(req.Jobs)
	results := make([][]byte, n)
	readyCh := make(chan int, n)
	sem := make(chan struct{}, g.cfg.MaxInflight)
	for i := range req.Jobs {
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = g.runJob(jctx, i, req.Jobs[i], bodies[i])
			readyCh <- i
		}(i)
	}

	// Ordered prefix delivery: flush line i once jobs 0..i are done.
	ready := make([]bool, n)
	next := 0
	for received := 0; received < n && next < n; received++ {
		ready[<-readyCh] = true
		for next < n && ready[next] {
			if results[next] == nil {
				// The client went away mid-batch; stop delivering.
				return
			}
			if _, err := w.Write(results[next]); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			next++
		}
	}
}

// --- /v1 proxying ---

// memResponse buffers a locally served HTTP response so /v1 fallback
// answers carry exactly the bytes a single-node daemon would send.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newMemResponse() *memResponse {
	return &memResponse{header: http.Header{}, code: http.StatusOK}
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// proxyHandler builds a /v1 endpoint: route by source, forward with the
// recovery ladder, and fall back to serving the request on the embedded
// service — whose handlers produce byte-identical responses — when the
// fleet cannot answer.
func (g *Gateway) proxyHandler(endpoint, path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if g.rec != nil {
			ctx = obs.WithRecorder(ctx, g.rec)
		}
		ctx, span := obs.StartSpan(ctx, "gateway-"+endpoint)
		code := http.StatusOK
		defer func() {
			if span != nil {
				span.SetAttr("code", code)
				span.End()
			}
			g.met.observe(endpoint, code)
		}()

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxRequestBytes))
		if err != nil {
			code = http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			g.writeError(w, code, "read request body: %v", err)
			return
		}
		// A loose decode for routing only; the backend (or the local
		// service) does the strict validation.
		var probe struct {
			Workload string `json:"workload"`
			Asm      string `json:"asm"`
			Scale    int    `json:"scale"`
		}
		_ = json.Unmarshal(body, &probe)
		key := g.local.RouteKey(probe.Workload, probe.Asm, probe.Scale)
		if span != nil {
			span.SetAttr("key", key)
		}

		// 5xx and 429 are failures: another replica may do better. Any
		// other status, 4xx included, is final: every replica would
		// answer it identically.
		resp, b, err := dispatch(g, ctx, key, func(ctx context.Context, b *backend) (proxyResp, error) {
			resp, err := g.fetch(ctx, b, http.MethodPost, path, body)
			if err == nil && (resp.code >= 500 || resp.code == http.StatusTooManyRequests) {
				err = statusError(b, resp.code)
			}
			return resp, err
		})
		if err != nil {
			if ctx.Err() != nil {
				code = http.StatusServiceUnavailable
				g.writeError(w, code, "request cancelled: %v", ctx.Err())
				return
			}
			// Degraded mode: serve the original request on the embedded
			// service for byte-identical single-node semantics.
			g.met.fallbackLocal.Add(1)
			if span != nil {
				span.SetAttr("fallback", "local")
			}
			g.log.Warn("gateway: local fallback", "endpoint", endpoint, "key", key, "err", err)
			lr := r.Clone(ctx)
			lr.Body = io.NopCloser(bytes.NewReader(body))
			lr.ContentLength = int64(len(body))
			mem := newMemResponse()
			g.local.ServeHTTP(mem, lr)
			resp = proxyResp{code: mem.code, contentType: mem.header.Get("Content-Type"), body: mem.body.Bytes()}
			w.Header().Set(DegradedHeader, "local")
		} else if span != nil {
			span.SetAttr("backend", b.url)
		}
		code = resp.code
		if resp.contentType != "" {
			w.Header().Set("Content-Type", resp.contentType)
		}
		w.WriteHeader(resp.code)
		w.Write(resp.body)
	}
}

// handleWorkloads proxies the static workload list (any replica agrees)
// with local fallback.
func (g *Gateway) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	for _, idx := range g.ring.ordered("workloads") {
		b := g.backends[idx]
		if !b.healthy.Load() {
			continue
		}
		resp, err := g.fetch(ctx, b, http.MethodGet, "/v1/workloads", nil)
		if err == nil && resp.code == http.StatusOK {
			w.Header().Set("Content-Type", resp.contentType)
			w.WriteHeader(resp.code)
			w.Write(resp.body)
			return
		}
	}
	lr := r.Clone(ctx)
	mem := newMemResponse()
	g.local.ServeHTTP(mem, lr)
	w.Header().Set(DegradedHeader, "local")
	if ct := mem.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(mem.code)
	w.Write(mem.body.Bytes())
}

// --- helpers ---

func (g *Gateway) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(service.Error{Message: fmt.Sprintf(format, args...)})
}

// handleTraceRecent mirrors the backend endpoint for the gateway's own
// span trees.
func (g *Gateway) handleTraceRecent(w http.ResponseWriter, r *http.Request) {
	if g.rec == nil {
		g.writeError(w, http.StatusNotFound, "trace recorder disabled")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(service.TraceRecent{Traces: g.rec.Recent()})
}
