package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/gateway"
	"dvi/internal/service"
	"dvi/internal/session"
	"dvi/internal/store"
)

// The fleet workload: gateway.Gateway in front of two single-worker dvid
// backends restarted on artifact stores an untimed pre-pass warmed. The
// clients send the serve request kinds except new client programs over
// all three gateway send paths (/v1 POST, /v2 per-job, GET
// /v1/workloads). Backend b delays a seeded few percent of its job
// requests well past the gateway's HedgeAfter, so hedging decides the
// tail. serve is this workload's bypass: the same kinds of requests
// without the gateway hop.
//
// The backends have fixed logical URLs that the gateway's transport
// dials to their real loopback ports, so the consistent-hash ring splits
// keys the same way on every run instead of following ephemeral ports.

const (
	slowBackend = 1                      // index of the backend that delays requests
	delayPeriod = 10                     // it delays one in this many of its job requests
	delayBy     = 600 * time.Millisecond // well past gateway.DefaultHedgeAfter
)

var backendURLs = []string{"http://backend-a", "http://backend-b"}

// jobPath reports whether a request is a job the slow backend may
// delay; health probes must never be delayed, or the gateway's health
// checker (which times out at HealthInterval) would eject the backend.
func jobPath(p string) bool {
	return p == "/v2/jobs" || p == "/v1/simulate" || p == "/v1/annotate" || p == "/v1/ctxswitch"
}

// backendRig is one dvid backend on its store. Requests reach it
// through hspans, so a delay counts as the backend's own time.
type backendRig struct {
	st     *store.Store
	srv    *service.Server
	d      *daemon
	hspans *handlerSpans

	// The slow backend's fault schedule: once period is set (after
	// set-up), job request k is delayed iff (k+offset) % period == 0.
	// A counter, not independent draws, so every run and every seed
	// delays the same share of requests; the seed sets the phase.
	period, offset atomic.Int64
	seen, delayed  atomic.Int64
}

func (b *backendRig) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p := b.period.Load(); p > 0 && jobPath(r.URL.Path) {
		if (b.seen.Add(1)+b.offset.Load())%p == 0 {
			b.delayed.Add(1)
			select {
			case <-time.After(delayBy):
			case <-r.Context().Done():
				return // the gateway's hedge won; nobody reads this answer
			}
		}
	}
	b.srv.ServeHTTP(w, r)
}

// fleetRT is the gateway's backend transport: it dials the logical
// backend URLs to their listeners and, traced, records one span per
// attempt under the gateway request that made it.
type fleetRT struct {
	base *http.Transport
	t    *tracer
}

func newFleetRT(t *tracer, addrs map[string]string) *fleetRT {
	var dialer net.Dialer
	tr := &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("perfbench: no backend at %s", addr)
			}
			return dialer.DialContext(ctx, network, real)
		},
	}
	return &fleetRT{base: tr, t: t}
}

func (rt *fleetRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if rt.t == nil || r.URL.Path == "/healthz" {
		return rt.base.RoundTrip(r)
	}
	_, sp := rt.t.start(r.Context(), "bench.attempt")
	sp.set("backend", r.URL.Host)
	r = r.Clone(r.Context())
	r.Header.Set(parentHeader, strconv.FormatInt(sp.id(), 10))
	r.Header.Set("X-Request-Id", "a"+strconv.FormatInt(sp.id(), 10))
	res, err := rt.base.RoundTrip(r)
	if err != nil {
		sp.end()
		return nil, err
	}
	res.Body = &endOnClose{ReadCloser: res.Body, sp: sp}
	return res, nil
}

// endOnClose ends an attempt span when the gateway is done with the
// response body.
type endOnClose struct {
	io.ReadCloser
	sp   *live
	once sync.Once
}

func (e *endOnClose) Close() error {
	e.once.Do(e.sp.end)
	return e.ReadCloser.Close()
}

// fleetRig is one started fleet.
type fleetRig struct {
	backends []*backendRig
	gw       *gateway.Gateway
	rt       *fleetRT
	gd       *daemon
	tr       *http.Transport
	client   *service.Client
}

func (f *fleetRig) close() {
	f.tr.CloseIdleConnections()
	if f.gd != nil {
		f.gd.close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	if f.rt != nil {
		f.rt.base.CloseIdleConnections()
	}
	for _, b := range f.backends {
		if b.d != nil {
			b.d.close()
		}
	}
}

// startFleet opens the stores, starts both backends and the gateway,
// runs the first health round and sends one warm-up request per build
// key through the gateway. With warm stores that is the restart path:
// every warm-up is answered from a store with zero compiles.
func startFleet(ctx context.Context, t *tracer, dir string, seed int64) (*fleetRig, error) {
	addrs := map[string]string{}
	f := &fleetRig{tr: newTransport()}
	for i, u := range backendURLs {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store-"+strconv.Itoa(i))})
		if err != nil {
			f.close()
			return nil, err
		}
		cfg := backendConfig(st)
		if t != nil {
			cfg.TraceRing = bigRing
		}
		b := &backendRig{st: st, srv: service.New(cfg)}
		b.hspans = &handlerSpans{t: t, name: "bench.backend", next: b, rids: map[string]int64{}}
		d, err := listen(b.hspans)
		if err != nil {
			f.close()
			return nil, err
		}
		b.d = d
		f.backends = append(f.backends, b)
		addrs[strings.TrimPrefix(u, "http://")+":80"] = d.addr
	}
	f.rt = newFleetRT(t, addrs)
	gcfg := gateway.Config{Backends: backendURLs, Local: service.New(serviceConfig(1)), Transport: f.rt, Seed: seed}
	if t != nil {
		gcfg.TraceRing = bigRing
	}
	gw, err := gateway.New(gcfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	gw.CheckNow(ctx)
	gw.Start(context.Background())
	gd, err := listen(&handlerSpans{t: t, name: "bench.gateway", next: gw, rids: map[string]int64{}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gd = gd
	f.client = service.NewClient("http://"+gd.addr, &http.Client{Transport: &clientRT{base: f.tr, t: t}},
		service.WithRequestTimeout(60*time.Second))
	if err := warm(ctx, f.client, warmups()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// prewarm is the untimed pre-pass: every backend builds every key once,
// so both stores hold all artifacts (the owner's and a hedge target's).
func prewarm(ctx context.Context, dir string) error {
	for i := range backendURLs {
		st, err := store.Open(store.Options{Dir: filepath.Join(dir, "store-"+strconv.Itoa(i))})
		if err != nil {
			return err
		}
		srv := service.New(backendConfig(st))
		d, err := listen(srv)
		if err != nil {
			return err
		}
		tr := newTransport()
		c := service.NewClient("http://"+d.addr, &http.Client{Transport: tr})
		err = warm(ctx, c, warmups())
		tr.CloseIdleConnections()
		d.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// backendConfig is one backend's daemon configuration: one engine
// worker, but two requests admitted at once. With one admission slot
// the two closed-loop clients would queue behind each other whenever
// the ring sends both to one backend — about half the time — which puts
// p50 on the edge between queued and unqueued requests.
func backendConfig(st *store.Store) service.Config {
	cfg := serviceConfig(1)
	cfg.MaxConcurrent = fleetConns
	cfg.Store = st
	return cfg
}

// compiles sums the backends' compile invocations since their restart.
func (f *fleetRig) compiles() int64 {
	var n int64
	for _, b := range f.backends {
		n += b.srv.Engine().Cache().Compiles()
	}
	return n
}

// delay starts the slow backend's fault schedule, its phase from seed.
func (f *fleetRig) delay(seed int64) {
	b := f.backends[slowBackend]
	b.offset.Store((seed%delayPeriod + delayPeriod) % delayPeriod)
	b.period.Store(delayPeriod)
}

// rejected sums the backends' admission rejections.
func (f *fleetRig) rejected(ctx context.Context) (float64, error) {
	var n float64
	for _, b := range f.backends {
		m, err := scrape(ctx, "http://"+b.d.addr)
		if err != nil {
			return 0, err
		}
		n += m.sum("dvid_admission_rejected_total")
	}
	return n, nil
}

func (f *fleetRig) sessions() []*session.Session {
	var ss []*session.Session
	for _, b := range f.backends {
		ss = append(ss, b.srv.Session())
	}
	return ss
}

func runFleet(c *runCfg) (*outcome, error) {
	ctx := context.Background()
	// The stream generates the client programs and the pre-pass warms
	// the stores now, before anything is measured.
	st := newStream(c.seed, fleetMix)
	if err := prewarm(ctx, c.dir); err != nil {
		return nil, fmt.Errorf("pre-pass: %w", err)
	}
	if c.traced {
		return traceFleet(ctx, c, st)
	}
	resetPeakRSS()
	out := &outcome{}
	var f *fleetRig
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	setup := func() (float64, error) {
		if f != nil {
			f.close()
		}
		runtime.GC()
		start := time.Now()
		r, err := startFleet(ctx, nil, c.dir, c.seed)
		f = r
		if err != nil {
			return 0, err
		}
		setup := time.Since(start).Seconds()
		if n := f.compiles(); n != 0 {
			out.fail("fleet restart compiled %d binaries; the warm stores should serve every key", n)
		}
		return setup, nil
	}
	if err := timeSetups(out, setup); err != nil {
		return nil, err
	}
	f.delay(c.seed)
	runtime.GC()
	recs, start := loop(ctx, nil, st, fleetConns, c.seconds, samplesFor(99), 0,
		func(ctx context.Context, o op) (simCount, error) { return execOp(ctx, f.client, c.pins, o) })
	tally(out, recs, start)
	if err := timeSetups(out, setup); err != nil {
		return nil, err
	}
	recordUntraced("fleet", out.busy/float64(out.ops))
	return out, nil
}

// traceFleet is the traced run: one traced restart of the fleet on the
// warm stores, then a fixed prefix of tracedOps requests of the stream,
// the window the per-layer metrics describe.
func traceFleet(ctx context.Context, c *runCfg, st *stream) (*outcome, error) {
	out := &outcome{}
	t := newTracer()
	f, err := startFleet(ctx, t, c.dir, c.seed)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if n := f.compiles(); n != 0 {
		out.fail("fleet restart compiled %d binaries; the warm stores should serve every key", n)
	}
	gwBase := "http://" + f.gd.addr
	gwBefore, err := scrape(ctx, gwBase)
	if err != nil {
		return nil, err
	}
	rejBefore, err := f.rejected(ctx)
	if err != nil {
		return nil, err
	}
	eng := snapEngines(f.sessions()...)
	f.delay(c.seed)
	runtime.GC()
	from := t.now()
	recs, start := loop(ctx, t, st, fleetConns, 0, 0, tracedOps,
		func(ctx context.Context, o op) (simCount, error) { return execOp(ctx, f.client, c.pins, o) })
	to := t.now()
	tally(out, recs, start)
	printClasses("fleet", recs)
	gwAfter, err := scrape(ctx, gwBase)
	if err != nil {
		return nil, err
	}
	rejAfter, err := f.rejected(ctx)
	if err != nil {
		return nil, err
	}
	for _, b := range f.backends {
		if err := b.hspans.foldTraces(ctx, "http://"+b.d.addr); err != nil {
			return nil, err
		}
	}

	L := newLayers()
	all := t.all()
	spans := within(all, from, to)
	by := sumByName(spans)
	serviceLayers(L, spans, by, recs, out.busy, len(f.backends))
	engineLayers(L, eng, snapEngines(f.sessions()...))
	setupLayers(L, all)
	L["service.requests"] = float64(by["bench.backend"].n)
	attempts := by["bench.attempt"]
	L["service.overhead_ms"] = msPer(attempts.own, attempts.n)
	L["service.rejected"] = rejAfter - rejBefore

	delta := func(name string) float64 { return gwAfter.sum(name) - gwBefore.sum(name) }
	L["gateway.hop_ms"] = msPer(by["bench.gateway"].own, by["bench.gateway"].n)
	L["gateway.attempts"] = float64(attempts.n)
	L["gateway.hedges"] = delta("dvid_hedges_total")
	L["gateway.hedge_wins"] = delta("dvid_hedge_wins_total")
	L["gateway.retries"] = delta("dvid_retries_total")
	L["gateway.fallback_local"] = delta("dvid_gateway_fallback_local_total")
	useful := 0
	perBackend := map[string]int{}
	for _, s := range spans {
		if s.name == "bench.attempt" {
			if h, ok := s.attrs["backend"].(string); ok {
				perBackend[h]++
			}
		}
	}
	for _, r := range recs {
		useful += r.sim.jobs
	}
	L["gateway.wasted_ratio"] = 1 - share(float64(useful), float64(attempts.n))
	L["gateway.backend_share"] = share(float64(perBackend[strings.TrimPrefix(backendURLs[0], "http://")]), float64(attempts.n))

	// The store is set-up work: its stats and reads count from the traced
	// restart on, like build.count.
	var gets, hits, quarantined int64
	var getTime time.Duration
	var getN int
	for _, b := range f.backends {
		s := b.st.Stats()
		gets += s.Hits + s.Misses
		hits += s.Hits
		quarantined += s.Quarantined
	}
	L["store.gets"] = float64(gets)
	L["store.hits"] = float64(hits)
	L["store.quarantined"] = float64(quarantined)
	// A store Get is not spanned inside the program, so the benchmark
	// times it from outside: one verified Get of every stored artifact.
	keys := map[string]bool{}
	for _, s := range all {
		if k, ok := s.attrs["key"].(string); ok && s.name == "store-decode" {
			keys[k] = true
		}
	}
	for _, b := range f.backends {
		for k := range keys {
			t0 := time.Now()
			if _, ok := b.st.Get(store.BuildKind, k); ok {
				getTime += time.Since(t0)
				getN++
			}
		}
	}
	L["store.get_ms"] = msPer(getTime, getN)
	L["obs.trace_overhead"] = traceOverhead("fleet", out.busy/float64(out.ops))
	out.layers = L
	slow := f.backends[slowBackend]
	fmt.Fprintf(os.Stderr, "perfbench: fleet backend %s delayed %d of %d job requests\n",
		backendURLs[slowBackend], slow.delayed.Load(), slow.seen.Load())
	printLayers("fleet", L)
	return out, nil
}
