package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dvi/internal/service"
	"dvi/internal/workload"
)

// The serve workload: one dvid daemon (service.Server on a loopback
// listener, 2 engine workers) driven in a closed loop by one client
// connection — dvid callers wait for their replies. It exercises the
// daemon's own layers and per-request build and annotate work; the ooo
// core runs as thousands of short resets rather than long runs.
//
// One caller, not two: the callers run in the benchmark's process, and
// two of them kept both vCPUs of the 2-vCPU hosts busy (98%). A
// saturated run's speed follows whatever CPU share the host grants at
// that minute, so its metrics spread by 11–30% across runs; one caller
// leaves headroom, and in a calm stretch of the host the same metrics
// spread by 2–5% across six runs.

const (
	serveConns = 1    // closed-loop callers of serve
	fleetConns = 2    // closed-loop callers of fleet (the fleet idles on hedges)
	blockOps   = 256  // requests per wall_s block
	tracedOps  = 1500 // operations in a traced run's window
	bigRing    = 1 << 14
)

// serviceConfig is the daemon configuration the benchmark runs.
func serviceConfig(workers int) service.Config {
	return service.Config{Workers: workers}
}

// daemon is one HTTP server on a loopback listener.
type daemon struct {
	hs   *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{hs: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // http.ErrServerClosed once close runs
	}()
	return d, nil
}

// close stops the server and waits for its serve loop to exit.
func (d *daemon) close() {
	d.hs.Close()
	<-d.done
}

// clientRT is the client connections' transport. Traced, it opens a
// client span per request and passes its ID to the server side.
type clientRT struct {
	base http.RoundTripper
	t    *tracer
}

const parentHeader = "X-Bench-Parent"

func (rt *clientRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if rt.t == nil {
		return rt.base.RoundTrip(r)
	}
	id := spanOf(r.Context())
	r = r.Clone(r.Context())
	r.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	r.Header.Set("X-Request-Id", "b"+strconv.FormatInt(id, 10))
	return rt.base.RoundTrip(r)
}

// newTransport is a client transport with a connection for each caller
// of either workload.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: fleetConns, MaxIdleConnsPerHost: fleetConns, DisableCompression: true}
}

// handlerSpans wraps a server's handler in a benchmark span per request,
// parented on the caller's span; rids maps X-Request-Id values to the
// span, so the server's own span trees can be folded under it.
type handlerSpans struct {
	t    *tracer
	name string
	next http.Handler

	mu   sync.Mutex
	rids map[string]int64
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Health probes are the gateway's own traffic, not requests of the mix.
	if h.t == nil || r.URL.Path == "/healthz" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
	ctx, sp := h.t.startUnder(r.Context(), parent, h.name)
	if rid := r.Header.Get("X-Request-Id"); rid != "" {
		h.mu.Lock()
		h.rids[rid] = sp.id()
		h.mu.Unlock()
	}
	h.next.ServeHTTP(w, r.WithContext(ctx))
	sp.end()
}

// foldTraces fetches a server's retained span trees and folds each under
// the handler span of its request.
func (h *handlerSpans) foldTraces(ctx context.Context, base string) error {
	if h.t == nil {
		return nil
	}
	var tr service.TraceRecent
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/trace/recent", nil)
	if err != nil {
		return err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&tr); err != nil {
		return fmt.Errorf("trace/recent: %w", err)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, root := range tr.Traces {
		rid, _ := root.Attrs["request_id"].(string)
		if parent, ok := h.rids[rid]; ok {
			h.t.foldObs(parent, root)
		}
	}
	return nil
}

// record is one completed operation.
type record struct {
	class string
	ms    float64
	done  time.Time
	sim   simCount
	err   error
}

// simCount is what one operation's answers simulated.
type simCount struct {
	committed, cycles uint64
	annotates         int
	jobs              int // answers received (jobs and workload listings)
}

func (s *simCount) add(line service.JobResult) {
	s.jobs++
	switch {
	case line.Simulate != nil:
		s.committed += line.Simulate.Stats.Committed
		s.cycles += line.Simulate.Stats.Cycles
	case line.Annotate != nil:
		s.annotates++
	}
}

// loop drives the closed loop: conns callers each send their next
// operation only after the previous one returned. It stops once the
// window has passed and at least minOps operations completed, or after
// exactly maxOps operations when maxOps > 0.
func loop(ctx context.Context, t *tracer, st *stream, conns int, window time.Duration, minOps, maxOps int,
	do func(context.Context, op) (simCount, error)) (recs []record, start time.Time) {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sent int
	)
	start = time.Now()
	deadline := start.Add(window)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := maxOps > 0 && sent >= maxOps ||
					maxOps == 0 && time.Now().After(deadline) && len(recs) >= minOps
				if !stop {
					sent++
				}
				mu.Unlock()
				if stop {
					return
				}
				o := st.next()
				octx, sp := t.start(ctx, "bench.client")
				sp.set("class", o.class)
				t0 := time.Now()
				sc, err := do(octx, o)
				now := time.Now()
				sp.end()
				mu.Lock()
				recs = append(recs, record{o.class, float64(now.Sub(t0)) / float64(time.Millisecond), now, sc, err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, start
}

// tally folds a window's records into the outcome.
func tally(out *outcome, recs []record, start time.Time) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].done.Before(recs[j].done) })
	prev := start
	for i, r := range recs {
		out.attempted++
		if r.err != nil {
			out.fail("%s: %v", r.class, r.err)
		}
		out.lat = append(out.lat, r.ms)
		if (i+1)%blockOps == 0 {
			out.units = append(out.units, r.done.Sub(prev).Seconds())
			prev = r.done
		}
	}
	if len(recs) > 0 {
		out.ops += int64(len(recs))
		out.busy += recs[len(recs)-1].done.Sub(start).Seconds()
	}
}

// execOp sends one operation through client and checks every answer
// against its pin. An op fails on a transport error, a non-2xx status,
// a truncated /v2 stream or a counter mismatch.
func execOp(ctx context.Context, c *service.Client, pins *pinSet, o op) (simCount, error) {
	var sc simCount
	switch o.path {
	case "get":
		ws, err := c.Workloads(ctx)
		if err != nil {
			return sc, err
		}
		if len(ws) != len(workload.Names()) {
			return sc, fmt.Errorf("workloads: %d listed, want %d", len(ws), len(workload.Names()))
		}
		sc.jobs++
		return sc, nil
	case "v2":
		reqs := make([]service.JobRequest, len(o.jobs))
		for i, e := range o.jobs {
			reqs[i] = e.req
		}
		var bad error
		err := c.RunJobs(ctx, reqs, func(line service.JobResult) error {
			if line.Index < 0 || line.Index >= len(o.jobs) {
				return fmt.Errorf("/v2 line index %d of %d", line.Index, len(o.jobs))
			}
			if err := pins.check(o.jobs[line.Index].id, line); err != nil && bad == nil {
				bad = err
			}
			sc.add(line)
			return nil
		})
		if err != nil {
			return sc, err
		}
		return sc, bad
	}
	e := o.jobs[0]
	line := service.JobResult{Kind: e.req.Kind}
	var err error
	switch e.req.Kind {
	case "simulate":
		var r service.SimulateResponse
		r, err = c.Simulate(ctx, *e.req.Simulate)
		line.Simulate = &r
	case "ctxswitch":
		var r service.CtxSwitchResponse
		r, err = c.CtxSwitch(ctx, *e.req.CtxSwitch)
		line.CtxSwitch = &r
	case "annotate":
		var r service.AnnotateResponse
		r, err = c.Annotate(ctx, *e.req.Annotate)
		line.Annotate = &r
	}
	if err != nil {
		return sc, err
	}
	sc.add(line)
	return sc, pins.check(e.id, line)
}

// warm sends each warm-up request once; set-up is not done until every
// build key the mix uses is built.
func warm(ctx context.Context, c *service.Client, reqs []service.SimulateRequest) error {
	for _, req := range reqs {
		if _, err := c.Simulate(ctx, req); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// serveRig is one started daemon with its client.
type serveRig struct {
	srv    *service.Server
	d      *daemon
	hspans *handlerSpans
	tr     *http.Transport
	client *service.Client
}

func (r *serveRig) close() {
	r.tr.CloseIdleConnections()
	r.d.close()
}

// startServe is one timed cold set-up: daemon construction, listener,
// the first health round and one warm-up request per build key.
func startServe(ctx context.Context, t *tracer) (*serveRig, float64, error) {
	runtime.GC()
	start := time.Now()
	cfg := serviceConfig(engineWorkers)
	if t != nil {
		cfg.TraceRing = bigRing
	}
	rig := &serveRig{srv: service.New(cfg), tr: newTransport()}
	rig.hspans = &handlerSpans{t: t, name: "bench.handler", next: rig.srv, rids: map[string]int64{}}
	d, err := listen(rig.hspans)
	if err != nil {
		return nil, 0, err
	}
	rig.d = d
	rig.client = service.NewClient("http://"+d.addr, &http.Client{Transport: &clientRT{base: rig.tr, t: t}},
		service.WithRequestTimeout(60*time.Second))
	if _, err := rig.client.Health(ctx); err != nil {
		rig.close()
		return nil, 0, fmt.Errorf("health: %w", err)
	}
	if err := warm(ctx, rig.client, warmups()); err != nil {
		rig.close()
		return nil, 0, err
	}
	return rig, time.Since(start).Seconds(), nil
}

func runServe(c *runCfg) (*outcome, error) {
	ctx := context.Background()
	// The stream generates every client program now, before anything is
	// measured.
	st := newStream(c.seed, serveMix)
	if c.traced {
		return traceServe(ctx, c, st)
	}
	resetPeakRSS()
	out := &outcome{}
	var rig *serveRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	setup := func() (float64, error) {
		if rig != nil {
			rig.close()
		}
		r, s, err := startServe(ctx, nil)
		rig = r
		return s, err
	}
	if err := timeSetups(out, setup); err != nil {
		return nil, err
	}
	runtime.GC()
	recs, start := loop(ctx, nil, st, serveConns, c.seconds, samplesFor(99), 0,
		func(ctx context.Context, o op) (simCount, error) { return execOp(ctx, rig.client, c.pins, o) })
	tally(out, recs, start)
	if err := timeSetups(out, setup); err != nil {
		return nil, err
	}
	recordUntraced("serve", out.busy/float64(out.ops))
	return out, nil
}

// traceServe is the traced run: one traced set-up, then a fixed prefix
// of tracedOps requests of the stream, the window the per-layer metrics
// describe.
func traceServe(ctx context.Context, c *runCfg, st *stream) (*outcome, error) {
	t := newTracer()
	rig, _, err := startServe(ctx, t)
	if err != nil {
		return nil, err
	}
	defer rig.close()
	base := "http://" + rig.d.addr
	before, err := scrape(ctx, base)
	if err != nil {
		return nil, err
	}
	eng := snapEngines(rig.srv.Session())
	runtime.GC()
	from := t.now()
	recs, start := loop(ctx, t, st, serveConns, 0, 0, tracedOps,
		func(ctx context.Context, o op) (simCount, error) { return execOp(ctx, rig.client, c.pins, o) })
	to := t.now()
	out := &outcome{}
	tally(out, recs, start)
	printClasses("serve", recs)
	after, err := scrape(ctx, base)
	if err != nil {
		return nil, err
	}
	if err := rig.hspans.foldTraces(ctx, base); err != nil {
		return nil, err
	}
	L := newLayers()
	all := t.all()
	spans := within(all, from, to)
	by := sumByName(spans)
	serviceLayers(L, spans, by, recs, out.busy, engineWorkers)
	engineLayers(L, eng, snapEngines(rig.srv.Session()))
	setupLayers(L, all)
	L["service.rejected"] = after.sum("dvid_admission_rejected_total") - before.sum("dvid_admission_rejected_total")
	L["service.overhead_ms"] = msPer(by["bench.client"].own, by["bench.client"].n)
	L["obs.trace_overhead"] = traceOverhead("serve", out.busy/float64(out.ops))
	out.layers = L
	printLayers("serve", L)
	return out, nil
}

// printClasses prints a traced window's per-class latency quantiles, so
// the mix can be checked for class boundaries near p50 and p99.
func printClasses(name string, recs []record) {
	by := map[string][]float64{}
	var all []float64
	for _, r := range recs {
		by[r.class] = append(by[r.class], r.ms)
		all = append(all, r.ms)
	}
	for _, l := range classQuantiles(by, all) {
		fmt.Fprintln(os.Stderr, "perfbench:", name, l)
	}
}

// serviceLayers derives the daemon-side layer metrics from the folded
// span trees of one traced window: the ooo core, ctxswitch, runner,
// annotation and the service's own phases.
func serviceLayers(L map[string]float64, spans []span, by map[string]layerSum, recs []record, window float64, workers int) {
	var committed, cycles uint64
	var annotates int
	var clientTime float64
	for _, r := range recs {
		committed += r.sim.committed
		cycles += r.sim.cycles
		annotates += r.sim.annotates
		clientTime += r.ms / 1000
	}
	L["sim.committed"] = float64(committed)
	L["sim.cycles"] = float64(cycles)
	timing := by["timing"]
	L["ooo.runs"] = float64(timing.n)
	L["ooo.busy_s"] = timing.own.Seconds()
	L["ooo.ns_per_inst"] = nsPer(timing.own, committed)
	L["ooo.share"] = share(timing.own.Seconds(), clientTime)
	L["emu.busy_s"] = by["functional"].own.Seconds()
	L["ctxswitch.busy_s"] = by["ctxswitch"].own.Seconds()
	L["runner.jobs"] = float64(by["job"].n)
	L["runner.queue_wait_s"] = attrSum(spans, "job", "queue_wait_ms") / 1000
	L["runner.utilization"] = share(by["job"].total.Seconds(), window*float64(workers))
	L["rewrite.annotate_calls"] = float64(annotates)
	annExec, annN := annotateExec(spans)
	L["rewrite.annotate_ms"] = msPer(annExec, annN)
	L["service.requests"] = float64(by["bench.handler"].n)
	L["service.execute_ms"] = msPer(by["execute"].total, by["execute"].n)
	L["service.queue_wait_ms"] = msPer(by["queue-wait"].total, by["queue-wait"].n)
	L["service.render_s"] = by["render"].total.Seconds()
}

// annotateExec sums the execute time of /v1/annotate requests.
func annotateExec(spans []span) (time.Duration, int) {
	roots := map[int64]bool{}
	for _, s := range spans {
		if s.name == "annotate" {
			roots[s.id] = true
		}
	}
	var d time.Duration
	for _, s := range spans {
		if s.name == "execute" && roots[s.parent] {
			d += s.dur()
		}
	}
	return d, len(roots)
}

// metricsText is a scraped /metrics exposition: series → value.
type metricsText map[string]float64

func scrape(ctx context.Context, base string) (metricsText, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", res.StatusCode)
	}
	m := metricsText{}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// sum adds every series of a metric family (all label sets).
func (m metricsText) sum(name string) float64 {
	var s float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
