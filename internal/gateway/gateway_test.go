package gateway_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvi/internal/faults"
	"dvi/internal/gateway"
	"dvi/internal/prog"
	"dvi/internal/service"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// fastConfig keeps the recovery ladder's timers test-sized.
func fastConfig(backends []string, local *service.Server) gateway.Config {
	return gateway.Config{
		Backends:        backends,
		Local:           local,
		RequestTimeout:  5 * time.Second,
		HedgeAfter:      50 * time.Millisecond,
		Retries:         3,
		BackoffBase:     5 * time.Millisecond,
		BackoffCap:      50 * time.Millisecond,
		BreakerFailures: 3,
		BreakerCooldown: 200 * time.Millisecond,
		HealthInterval:  time.Second,
		Seed:            1,
	}
}

// logicalFleet returns a backend transport that dials each of names
// (fixed logical backend URLs) to the matching server's listener. The
// ring places keys by backend URL and an httptest URL carries a random
// port, so a test whose assertions need a given backend to own some of
// its keys names its backends this way, as perfbench's fleet does.
func logicalFleet(names []string, servers ...*httptest.Server) *http.Transport {
	addrs := map[string]string{}
	for i, ts := range servers {
		addrs[strings.TrimPrefix(names[i], "http://")+":80"] = ts.Listener.Addr().String()
	}
	var d net.Dialer
	return &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		real, ok := addrs[addr]
		if !ok {
			return nil, fmt.Errorf("no test backend at %s", addr)
		}
		return d.DialContext(ctx, network, real)
	}}
}

func post(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return res.StatusCode, res.Header, b
}

// mixedBatch builds an n-job batch over every job kind and several
// workloads; deterministic content so responses are comparable across
// topologies.
func mixedBatch(n int) string {
	var jobs []string
	workloads := []string{"compress", "li", "go", "gcc"}
	for i := 0; i < n; i++ {
		w := workloads[i%len(workloads)]
		switch i % 3 {
		case 0:
			jobs = append(jobs, fmt.Sprintf(
				`{"kind":"simulate","simulate":{"workload":%q,"max_insts":%d}}`, w, 30000+1000*(i%5)))
		case 1:
			jobs = append(jobs, fmt.Sprintf(
				`{"kind":"annotate","annotate":{"workload":%q}}`, w))
		default:
			jobs = append(jobs, fmt.Sprintf(
				`{"kind":"ctxswitch","ctxswitch":{"workload":%q,"interval":97,"max_insts":50000}}`, w))
		}
	}
	return `{"jobs":[` + strings.Join(jobs, ",") + `]}`
}

// singleNodeBytes runs batch against a plain single-node daemon — the
// byte-identity reference for every gateway topology.
func singleNodeBytes(t *testing.T, batch string) []byte {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	code, _, body := post(t, ts.URL+"/v2/jobs", batch)
	if code != http.StatusOK {
		t.Fatalf("reference batch: HTTP %d: %s", code, body)
	}
	return body
}

func gatewayMetric(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, _ := io.ReadAll(res.Body)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(b)
	if m == nil {
		t.Fatalf("series %s missing from gateway /metrics:\n%s", name, b)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGatewayBatchMatchesSingleNode is the healthy-path contract: a /v2
// batch through a two-backend gateway streams exactly the bytes a
// single-node daemon would, in order, with no degraded marker.
func TestGatewayBatchMatchesSingleNode(t *testing.T) {
	b1 := httptest.NewServer(service.New(service.Config{}))
	defer b1.Close()
	b2 := httptest.NewServer(service.New(service.Config{}))
	defer b2.Close()
	local := service.New(service.Config{})
	gw, err := gateway.New(fastConfig([]string{b1.URL, b2.URL}, local))
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	batch := mixedBatch(16)
	want := singleNodeBytes(t, batch)
	code, hdr, got := post(t, gts.URL+"/v2/jobs", batch)
	if code != http.StatusOK {
		t.Fatalf("gateway batch: HTTP %d: %s", code, got)
	}
	if hdr.Get(gateway.DegradedHeader) != "" {
		t.Fatal("healthy fleet answered with the degraded header")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("gateway bytes differ from single node:\ngot:  %s\nwant: %s", got, want)
	}

	// Validation parity: a bad job rejects the whole batch with the
	// same 400 body a single-node daemon produces.
	bad := `{"jobs":[{"kind":"simulate","simulate":{"workload":"compress"}},{"kind":"simulate","simulate":{"workload":"nope"}}]}`
	sn := httptest.NewServer(service.New(service.Config{}))
	defer sn.Close()
	wantCode, _, wantBody := post(t, sn.URL+"/v2/jobs", bad)
	gotCode, _, gotBody := post(t, gts.URL+"/v2/jobs", bad)
	if gotCode != wantCode || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("validation parity: gateway (%d, %s) vs single node (%d, %s)",
			gotCode, gotBody, wantCode, wantBody)
	}
}

// TestGatewayProxyV1MatchesSingleNode covers the /v1 passthrough and
// its local fallback: both healthy and fleet-down answers must be
// byte-identical to a single-node daemon's.
func TestGatewayProxyV1MatchesSingleNode(t *testing.T) {
	req := `{"workload":"compress","max_insts":50000}`
	sn := httptest.NewServer(service.New(service.Config{}))
	defer sn.Close()
	_, _, want := post(t, sn.URL+"/v1/simulate", req)

	backend := httptest.NewServer(service.New(service.Config{}))
	local := service.New(service.Config{})
	gw, err := gateway.New(fastConfig([]string{backend.URL}, local))
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	code, hdr, got := post(t, gts.URL+"/v1/simulate", req)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("proxied /v1: HTTP %d\ngot:  %s\nwant: %s", code, got, want)
	}
	if hdr.Get(gateway.DegradedHeader) != "" {
		t.Fatal("healthy proxy answered degraded")
	}

	// Kill the backend: the same request must fall back locally with
	// identical bytes and the degraded marker.
	backend.Close()
	gw.CheckNow(context.Background())
	code, hdr, got = post(t, gts.URL+"/v1/simulate", req)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("fallback /v1: HTTP %d\ngot:  %s\nwant: %s", code, got, want)
	}
	if hdr.Get(gateway.DegradedHeader) != "local" {
		t.Fatalf("fallback missing degraded header, got %q", hdr.Get(gateway.DegradedHeader))
	}
	if gatewayMetric(t, gts, "dvid_gateway_fallback_local_total") == 0 {
		t.Fatal("local fallback not counted")
	}
}

// TestGatewayAllBackendsDownDegradesGracefully: with every backend
// dead, a /v2 batch still completes on the embedded session,
// byte-identical, marked degraded.
func TestGatewayAllBackendsDownDegradesGracefully(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	urls := []string{dead1.URL, dead2.URL}
	dead1.Close()
	dead2.Close()

	local := service.New(service.Config{})
	gw, err := gateway.New(fastConfig(urls, local))
	if err != nil {
		t.Fatal(err)
	}
	gw.CheckNow(context.Background())
	gts := httptest.NewServer(gw)
	defer gts.Close()

	batch := mixedBatch(8)
	want := singleNodeBytes(t, batch)
	code, hdr, got := post(t, gts.URL+"/v2/jobs", batch)
	if code != http.StatusOK {
		t.Fatalf("degraded batch: HTTP %d: %s", code, got)
	}
	if hdr.Get(gateway.DegradedHeader) != "local" {
		t.Fatalf("degraded header %q, want local", hdr.Get(gateway.DegradedHeader))
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("degraded bytes differ from single node:\ngot:  %s\nwant: %s", got, want)
	}
	if gatewayMetric(t, gts, "dvid_gateway_fallback_local_total") == 0 {
		t.Fatal("local fallbacks not counted")
	}

	// The gateway's own health endpoint reports the degradation.
	res, err := http.Get(gts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), `"status":"degraded"`) {
		t.Fatalf("gateway healthz: %s", body)
	}
}

// TestGatewayWorkloadsSkipsFailingBackend: GET /v1/workloads counts
// any status but 200 as a failed backend, so a replica answering 500
// is skipped and the embedded service answers instead.
func TestGatewayWorkloadsSkipsFailingBackend(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend down", http.StatusInternalServerError)
	}))
	defer failing.Close()
	gw, err := gateway.New(fastConfig([]string{failing.URL}, service.New(service.Config{})))
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	res, err := http.Get(gts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || res.Header.Get(gateway.DegradedHeader) != "local" {
		t.Fatalf("workloads: HTTP %d, degraded %q: %s", res.StatusCode, res.Header.Get(gateway.DegradedHeader), body)
	}
	if !strings.Contains(string(body), `"compress"`) {
		t.Fatalf("workloads body: %s", body)
	}
}

// TestGatewayRetriesTransientFailures: backends that 5xx intermittently
// are retried until the batch completes byte-identically; the retry
// counter proves the ladder fired. Hedging is disabled so the test pins
// the retry path specifically — with it on, a hedge that wins before a
// slow 5xx arrives absorbs the failure without a retry, and under -race
// that races either way. Both backends carry an injector because ring
// ownership depends on the servers' random ports: with only one flaky
// backend, a run where the steady one owns every key would see no
// faults at all.
func TestGatewayRetriesTransientFailures(t *testing.T) {
	inj1 := faults.New(faults.Plan{Seed: 11, Err5xx: 0.4})
	inj2 := faults.New(faults.Plan{Seed: 12, Err5xx: 0.4})
	flaky1 := httptest.NewServer(inj1.Middleware(service.New(service.Config{})))
	defer flaky1.Close()
	flaky2 := httptest.NewServer(inj2.Middleware(service.New(service.Config{})))
	defer flaky2.Close()

	local := service.New(service.Config{})
	cfg := fastConfig([]string{flaky1.URL, flaky2.URL}, local)
	cfg.HedgeAfter = -1
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	batch := mixedBatch(24)
	want := singleNodeBytes(t, batch)
	code, _, got := post(t, gts.URL+"/v2/jobs", batch)
	if code != http.StatusOK {
		t.Fatalf("flaky batch: HTTP %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flaky-fleet bytes differ from single node:\ngot:  %s\nwant: %s", got, want)
	}
	if inj1.Counters().Errored+inj2.Counters().Errored == 0 {
		t.Fatal("fault injectors never fired — test proved nothing")
	}
	// With hedging off, every injected 5xx reached a dispatch attempt,
	// and every failed attempt below the retry cap increments the
	// counter — so faults fired implies retries fired, deterministically.
	if gatewayMetric(t, gts, "dvid_retries_total") == 0 {
		t.Fatal("no retries despite injected 5xx faults")
	}
}

// TestGatewayHedgesSlowBackend: with one backend answering slowly, the
// hedge budget sends duplicates to the fast replica and wins. The slow
// backend must own some of the batch's keys, or no job has it as primary
// and nothing is hedged; under its fixed name it owns li, go and gcc.
func TestGatewayHedgesSlowBackend(t *testing.T) {
	// The 1.5s delay is deliberately huge: under -race a saturated fast
	// backend can take hundreds of milliseconds per job, and the hedge
	// must still comfortably beat the delayed primary.
	inj := faults.New(faults.Plan{Seed: 3, DelayProb: 1.0, Delay: 1500 * time.Millisecond})
	slow := httptest.NewServer(inj.Middleware(service.New(service.Config{})))
	defer slow.Close()
	fast := httptest.NewServer(service.New(service.Config{}))
	defer fast.Close()

	local := service.New(service.Config{})
	urls := []string{"http://slow-backend", "http://fast-backend"}
	cfg := fastConfig(urls, local)
	cfg.Transport = logicalFleet(urls, slow, fast)
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	batch := mixedBatch(12)
	want := singleNodeBytes(t, batch)
	code, _, got := post(t, gts.URL+"/v2/jobs", batch)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("hedged batch: HTTP %d, identical=%v", code, bytes.Equal(got, want))
	}
	if gatewayMetric(t, gts, "dvid_hedges_total") == 0 {
		t.Fatal("no hedges launched against a uniformly slow backend")
	}
	if gatewayMetric(t, gts, "dvid_hedge_wins_total") == 0 {
		t.Fatal("hedges launched but none won against a 400ms-slower primary")
	}
}

// TestGatewayRoutesClampedScaleOnce: a backend runs a workload at no
// more than its MaxScale, so requests above it build the same binary as
// requests at it. The gateway must route them alike, through /v1 and
// /v2, so that the binary compiles once across the fleet. Under their
// fixed names the two backends own gcc at scales 8 and 9 apart.
func TestGatewayRoutesClampedScaleOnce(t *testing.T) {
	var compiles atomic.Int64
	countingCompile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		compiles.Add(1)
		return workload.CompileSpec(s, scale, opt)
	}
	a := httptest.NewServer(service.New(service.Config{Compile: countingCompile}))
	defer a.Close()
	b := httptest.NewServer(service.New(service.Config{Compile: countingCompile}))
	defer b.Close()

	urls := []string{"http://backend-a", "http://backend-b"}
	cfg := fastConfig(urls, service.New(service.Config{}))
	cfg.Transport = logicalFleet(urls, a, b)
	cfg.HedgeAfter = -1 // a hedge would compile on the other backend
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	if code, _, body := post(t, gts.URL+"/v1/simulate", `{"workload":"gcc","scale":8,"max_insts":20000}`); code != http.StatusOK {
		t.Fatalf("scale 8: HTTP %d: %s", code, body)
	}
	if code, _, body := post(t, gts.URL+"/v1/simulate", `{"workload":"gcc","scale":9,"max_insts":20000}`); code != http.StatusOK {
		t.Fatalf("scale 9: HTTP %d: %s", code, body)
	}
	batch := `{"jobs":[{"kind":"simulate","simulate":{"workload":"gcc","scale":16,"max_insts":20000}}]}`
	if code, _, body := post(t, gts.URL+"/v2/jobs", batch); code != http.StatusOK || bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("scale 16 batch: HTTP %d: %s", code, body)
	}
	if n := compiles.Load(); n != 1 {
		t.Fatalf("gcc at scales 8, 9 and 16 compiled %d times across the fleet, want 1", n)
	}
}

// TestGatewayLargeResponseNotTruncated: a backend answer bigger than
// the request-size limit must pass through intact, and one bigger than
// the response budget must become a dispatch error — answered by the
// local fallback, marked degraded — never a silently truncated 200.
func TestGatewayLargeResponseNotTruncated(t *testing.T) {
	req := `{"workload":"compress","max_insts":30000}`
	big := bytes.Repeat([]byte("x"), 64<<10)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(big)
	}))
	defer stub.Close()

	cfg := fastConfig([]string{stub.URL}, service.New(service.Config{}))
	cfg.MaxRequestBytes = 1024 // well under the stub's answer
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	code, hdr, got := post(t, gts.URL+"/v1/simulate", req)
	if code != http.StatusOK || !bytes.Equal(got, big) {
		t.Fatalf("large proxy answer: HTTP %d, %d bytes, want %d intact", code, len(got), len(big))
	}
	if hdr.Get(gateway.DegradedHeader) != "" {
		t.Fatal("healthy proxy answered degraded")
	}

	// Same stub, but now its answer exceeds the response budget: the
	// gateway must not forward a clipped body — the local fallback
	// serves the real, byte-identical response instead.
	sn := httptest.NewServer(service.New(service.Config{}))
	defer sn.Close()
	_, _, want := post(t, sn.URL+"/v1/simulate", req)

	cfg = fastConfig([]string{stub.URL}, service.New(service.Config{}))
	cfg.MaxRequestBytes = 1024
	cfg.MaxResponseBytes = 1024
	gw2, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts2 := httptest.NewServer(gw2)
	defer gts2.Close()

	code, hdr, got = post(t, gts2.URL+"/v1/simulate", req)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("over-budget answer: HTTP %d\ngot:  %.200s\nwant: %.200s", code, got, want)
	}
	if hdr.Get(gateway.DegradedHeader) != "local" {
		t.Fatalf("over-budget answer served without the degraded marker (header %q)", hdr.Get(gateway.DegradedHeader))
	}
}

// TestGatewayEjectsDrainingBackend: a backend in graceful shutdown
// reports "draining" on /healthz; the health checker must pull it from
// rotation while it still answers requests.
func TestGatewayEjectsDrainingBackend(t *testing.T) {
	svc := service.New(service.Config{})
	backend := httptest.NewServer(svc)
	defer backend.Close()

	local := service.New(service.Config{})
	gw, err := gateway.New(fastConfig([]string{backend.URL}, local))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	gw.CheckNow(ctx)
	gts := httptest.NewServer(gw)
	defer gts.Close()

	if got := gatewayMetric(t, gts, fmt.Sprintf("dvid_backend_healthy{backend=%q}", backend.URL)); got != 1 {
		t.Fatalf("serving backend unhealthy: %v", got)
	}

	svc.BeginDrain()
	gw.CheckNow(ctx)
	if got := gatewayMetric(t, gts, fmt.Sprintf("dvid_backend_healthy{backend=%q}", backend.URL)); got != 0 {
		t.Fatalf("draining backend still in rotation: %v", got)
	}

	// Traffic keeps flowing — locally, marked degraded.
	code, hdr, _ := post(t, gts.URL+"/v1/simulate", `{"workload":"compress","max_insts":30000}`)
	if code != http.StatusOK || hdr.Get(gateway.DegradedHeader) != "local" {
		t.Fatalf("draining fleet: HTTP %d, degraded=%q", code, hdr.Get(gateway.DegradedHeader))
	}
}

// TestGatewayChaos is the chaos gate from the acceptance criteria: a
// 64-job /v2 batch through a three-backend fleet where one backend is
// killed mid-batch, one hangs requests, and every backend corrupts 5%
// of its artifact-store writes — and the response must still be
// byte-identical to a fault-free single-node daemon's.
func TestGatewayChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos gate is not short")
	}
	batch := mixedBatch(64)
	want := singleNodeBytes(t, batch)

	// Three backends, each persisting artifacts through a 5%-corrupting
	// tamper hook (the store's checksums must catch every one).
	corrupt := faults.New(faults.Plan{Seed: 99, Corrupt: 0.05})
	newBackend := func(mw func(http.Handler) http.Handler) *httptest.Server {
		st, err := store.Open(store.Options{Dir: t.TempDir(), TamperWrite: corrupt.TamperWrite})
		if err != nil {
			t.Fatal(err)
		}
		var h http.Handler = service.New(service.Config{Store: st})
		if mw != nil {
			h = mw(h)
		}
		return httptest.NewServer(h)
	}
	hang := faults.New(faults.Plan{Seed: 17, Hang: 0.5})
	victim := newBackend(nil)             // killed mid-batch
	hanger := newBackend(hang.Middleware) // hangs half its requests
	steady := newBackend(nil)
	defer hanger.Close()
	defer steady.Close()

	// Under fixed names the victim owns go and gcc and the hanger owns
	// compress and li, so both faults meet primaries on every run.
	local := service.New(service.Config{})
	urls := []string{"http://victim", "http://hanger", "http://steady"}
	cfg := fastConfig(urls, local)
	cfg.Transport = logicalFleet(urls, victim, hanger, steady)
	cfg.RequestTimeout = 2 * time.Second // hangs must not stall the batch
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gts := httptest.NewServer(gw)
	defer gts.Close()

	// Kill one backend mid-batch: first cut every live connection, then
	// close the listener so later dials fail outright.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(300 * time.Millisecond)
		victim.CloseClientConnections()
		victim.Close()
	}()

	code, _, got := post(t, gts.URL+"/v2/jobs", batch)
	<-killed
	if code != http.StatusOK {
		t.Fatalf("chaos batch: HTTP %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos bytes differ from fault-free single node (%d vs %d bytes):\ngot:  %.2000s\nwant: %.2000s",
			len(got), len(want), got, want)
	}
	if hang.Counters().Hung == 0 {
		t.Error("hang fault never fired — weaken the seed check")
	}
	// The 5% corruption rate over a couple dozen store writes fires only
	// on some schedules; the deterministic corruption-never-served proof
	// lives in the store and service suites, so here it is informational.
	if corrupt.Counters().Corrupted == 0 {
		t.Log("note: 5% corruption drew zero fires this schedule")
	}
	retries := gatewayMetric(t, gts, "dvid_retries_total")
	hedges := gatewayMetric(t, gts, "dvid_hedges_total")
	if retries == 0 && hedges == 0 {
		t.Error("chaos run exercised no recovery paths")
	}
	t.Logf("chaos: retries=%v hedges=%v hedge_wins=%v local_fallbacks=%v hung=%d corrupted=%d",
		retries, hedges, gatewayMetric(t, gts, "dvid_hedge_wins_total"),
		gatewayMetric(t, gts, "dvid_gateway_fallback_local_total"),
		hang.Counters().Hung, corrupt.Counters().Corrupted)
}
