package gateway

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// gwMetrics tracks the gateway's recovery actions for /metrics. The
// interesting series here are the ones that prove the resilience
// machinery fired: retries, hedges, hedge wins, local fallbacks, and
// per-backend breaker/health state.
type gwMetrics struct {
	retries       atomic.Int64 // dispatch attempts beyond the first
	hedges        atomic.Int64 // hedge requests launched
	hedgeWins     atomic.Int64 // hedges that answered before the primary
	fallbackLocal atomic.Int64 // jobs/requests served by the embedded session

	mu       sync.Mutex
	requests map[requestKey]int64
}

// requestKey labels one dvid_gateway_requests_total series.
type requestKey struct {
	endpoint string
	code     int
}

func (m *gwMetrics) observe(endpoint string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.requests == nil {
		m.requests = make(map[requestKey]int64)
	}
	m.requests[requestKey{endpoint, code}]++
}

// handleMetrics is the gateway's GET /metrics (Prometheus text format).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	b.WriteString("# HELP dvid_gateway_requests_total Requests handled by the gateway, by endpoint and status code.\n")
	b.WriteString("# TYPE dvid_gateway_requests_total counter\n")
	g.met.mu.Lock()
	keys := make([]requestKey, 0, len(g.met.requests))
	for k := range g.met.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "dvid_gateway_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, g.met.requests[k])
	}
	g.met.mu.Unlock()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("dvid_retries_total", "Dispatch retries beyond the first attempt.", g.met.retries.Load())
	counter("dvid_hedges_total", "Hedge requests launched after the tail-latency budget.", g.met.hedges.Load())
	counter("dvid_hedge_wins_total", "Hedge requests that answered before the primary.", g.met.hedgeWins.Load())
	counter("dvid_gateway_fallback_local_total", "Requests or jobs served by the embedded local session because no backend was available.", g.met.fallbackLocal.Load())

	b.WriteString("# HELP dvid_breaker_state Per-backend circuit-breaker state (0=closed, 1=half-open, 2=open).\n")
	b.WriteString("# TYPE dvid_breaker_state gauge\n")
	for _, be := range g.backends {
		fmt.Fprintf(&b, "dvid_breaker_state{backend=%q} %d\n", be.url, be.br.currentState())
	}
	b.WriteString("# HELP dvid_backend_healthy Per-backend active health-check verdict (1=healthy).\n")
	b.WriteString("# TYPE dvid_backend_healthy gauge\n")
	for _, be := range g.backends {
		v := 0
		if be.healthy.Load() {
			v = 1
		}
		fmt.Fprintf(&b, "dvid_backend_healthy{backend=%q} %d\n", be.url, v)
	}
	b.WriteString("# HELP dvid_backend_failures_total Per-backend dispatch failures observed by the gateway.\n")
	b.WriteString("# TYPE dvid_backend_failures_total counter\n")
	for _, be := range g.backends {
		fmt.Fprintf(&b, "dvid_backend_failures_total{backend=%q} %d\n", be.url, be.fails.Load())
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}
