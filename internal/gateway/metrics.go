package gateway

import (
	"net/http"
	"strconv"
	"sync/atomic"

	"dvi/internal/obs"
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

	requests obs.CounterVec // by endpoint and status code
}

func (m *gwMetrics) observe(endpoint string, code int) {
	m.requests.Inc(endpoint, strconv.Itoa(code))
}

// handleMetrics is the gateway's GET /metrics (Prometheus text format).
// Per-backend series follow the configured backend order.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var x obs.Exposition
	x.CounterVec("dvid_gateway_requests_total", "Requests handled by the gateway, by endpoint and status code.", &g.met.requests, "endpoint", "code")
	x.Counter("dvid_retries_total", "Dispatch retries beyond the first attempt.").Int(g.met.retries.Load())
	x.Counter("dvid_hedges_total", "Hedge requests launched after the tail-latency budget.").Int(g.met.hedges.Load())
	x.Counter("dvid_hedge_wins_total", "Hedge requests that answered before the primary.").Int(g.met.hedgeWins.Load())
	x.Counter("dvid_gateway_fallback_local_total", "Requests or jobs served by the embedded local session because no backend was available.").Int(g.met.fallbackLocal.Load())

	x.Gauge("dvid_breaker_state", "Per-backend circuit-breaker state (0=closed, 1=half-open, 2=open).", "backend")
	for _, be := range g.backends {
		x.Int(int64(be.br.currentState()), be.url)
	}
	x.Gauge("dvid_backend_healthy", "Per-backend active health-check verdict (1=healthy).", "backend")
	for _, be := range g.backends {
		var healthy int64
		if be.healthy.Load() {
			healthy = 1
		}
		x.Int(healthy, be.url)
	}
	x.Counter("dvid_backend_failures_total", "Per-backend dispatch failures observed by the gateway.", "backend")
	for _, be := range g.backends {
		x.Int(be.fails.Load(), be.url)
	}
	x.Serve(w)
}
