package gateway

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestGatewayRequestSeries pins the dvid_gateway_requests_total block of
// the gateway's /metrics: one series per (endpoint, code), ordered by
// endpoint then code.
func TestGatewayRequestSeries(t *testing.T) {
	g := &Gateway{}
	for _, o := range []struct {
		endpoint string
		code     int
	}{{"simulate", 503}, {"jobs", 429}, {"jobs", 200}, {"annotate", 200}, {"jobs", 200}, {"ctxswitch", 400}} {
		g.met.observe(o.endpoint, o.code)
	}
	rec := httptest.NewRecorder()
	g.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := `# HELP dvid_gateway_requests_total Requests handled by the gateway, by endpoint and status code.
# TYPE dvid_gateway_requests_total counter
dvid_gateway_requests_total{endpoint="annotate",code="200"} 1
dvid_gateway_requests_total{endpoint="ctxswitch",code="400"} 1
dvid_gateway_requests_total{endpoint="jobs",code="200"} 2
dvid_gateway_requests_total{endpoint="jobs",code="429"} 1
dvid_gateway_requests_total{endpoint="simulate",code="503"} 1
# HELP dvid_retries_total `
	if got := rec.Body.String(); !strings.HasPrefix(got, want) {
		t.Fatalf("request series:\n%s\nwant prefix:\n%s", got, want)
	}
}
