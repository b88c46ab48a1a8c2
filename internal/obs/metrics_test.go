package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestExposition pins the format rules the daemons' goldens cannot
// reach: a family with no series renders nothing, vector series sort by
// label values even when one value is a prefix of another, written
// series keep their order, an observation on a bucket bound lands in
// that bucket, and Int and Float print differently.
func TestExposition(t *testing.T) {
	var reqs CounterVec
	for _, l := range [][]string{{"jobsx", "200"}, {"jobs", "429"}, {"jobs", "200"}, {"jobs", "200"}} {
		reqs.Inc(l...)
	}
	var lat HistogramVec
	lat.Observe("b", 5*time.Millisecond)
	lat.Observe("b", 20*time.Second)
	lat.Observe("a", time.Millisecond)

	var x Exposition
	x.CounterVec("empty_total", "Never counted.", &CounterVec{}, "endpoint")
	x.CounterVec("reqs_total", "Requests.", &reqs, "endpoint", "code")
	x.Gauge("backend_up", "Per backend.", "backend")
	x.Int(1, "http://z")
	x.Int(0, "http://a")
	x.Counter("big_total", "Past 1e6.").Float(2080003)
	x.Counter("big_int_total", "Past 1e6.").Int(2080003)
	x.HistogramVec("lat_seconds", "Latency.", "ep", &lat)
	rec := httptest.NewRecorder()
	x.Serve(rec)

	got := rec.Body.String()
	want := `# HELP reqs_total Requests.
# TYPE reqs_total counter
reqs_total{endpoint="jobs",code="200"} 2
reqs_total{endpoint="jobs",code="429"} 1
reqs_total{endpoint="jobsx",code="200"} 1
# HELP backend_up Per backend.
# TYPE backend_up gauge
backend_up{backend="http://z"} 1
backend_up{backend="http://a"} 0
# HELP big_total Past 1e6.
# TYPE big_total counter
big_total 2.080003e+06
# HELP big_int_total Past 1e6.
# TYPE big_int_total counter
big_int_total 2080003
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
`
	if !strings.HasPrefix(got, want) {
		t.Fatalf("exposition:\n%s\nwant prefix:\n%s", got, want)
	}
	for _, line := range []string{
		`lat_seconds_bucket{ep="a",le="0.001"} 1`,
		`lat_seconds_bucket{ep="b",le="0.0025"} 0`,
		`lat_seconds_bucket{ep="b",le="0.005"} 1`,
		`lat_seconds_bucket{ep="b",le="10"} 1`,
		`lat_seconds_bucket{ep="b",le="+Inf"} 2`,
		`lat_seconds_sum{ep="b"} 20.005`,
		`lat_seconds_count{ep="b"} 2`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, got)
		}
	}
	if strings.Index(got, `ep="a"`) > strings.Index(got, `ep="b"`) {
		t.Error("histogram series not sorted by label value")
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type %q", ct)
	}
}
