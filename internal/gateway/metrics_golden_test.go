package gateway_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dvi/internal/gateway"
	"dvi/internal/service"
)

// TestGatewayMetricsGoldenBytes pins the gateway's /metrics byte for
// byte: HELP and TYPE text, family order, series order within a family,
// label rendering and number format. Two backends are listed in
// descending URL order, so the per-backend series must follow the
// configuration rather than a sort; one of them fails every request.
// Backend ports are random, so URLs are renamed, and the retry, hedge
// and breaker values are masked: which backend a key hashes to depends
// on its port, and hedging on timing. The idle gateway's first scrape
// is pinned too: a labelled family with no series renders nothing.
func TestGatewayMetricsGoldenBytes(t *testing.T) {
	good := httptest.NewServer(service.New(service.Config{}))
	defer good.Close()
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "backend down", http.StatusInternalServerError)
	}))
	defer failing.Close()
	backends := []string{good.URL, failing.URL}
	sort.Sort(sort.Reverse(sort.StringSlice(backends)))

	gw, err := gateway.New(fastConfig(backends, service.New(service.Config{})))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	defer ts.Close()

	masked := map[string]bool{
		"dvid_retries_total":          true,
		"dvid_hedges_total":           true,
		"dvid_hedge_wins_total":       true,
		"dvid_breaker_state":          true,
		"dvid_backend_failures_total": true,
	}
	// The new names keep the URLs' descending order.
	rename := strings.NewReplacer(`"`+backends[0]+`"`, `"http://backend-b"`, `"`+backends[1]+`"`, `"http://backend-a"`)
	scrape := func() string {
		t.Helper()
		res, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(rename.Replace(string(body)), "\n")
		for i, line := range lines {
			if line == "" || line[0] == '#' {
				continue
			}
			series := line[:strings.LastIndexByte(line, ' ')]
			if name, _, _ := strings.Cut(series, "{"); masked[name] {
				lines[i] = series + " X\n"
			}
		}
		return strings.Join(lines, "")
	}

	checkGolden(t, "metrics_idle.golden", scrape())
	for _, req := range []struct {
		path, body string
		code       int
	}{
		{"/v2/jobs", `{"jobs":[{"kind":"simulate","simulate":{"workload":"compress","max_insts":20000}},{"kind":"annotate","annotate":{"workload":"li"}}]}`, http.StatusOK},
		{"/v1/simulate", `{"workload":"compress","max_insts":20000}`, http.StatusOK},
		{"/v1/simulate", `{"workload":"nope"}`, http.StatusBadRequest},
	} {
		if code, _, body := post(t, ts.URL+req.path, req.body); code != req.code {
			t.Fatalf("%s: HTTP %d, want %d: %s", req.path, code, req.code, body)
		}
	}
	checkGolden(t, "metrics.golden", scrape())
}

// checkGolden compares got with testdata/name, or rewrites the file
// when DVI_GOLDEN_UPDATE is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("DVI_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with DVI_GOLDEN_UPDATE=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s differs from the scrape:\n%s", path, got)
	}
}
