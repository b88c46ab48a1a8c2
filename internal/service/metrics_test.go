package service_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvi/internal/prog"
	"dvi/internal/service"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// maskedMetrics are the unlabelled series whose values depend on
// timing: uptime, and the sync.Pool reuse counters, which a GC or a
// second worker can move.
var maskedMetrics = map[string]bool{
	"dvid_uptime_seconds":              true,
	"dvid_machine_pool_reuse_total":    true,
	"dvid_machine_pool_fresh_total":    true,
	"dvid_emulator_pool_reuse_total":   true,
	"dvid_emulator_pool_fresh_total":   true,
	"dvid_checkpoint_pool_reuse_total": true,
	"dvid_checkpoint_pool_fresh_total": true,
}

// maskMetrics replaces timing-dependent sample values in a /metrics
// body with "X": histogram buckets and sums, and maskedMetrics. HELP
// and TYPE lines, family and series order, label text and every other
// value stay byte for byte.
func maskMetrics(body string) string {
	lines := strings.SplitAfter(body, "\n")
	for i, line := range lines {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || maskedMetrics[name] {
			lines[i] = series + " X\n"
		}
	}
	return strings.Join(lines, "")
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
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs:\ngot:  %q\nwant: %q\nfull output:\n%s", path, i+1, g, w, got)
		}
	}
}

// TestMetricsGoldenBytes pins dvid's /metrics byte for byte, values
// masked only where timing moves them: HELP and TYPE text, family
// order, series order within a family, label rendering, and number
// format. The exact simulate commits over 1e6 instructions, so the
// float counters print with an exponent. The first scrape of a fresh
// daemon is pinned too: a labelled family with no series renders
// nothing.
func TestMetricsGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		store  bool
		golden string
	}{
		{"memory", false, "metrics.golden"},
		{"store", true, "metrics_store.golden"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			cfg := service.Config{
				Workers:       2, // independent of the host's CPU count
				MaxConcurrent: 1,
				MaxQueue:      -1, // no queue: reject whenever the slot is busy
				Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
					<-gate
					return workload.CompileSpec(s, scale, opt)
				},
			}
			if tc.store {
				st, err := store.Open(store.Options{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Store = st
			}
			svc := service.New(cfg)
			ts := httptest.NewServer(svc)
			defer ts.Close()

			if !tc.store {
				_, body := getBody(t, ts.URL+"/metrics")
				checkGolden(t, "metrics_fresh.golden", maskMetrics(string(body)))
			}

			done := make(chan struct{})
			go func() {
				defer close(done)
				res, err := http.Post(ts.URL+"/v1/simulate", "application/json",
					strings.NewReader(`{"workload":"li","max_insts":1050000}`))
				if err != nil {
					t.Errorf("exact simulate: %v", err)
					return
				}
				defer res.Body.Close()
				// Reading to the end waits until the request is counted.
				if body, err := io.ReadAll(res.Body); err != nil || res.StatusCode != http.StatusOK {
					t.Errorf("exact simulate: HTTP %d, %v: %s", res.StatusCode, err, body)
				}
			}()
			waitFor(t, "exact simulate executing", func() bool { return svc.Inflight() == 1 })
			// Errorf, not Fatalf: the gate must open, or the server never
			// finishes the gated request.
			if code, body := postJSON(t, ts.URL+"/v1/simulate", `{"workload":"compress","max_insts":20000}`); code != http.StatusTooManyRequests {
				t.Errorf("overload request: HTTP %d, want 429: %s", code, body)
			}
			close(gate)
			<-done

			for _, req := range []struct{ path, body string }{
				{"/v1/simulate", `{"workload":"compress","max_insts":60000,"sampling":{"interval":2000}}`},
				{"/v1/annotate", `{"workload":"li"}`},
			} {
				if code, body := postJSON(t, ts.URL+req.path, req.body); code != http.StatusOK {
					t.Fatalf("%s: HTTP %d: %s", req.path, code, body)
				}
			}
			_, body := getBody(t, ts.URL+"/metrics")
			checkGolden(t, tc.golden, maskMetrics(string(body)))
		})
	}
}
