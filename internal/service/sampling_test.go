package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dvi/internal/service"
)

// TestSimulateSamplingEndpoint covers the /v1/simulate sampling surface:
// a request with a sampling block answers with an estimate whose summary
// reports the plan and error bound, whose cycle estimate brackets the
// exact run within its confidence interval, and whose architectural
// counts are exact. The checkpoint pool counters must show up on
// /metrics, with reuse after the pool has warmed.
func TestSimulateSamplingEndpoint(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	const base = `"workload":"go","max_insts":120000`
	code, body := postJSON(t, ts.URL+"/v1/simulate", `{`+base+`}`)
	if code != http.StatusOK {
		t.Fatalf("exact simulate: HTTP %d: %s", code, body)
	}
	var exact service.SimulateResponse
	if err := json.Unmarshal(body, &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Sampled != nil {
		t.Fatalf("exact response carries a sampled summary: %+v", exact.Sampled)
	}

	code, body = postJSON(t, ts.URL+"/v1/simulate",
		`{`+base+`,"sampling":{"interval":4000,"warmup":1000}}`)
	if code != http.StatusOK {
		t.Fatalf("sampled simulate: HTTP %d: %s", code, body)
	}
	var samp service.SimulateResponse
	if err := json.Unmarshal(body, &samp); err != nil {
		t.Fatal(err)
	}
	sum := samp.Sampled
	if sum == nil {
		t.Fatal("sampled response missing the sampled summary")
	}
	if sum.Interval != 4000 || sum.Warmup != 1000 {
		t.Fatalf("summary plan %+v does not echo the request", sum)
	}
	if sum.Measured <= 0 || sum.Measured > sum.Intervals {
		t.Fatalf("measured %d of %d intervals is not a sane plan", sum.Measured, sum.Intervals)
	}
	if sum.DetailedInsts >= sum.TotalInsts {
		t.Fatalf("sampling simulated %d of %d instructions in detail — no savings",
			sum.DetailedInsts, sum.TotalInsts)
	}
	if sum.RelCI <= 0 || sum.Confidence != 0.95 {
		t.Fatalf("summary error bound rel=%v conf=%v", sum.RelCI, sum.Confidence)
	}
	// The estimate must bracket the exact run within its reported CI
	// (CIHalfWidth is absolute on IPC).
	if diff := math.Abs(samp.IPC - exact.IPC); diff > sum.CIHalfWidth {
		t.Fatalf("estimated IPC %.4f vs exact %.4f: off by %.4f, CI half-width %.4f",
			samp.IPC, exact.IPC, diff, sum.CIHalfWidth)
	}
	// Architectural counts come from the exact functional pass. The exact
	// detailed run may overshoot the instruction budget by up to
	// IssueWidth-1 commits in its final cycle, so allow that much slack.
	const boundarySlack = 3 // DefaultConfig().IssueWidth - 1
	if d := absDiff(samp.Stats.Committed, exact.Stats.Committed); d > boundarySlack {
		t.Fatalf("committed drifted: sampled %d exact %d",
			samp.Stats.Committed, exact.Stats.Committed)
	}
	if d := absDiff(samp.Stats.ElimSaves, exact.Stats.ElimSaves); d > boundarySlack {
		t.Fatalf("elim saves drifted: sampled %d exact %d",
			samp.Stats.ElimSaves, exact.Stats.ElimSaves)
	}

	// Checkpoint pool counters are exposed; a second sampled request runs
	// against a warm pool and must reuse recycled checkpoints.
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m1 := readAll(t, res)
	if metricValue(t, m1, "dvid_checkpoint_pool_fresh_total") <= 0 {
		t.Fatalf("no fresh checkpoints after a sampled run:\n%s", m1)
	}
	if code, body := postJSON(t, ts.URL+"/v1/simulate",
		`{`+base+`,"sampling":{"interval":4000,"warmup":1000}}`); code != http.StatusOK {
		t.Fatalf("second sampled simulate: HTTP %d: %s", code, body)
	}
	res, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m2 := readAll(t, res)
	if metricValue(t, m2, "dvid_checkpoint_pool_reuse_total") <= 0 {
		t.Fatalf("second sampled run reused no checkpoints:\n%s", m2)
	}
}

// TestJobsBatchWithSampling runs a /v2/jobs batch mixing a sampled
// simulate, an exact simulate and an annotate: lines stream in
// submission order, only the sampled line carries a summary, and both
// simulates agree on exact architectural counts.
func TestJobsBatchWithSampling(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/v2/jobs", `{"jobs":[
		{"kind":"simulate","simulate":{"workload":"li","max_insts":100000,"sampling":{"interval":4000,"warmup":1000}}},
		{"kind":"simulate","simulate":{"workload":"li","max_insts":100000}},
		{"kind":"annotate","annotate":{"workload":"li"}}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("/v2/jobs: HTTP %d: %s", code, body)
	}
	var lines []service.JobResult
	for _, raw := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var line service.JobResult
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, line)
	}
	if len(lines) != 3 {
		t.Fatalf("%d result lines, want 3", len(lines))
	}
	for i, line := range lines {
		if line.Index != i || line.Error != "" {
			t.Fatalf("line %d: %+v", i, line)
		}
	}
	sampled, exact := lines[0].Simulate, lines[1].Simulate
	if sampled == nil || sampled.Sampled == nil {
		t.Fatalf("sampled job missing its summary: %+v", lines[0])
	}
	if exact == nil || exact.Sampled != nil {
		t.Fatalf("exact job carries a sampled summary: %+v", lines[1])
	}
	if lines[2].Annotate == nil || lines[2].Annotate.Inserted == 0 {
		t.Fatalf("annotate job did not run: %+v", lines[2])
	}
	if d := absDiff(sampled.Stats.Committed, exact.Stats.Committed); d > 3 {
		t.Fatalf("committed drifted: sampled %d exact %d",
			sampled.Stats.Committed, exact.Stats.Committed)
	}
	if diff := math.Abs(sampled.IPC - exact.IPC); diff > sampled.Sampled.CIHalfWidth {
		t.Fatalf("estimated IPC off by %.4f, CI half-width %.4f",
			diff, sampled.Sampled.CIHalfWidth)
	}
}

// absDiff is |a-b| for unsigned counters.
func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// readAll drains an HTTP response body as a string.
func readAll(t *testing.T, res *http.Response) string {
	t.Helper()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJobsBatchSharesSampledScan sends two sampled simulates on one scan
// key (the same binary, emulator, caches, predictor and budget; they
// differ in the register file) as one /v2/jobs batch. The batch runs
// only as many scans as either runs alone, and each line carries the
// payload the same request gets from /v1/simulate alone.
func TestJobsBatchSharesSampledScan(t *testing.T) {
	reqs := []string{
		`{"workload":"compress","max_insts":60000,"sampling":{"interval":2000}}`,
		`{"workload":"compress","max_insts":60000,"machine":{"phys_regs":48},"sampling":{"interval":2000}}`,
	}
	scans := func(url string) int64 {
		_, m := getBody(t, url+"/metrics")
		return metricValue(t, string(m), `dvid_phase_duration_seconds_count{phase="scan"}`)
	}
	var (
		alone     [][]byte
		soloScans int64
	)
	for _, req := range reqs {
		ts := httptest.NewServer(service.New(service.Config{}))
		code, body := postJSON(t, ts.URL+"/v1/simulate", req)
		if code != http.StatusOK {
			t.Fatalf("/v1/simulate %s: HTTP %d: %s", req, code, body)
		}
		alone = append(alone, bytes.TrimSpace(body))
		soloScans = max(soloScans, scans(ts.URL))
		ts.Close()
	}
	if soloScans == 0 {
		t.Fatal("no scan spans recorded on /metrics")
	}

	ts := httptest.NewServer(service.New(service.Config{}))
	defer ts.Close()
	code, body := postJSON(t, ts.URL+"/v2/jobs", `{"jobs":[
		{"kind":"simulate","simulate":`+reqs[0]+`},
		{"kind":"simulate","simulate":`+reqs[1]+`}
	]}`)
	if code != http.StatusOK {
		t.Fatalf("/v2/jobs: HTTP %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("%d result lines, want %d:\n%s", len(lines), len(reqs), body)
	}
	for i, raw := range lines {
		var line struct {
			Index    int             `json:"index"`
			Simulate json.RawMessage `json:"simulate"`
		}
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", raw, err)
		}
		if line.Index != i || !bytes.Equal(line.Simulate, alone[i]) {
			t.Errorf("line %d: index %d, payload\n%s\nwant /v1/simulate's\n%s", i, line.Index, line.Simulate, alone[i])
		}
	}
	if n := scans(ts.URL); n != soloScans {
		t.Errorf("the batch ran %d scans, want %d: one shared scan per round", n, soloScans)
	}
}
