package service_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dvi/internal/prog"
	"dvi/internal/service"
	"dvi/internal/workload"
)

// TestMachineOverrideRanges pins the machine range table at the wire.
// Each override below once panicked a runner worker (ending the daemon),
// deadlocked it for 100k cycles, or ran with a nonsense machine; now each
// answers 400 before any build, on /v1/simulate and inside a /v2/jobs
// batch, with a message naming the field. The rows that would allocate
// gigabytes if validation regressed go only through ValidateJob, which
// never executes a job. The admitted rows are machines in use — the
// benchmark mixes and the scheduler tests' latency extremes — so the
// ranges cannot shut them out.
func TestMachineOverrideRanges(t *testing.T) {
	var compiles atomic.Int64
	svc := service.New(service.Config{Compile: func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		compiles.Add(1)
		return workload.CompileSpec(s, scale, opt)
	}})
	ts := httptest.NewServer(svc)
	defer ts.Close()

	for _, c := range []struct {
		field string
		value int
	}{
		{"stack_depth", 65}, {"stack_depth", -1},
		{"window_size", -1}, {"ifq_size", -1},
		{"issue_width", -1}, {"int_alus", -1}, {"int_muldiv", -1}, {"cache_ports", -1},
		{"mul_latency", -1}, {"div_latency", -1},
	} {
		machine := fmt.Sprintf(`{"workload":"li","max_insts":5000,"machine":{%q:%d}}`, c.field, c.value)
		for path, body := range map[string]string{
			"/v1/simulate": machine,
			"/v2/jobs":     `{"jobs":[{"kind":"simulate","simulate":` + machine + `}]}`,
		} {
			code, resp := postJSON(t, ts.URL+path, body)
			var e service.Error
			if err := json.Unmarshal(resp, &e); err != nil {
				t.Fatalf("%s %s=%d: HTTP %d, body %s", path, c.field, c.value, code, resp)
			}
			if code != http.StatusBadRequest || !strings.Contains(e.Message, c.field) {
				t.Errorf("%s %s=%d: HTTP %d %q, want 400 naming the field", path, c.field, c.value, code, e.Message)
			}
		}
	}

	validate := func(m service.MachineOverrides) error {
		return svc.ValidateJob(service.JobRequest{Kind: "simulate", Simulate: &service.SimulateRequest{
			Workload: "li", MaxInsts: 5000, Machine: &m}})
	}
	for field, m := range map[string]service.MachineOverrides{
		"phys_regs":   {PhysRegs: 100_000_000},
		"window_size": {WindowSize: 100_000_000},
		"ifq_size":    {IFQSize: 100_000_000},
	} {
		if err := validate(m); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s=100000000: ValidateJob = %v, want an error naming the field", field, err)
		}
	}
	if n := compiles.Load(); n != 0 {
		t.Errorf("%d builds ran: a rejected job reached the engine", n)
	}

	for _, m := range []service.MachineOverrides{
		{PhysRegs: 42}, {PhysRegs: 50}, {CachePorts: 1}, {IssueWidth: 2, WindowSize: 32},
		{MulLatency: 131}, {MulLatency: 261},
	} {
		if err := validate(m); err != nil {
			t.Errorf("%+v rejected: %v", m, err)
		}
	}
}
