package service

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"dvi/internal/obs"
	"dvi/internal/ooo"
)

// metrics accumulates what GET /metrics reports between scrapes:
// per-endpoint request counts and latencies, per-phase orchestration
// timings, and simulator-derived counters. handleMetrics adds the
// values read at scrape time.
type metrics struct {
	requests obs.CounterVec   // by endpoint and status code
	rejected obs.CounterVec   // admission 429s, by endpoint
	latency  obs.HistogramVec // by endpoint
	phases   obs.HistogramVec // span-tree phase durations, by phase name

	mu sync.Mutex
	// Simulator totals over every timing result the service renders
	// (exact and sampled): runs, and one total per simCounters entry.
	simRuns int64
	sim     [len(simCounters)]uint64
	// Sampling quality: how many sampled estimates were served and the
	// relative CI half-width of the most recent one.
	sampledRuns  int64
	sampledRelCI float64
}

// simCounters are the ooo.Stats fields /metrics sums over timing runs:
// where the simulated cycles went, from the microarchitectural plane.
// Each entry both accumulates (observeSim) and renders (handleMetrics).
var simCounters = [...]struct {
	name, help string
	field      func(*ooo.Stats) uint64
}{
	{"dvid_sim_cycles_total", "Simulated cycles across all timing runs.", func(s *ooo.Stats) uint64 { return s.Cycles }},
	{"dvid_sim_instructions_total", "Committed original instructions across all timing runs.", func(s *ooo.Stats) uint64 { return s.Committed }},
	{"dvid_sim_mispredicts_total", "Recovered branch mispredictions across all timing runs.", func(s *ooo.Stats) uint64 { return s.Mispredicts }},
	{"dvid_sim_wrong_path_total", "Wrong-path instructions dispatched (squashed at recovery).", func(s *ooo.Stats) uint64 { return s.WrongPath }},
	{"dvid_sim_rename_stall_cycles_total", "Dispatch cycles stalled on an empty free list.", func(s *ooo.Stats) uint64 { return s.RenameStallCycles }},
	{"dvid_sim_window_full_cycles_total", "Dispatch cycles stalled on a full instruction window.", func(s *ooo.Stats) uint64 { return s.WindowFullCycles }},
	{"dvid_sim_port_stall_cycles_total", "Commit cycles stalled waiting for a cache port.", func(s *ooo.Stats) uint64 { return s.PortStallCycles }},
	{"dvid_sim_elim_saves_total", "Saves eliminated at dispatch by dead-value information.", func(s *ooo.Stats) uint64 { return s.ElimSaves }},
	{"dvid_sim_elim_restores_total", "Restores eliminated at dispatch by dead-value information.", func(s *ooo.Stats) uint64 { return s.ElimRests }},
	{"dvid_sim_kills_total", "E-DVI kill annotations committed.", func(s *ooo.Stats) uint64 { return s.KillsSeen }},
	{"dvid_sim_early_reclaims_total", "Physical registers reclaimed early by DVI kills.", func(s *ooo.Stats) uint64 { return s.EarlyReclaimed }},
	{"dvid_sim_faults_total", "Correct-path fetches outside the text segment (wild jumps).", func(s *ooo.Stats) uint64 { return s.Faults }},
}

// observe records one finished request in the latency histogram. Callers
// must route admission rejections through reject instead: a 429 is
// answered in microseconds and would drag the endpoint's p99 toward
// zero, masking real latency regressions during overload — exactly when
// the dashboards matter.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	m.requests.Inc(endpoint, strconv.Itoa(code))
	m.latency.Observe(endpoint, d)
}

// reject records an admission-rejected (429) request: counted in
// dvid_requests_total and dvid_admission_rejected_total, excluded from
// the latency histogram.
func (m *metrics) reject(endpoint string) {
	m.requests.Inc(endpoint, strconv.Itoa(http.StatusTooManyRequests))
	m.rejected.Inc(endpoint)
}

// observeSpans folds one completed request span tree into the per-phase
// duration histograms (the Recorder's OnRecord hook). The root span is
// skipped — its duration is already the request latency histogram.
func (m *metrics) observeSpans(root *obs.Span) {
	root.Visit(func(s *obs.Span) {
		if s != root {
			m.phases.Observe(s.Name(), s.Duration())
		}
	})
}

// observeSim accumulates one timing run's statistics.
func (m *metrics) observeSim(st ooo.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.simRuns++
	for i, c := range simCounters {
		m.sim[i] += c.field(&st)
	}
}

// observeSampled records one served sampled estimate and its relative CI
// half-width.
func (m *metrics) observeSampled(relCI float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sampledRuns++
	m.sampledRelCI = relCI
}

// handleMetrics serves GET /metrics: request counters, admission
// rejections, latency and phase histograms, simulator totals, then the
// values read now (queue depth, cache and pool traffic, the store).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var x obs.Exposition
	m := &s.met
	x.CounterVec("dvid_requests_total", "Requests served, by endpoint and status code.", &m.requests, "endpoint", "code")
	x.CounterVec("dvid_admission_rejected_total", "Requests rejected by admission control (429), excluded from the latency histogram.", &m.rejected, "endpoint")
	x.HistogramVec("dvid_request_duration_seconds", "Request latency (admission rejections excluded).", "endpoint", &m.latency)
	x.HistogramVec("dvid_phase_duration_seconds", "Per-phase orchestration latency from request span trees (queue-wait, execute, build, scan, interval, render, ...).", "phase", &m.phases)

	// The daemon's scalars print in %g (Float), not Int: /metrics bytes
	// are an interface, pinned by TestMetricsGoldenBytes.
	m.mu.Lock()
	x.Counter("dvid_sim_runs_total", "Timing simulations answered (exact runs and sampled intervals aggregate alike).").Float(float64(m.simRuns))
	for i, c := range simCounters {
		x.Counter(c.name, c.help).Float(float64(m.sim[i]))
	}
	x.Counter("dvid_sampled_runs_total", "Sampled (statistical) simulations served.").Float(float64(m.sampledRuns))
	x.Gauge("dvid_sampled_rel_ci", "Relative CI half-width of the most recently served sampled estimate.").Float(m.sampledRelCI)
	m.mu.Unlock()

	cache := s.eng.Cache()
	hits, misses := cache.Stats()
	pool := s.eng.PoolStats()
	x.Gauge("dvid_uptime_seconds", "Seconds since the server started.").Float(time.Since(s.start).Seconds())
	x.Gauge("dvid_inflight_requests", "Requests currently executing.").Float(float64(s.adm.inflight.Load()))
	x.Gauge("dvid_queue_depth", "Requests waiting for an execution slot.").Float(float64(s.adm.waiting.Load()))
	x.Gauge("dvid_queue_capacity", "Admission queue bound.").Float(float64(s.adm.maxQueue))
	x.Counter("dvid_build_cache_hits_total", "Build cache hits.").Float(float64(hits))
	x.Counter("dvid_build_cache_misses_total", "Build cache misses (compiles).").Float(float64(misses))
	x.Counter("dvid_build_cache_evictions_total", "Build cache LRU evictions.").Float(float64(cache.Evictions()))
	x.Gauge("dvid_build_cache_entries", "Distinct binaries cached or building.").Float(float64(cache.Len()))
	x.Counter("dvid_machine_pool_reuse_total", "Timing jobs served by resetting a pooled warm machine.").Float(float64(pool.MachineReuse))
	x.Counter("dvid_machine_pool_fresh_total", "Timing jobs that had to construct a fresh machine.").Float(float64(pool.MachineFresh))
	x.Counter("dvid_emulator_pool_reuse_total", "Functional/ctxswitch jobs served by resetting a pooled warm emulator.").Float(float64(pool.EmuReuse))
	x.Counter("dvid_emulator_pool_fresh_total", "Functional/ctxswitch jobs that had to construct a fresh emulator.").Float(float64(pool.EmuFresh))
	x.Counter("dvid_checkpoint_pool_reuse_total", "Sampling checkpoints served from the recycled-checkpoint pool.").Float(float64(pool.CheckpointReuse))
	x.Counter("dvid_checkpoint_pool_fresh_total", "Sampling checkpoints that had to be freshly allocated.").Float(float64(pool.CheckpointFresh))
	x.Counter("dvid_build_compiles_total", "Compile invocations (stays zero across a restart served from a warm artifact store).").Float(float64(cache.Compiles()))
	if st := s.eng.Store(); st != nil {
		sst := st.Stats()
		x.Counter("dvid_store_hits_total", "Artifact-store reads served from a checksum-verified entry.").Float(float64(sst.Hits))
		x.Counter("dvid_store_misses_total", "Artifact-store reads with no servable entry.").Float(float64(sst.Misses))
		x.Counter("dvid_store_puts_total", "Artifacts persisted.").Float(float64(sst.Puts))
		x.Counter("dvid_store_evictions_total", "Artifacts evicted by the disk byte budget.").Float(float64(sst.Evictions))
		x.Counter("dvid_store_quarantined_total", "Corrupt artifacts quarantined on read (never served).").Float(float64(sst.Quarantined))
		x.Gauge("dvid_store_entries", "Live artifacts on disk.").Float(float64(sst.Entries))
		x.Gauge("dvid_store_bytes", "Bytes held by live artifacts.").Float(float64(sst.Bytes))
	}
	x.Serve(w)
}
