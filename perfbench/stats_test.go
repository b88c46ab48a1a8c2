package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4),
// which the benchmark's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.7, 9.4, 1.0, 5.5, 6.6, 2.2}, 2.2, 6.6},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

// A percentile is only reported with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{2000, 99, 1980, true},
		{20, 50, 10, true},
		{19, 50, 10, false},
		{100, 90, 90, true},
		{10, 100, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, p%v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSamplesFor(t *testing.T) {
	for p, want := range map[float64]int{99: 1000, 90: 100, 50: 20} {
		if got := samplesFor(p); got != want {
			t.Errorf("samplesFor(%v) = %d, want %d", p, got, want)
		}
		if _, ok := percentile(seq(samplesFor(p)), p); !ok {
			t.Errorf("samplesFor(%v) samples do not support p%v", p, p)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	same := []float64{100, 100, 101, 99, 101, 99, 100, 100, 99, 101}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, tc := range []struct {
		b      []float64
		prefix string
	}{
		{same, "same within bound"},
		{faster, "gain"},
		{noisy, "unresolved"},
	} {
		if got := verdict(a, tc.b, "lower", 0.1); got[:len(tc.prefix)] != tc.prefix {
			t.Errorf("verdict = %q, want prefix %q", got, tc.prefix)
		}
	}
	if got := verdict(faster, a, "lower", 0.1); got[:10] != "REGRESSION" {
		t.Errorf("slower B: verdict = %q", got)
	}
	// Noise wider than the bound leaves a change unresolved unless every
	// run of B beats every run of A.
	noisyA := []float64{100, 130, 110, 125, 105, 120, 115, 128, 102, 118}
	noisyFaster := []float64{60, 80, 65, 78, 62, 75, 70, 79, 61, 72}
	if got := verdict(noisyA, noisyFaster, "lower", 0.05); got[:4] != "gain" {
		t.Errorf("every B run faster than every A run: verdict = %q", got)
	}
	if got := verdict(a[:4], faster[:4], "lower", 0.1); got[:4] == "gain" {
		t.Errorf("gain claimed from 4 pairs: %q", got)
	}
	if wins(a, faster, "lower") != len(a) || wins(a, faster, "higher") != 0 {
		t.Error("wins does not follow the better direction")
	}
}

// The per-layer metrics the tool reports must be exactly the ones
// BENCHMARK.json declares, with the same units.
func TestLayerNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the tool: %v", err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the tool reports %d", len(spec.PerLayer), len(layerNames))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerNames[i] || m.Unit != layerUnit(m.Name) {
			t.Errorf("per_layer[%d] = %s (%s), tool has %s (%s)", i, m.Name, m.Unit, layerNames[i], layerUnit(layerNames[i]))
		}
	}
}
