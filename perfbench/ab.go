package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Same-code A/B mode: run this checkout (A) and another (B) interleaved,
// ABAB with the first side alternating per pair and both sides of a pair
// on the same seed, then print per workload and metric each side's
// median and quartiles, how many pairs B won, and whether the metric is
// resolved. A metric is unresolved when either side's interquartile
// spread is wider than its bound in BENCHMARK.json: a difference inside
// that noise is not evidence of anything.

// benchSpec is the part of BENCHMARK.json the A/B mode reads.
type benchSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(dir string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runOnce runs one untraced benchmark invocation in checkout dir and
// returns its result line.
func runOnce(dir string, spec *benchSpec, w string, seed int64, seconds int) (*resultLine, error) {
	args := append(append([]string(nil), spec.Command[1:]...),
		"--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd := exec.Command(spec.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s: %v\n%s", dir, w, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s %s: result line: %w", dir, w, err)
	}
	return &res, nil
}

func runAB(other string, pairs int, loads string, seed int64, seconds int) int {
	dirs := [2]string{".", other}
	spec, err := readSpec(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var names []string
	if loads != "" {
		names = strings.Split(loads, ",")
	} else {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	for _, w := range names {
		// vals[side][metric] holds one value per pair.
		vals := [2]map[string][]float64{{}, {}}
		failed := [2]int64{}
		for p := 0; p < pairs; p++ {
			order := [2]int{0, 1}
			if p%2 == 1 {
				order = [2]int{1, 0}
			}
			for _, side := range order {
				res, err := runOnce(dirs[side], spec, w, seed+int64(p), seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
					return 1
				}
				failed[side] += res.Failed
				for k, m := range res.Metrics {
					vals[side][k] = append(vals[side][k], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: ab %s pair %d/%d done\n", w, p+1, pairs)
		}
		fmt.Printf("%s (A=%s, B=%s, %d pairs, failed ops A=%d B=%d)\n", w, dirs[0], dirs[1], pairs, failed[0], failed[1])
		fmt.Printf("  %-12s %30s %30s %8s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
		for _, m := range spec.EndToEnd {
			a, b := vals[0][m.Name], vals[1][m.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			fmt.Printf("  %-12s %30s %30s %8s  %s\n", m.Name, quart(a), quart(b),
				fmt.Sprintf("%d/%d", wins(a, b, m.Better), len(a)), verdict(a, b, m.Better, m.Bound))
		}
	}
	return 0
}

func quart(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// wins counts pairs in which B beat A; ties count for neither.
func wins(a, b []float64, better string) int {
	n := 0
	for i := range a {
		if i < len(b) && improves(b[i], a[i], better) {
			n++
		}
	}
	return n
}

// allBeat reports whether every value of xs improves on every value of ys.
func allBeat(xs, ys []float64, better string) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !improves(x, y, better) {
				return false
			}
		}
	}
	return true
}

func improves(x, than float64, better string) bool {
	if better == "higher" {
		return x > than
	}
	return x < than
}

// minGainPairs is how many pairs a gain needs at least.
const minGainPairs = 10

// verdict applies the benchmark's rules: unresolved when the noise is
// wider than the bound, unless every B run beats every A run; a
// regression when B's median is worse than A's by more than the bound;
// a gain only over at least minGainPairs pairs, when B wins at least
// nine tenths of them and the medians differ by more than A's own
// spread.
func verdict(a, b []float64, better string, bound float64) string {
	sa, sb := spread(a), spread(b)
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if better == "lower" {
		change = -change // positive = B better
	}
	desc := fmt.Sprintf("B %+.1f%% (spread A %.1f%%, B %.1f%%, bound %.0f%%)", 100*change, 100*sa, 100*sb, 100*bound)
	switch {
	case (sa > bound || sb > bound) && !allBeat(b, a, better):
		return "unresolved: " + desc
	case change < -bound:
		return "REGRESSION: " + desc
	case len(a) >= minGainPairs && 10*wins(a, b, better) >= 9*len(a) && change > sa:
		return "gain: " + desc
	}
	return "same within bound: " + desc
}
