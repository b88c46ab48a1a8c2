package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"time"

	"dvi/internal/emu"
	"dvi/internal/harness"
	"dvi/internal/ooo"
	"dvi/internal/service"
)

// Correctness is checked against simulated counters pinned in
// pins.json: cycles, committed instructions, eliminated saves and
// restores and the functional counts of every job, and kills inserted
// plus text words of every annotation. Rendered report and response
// bytes are deliberately not pinned, so a new column or wire field does
// not read as a wrong answer. `perfbench --pin` recomputes the file
// in-process; a change that moves a pinned counter changes the
// simulator's results and must say so.

//go:embed pins.json
var pinsJSON []byte

// pinSet holds the pinned counter digests.
type pinSet struct {
	// Report maps workload → figure → one digest per result cell.
	Report map[string]map[string][]string `json:"report"`
	// Requests maps a catalogue request ID (see catalogue) to the digest
	// of its response's counters.
	Requests map[string]string `json:"requests"`
}

func loadPins() (*pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// digest condenses a counter list into a short stable string.
func digest(c []uint64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range c {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func timingCounters(st ooo.Stats) []uint64 {
	return append([]uint64{st.Cycles, st.Committed, st.ElimSaves, st.ElimRests}, funcCounters(st.Emu)...)
}

func funcCounters(f emu.Stats) []uint64 {
	return []uint64{f.Total, f.Kills, f.Calls, f.MemRefs, f.SavesExec, f.SavesElim, f.RestoresExec, f.RestoresElim, f.Faults}
}

func switchCounters(samples uint64, hist []uint64) []uint64 {
	var live uint64
	for k, n := range hist {
		live += uint64(k) * n
	}
	return []uint64{samples, live}
}

// jobCounters is the counter list of one /v2 result line (or the
// equivalent /v1 response); it fails on an error line or a missing
// payload.
func jobCounters(line service.JobResult) ([]uint64, error) {
	if line.Error != "" {
		return nil, fmt.Errorf("job error: %s", line.Error)
	}
	switch {
	case line.Simulate != nil:
		c := timingCounters(line.Simulate.Stats)
		for _, cs := range line.Simulate.CtxStats {
			c = append(c, cs.Committed, cs.ElimSaves, cs.ElimRests)
		}
		return c, nil
	case line.CtxSwitch != nil:
		return switchCounters(line.CtxSwitch.Result.Samples, line.CtxSwitch.Result.Hist[:]), nil
	case line.Annotate != nil:
		return []uint64{uint64(line.Annotate.Inserted), uint64(line.Annotate.TextWords)}, nil
	}
	return nil, fmt.Errorf("%s line without a payload", line.Kind)
}

// writePins recomputes every pin in-process and writes the file.
func writePins(path string) error {
	p := pinSet{Report: map[string]map[string][]string{}, Requests: map[string]string{}}
	ctx := context.Background()
	for _, sampled := range []bool{false, true} {
		name := "report"
		if sampled {
			name = "report-sampled"
		}
		opt := reportOptions(sampled)
		jc := &jobClock{open: map[string]time.Time{}}
		sess, _, err := reportSetup(ctx, nil, opt.Workers, reportKeys(opt), jc)
		if err != nil {
			return err
		}
		rs, err := harness.CollectResults(ctx, sess, opt, harness.ReportIDs())
		if err != nil {
			return err
		}
		figs := map[string][]string{}
		for _, id := range harness.ReportIDs() {
			figs[id] = []string{}
			for _, r := range rs[id] {
				figs[id] = append(figs[id], digest(resultCounters(r)))
			}
		}
		p.Report[name] = figs
	}
	srv := service.New(serviceConfig(engineWorkers))
	for _, e := range catalogue() {
		line := srv.ExecuteJob(ctx, e.req)
		c, err := jobCounters(line)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		p.Requests[e.id] = digest(c)
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: pinned %d report cells and %d requests\n", countCells(p), len(p.Requests))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func countCells(p pinSet) int {
	n := 0
	for _, figs := range p.Report {
		for _, cells := range figs {
			n += len(cells)
		}
	}
	return n
}

// check compares one response's counters with the pin of request id.
func (p *pinSet) check(id string, line service.JobResult) error {
	c, err := jobCounters(line)
	if err != nil {
		return err
	}
	want, ok := p.Requests[id]
	if !ok {
		return fmt.Errorf("%s: no pin (regenerate pins.json)", id)
	}
	if got := digest(c); got != want {
		return fmt.Errorf("%s: counters %s, pinned %s", id, got, want)
	}
	return nil
}
