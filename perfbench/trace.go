package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvi/internal/obs"
)

// The benchmark's own tracing. A traced run records a span around every
// call it makes into one of the program's layers (session, harness,
// compile hook, progress hook, HTTP handlers, the gateway's transport,
// client calls) and folds in the span trees the program already exposes
// (obs recorders, /debug/trace/recent). Spans stay in memory until the
// run ends; per-layer numbers are computed from them afterwards. An
// untraced run uses a nil *tracer, whose methods do nothing.

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent 0 marks a root.
type span struct {
	id, parent int64
	name       string
	start, end int64
	attrs      map[string]any
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type spanKey struct{}

// live is an open span; end records it.
type live struct {
	t *tracer
	s span
}

// start opens a span as a child of the span on ctx (if any) and returns
// a context carrying it. On a nil tracer it returns ctx and nil.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *live) {
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	return t.startUnder(ctx, parent, name)
}

// startUnder is start with an explicit parent ID (a span on another
// goroutine or across an HTTP hop).
func (t *tracer) startUnder(ctx context.Context, parent int64, name string) (context.Context, *live) {
	if t == nil {
		return ctx, nil
	}
	l := &live{t: t, s: span{id: t.ids.Add(1), parent: parent, name: name, start: t.now()}}
	return context.WithValue(ctx, spanKey{}, l.s.id), l
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id returns the span's ID (0 on nil).
func (l *live) id() int64 {
	if l == nil {
		return 0
	}
	return l.s.id
}

// set annotates the span. Not safe for concurrent use on one span.
func (l *live) set(key string, v any) {
	if l == nil {
		return
	}
	if l.s.attrs == nil {
		l.s.attrs = map[string]any{}
	}
	l.s.attrs[key] = v
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.s.end = l.t.now()
	l.t.add(l.s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanOf returns the benchmark span ID carried by ctx (0 if none).
func spanOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// foldObs records a completed obs span tree from the program under
// parent, keeping its attributes.
func (t *tracer) foldObs(parent int64, snap *obs.SpanSnapshot) {
	if t == nil || snap == nil {
		return
	}
	start := int64(snap.Start.Sub(t.epoch))
	s := span{
		id:     t.ids.Add(1),
		parent: parent,
		name:   snap.Name,
		start:  start,
		end:    start + int64(snap.DurationMS*float64(time.Millisecond)),
		attrs:  snap.Attrs,
	}
	t.add(s)
	for _, c := range snap.Children {
		t.foldObs(s.id, c)
	}
}

// recorder returns an obs.Recorder that folds every completed root span
// tree of the program into t as a root.
func (t *tracer) recorder() *obs.Recorder {
	rec := obs.NewRecorder(1) // the ring is unused; OnRecord keeps everything
	rec.OnRecord = func(root *obs.Span) { t.foldObs(0, root.Snapshot()) }
	return rec
}

// all returns the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// within returns the spans that start in [from, to): one phase of a
// traced run, so that its set-up and the benchmark's own scrapes after
// the window do not mix into the window's layer metrics. A span's
// children start after it, so a kept span keeps its whole subtree.
func within(spans []span, from, to int64) []span {
	var out []span
	for _, s := range spans {
		if s.start >= from && s.start < to {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of it that its children cover. Children may overlap one another (a
// batch's jobs run in parallel), so the covered part is the union of
// their intervals, clipped to the parent.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered returns how much of p's interval the union of cs covers.
func covered(p span, cs []span) time.Duration {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.start, p.start), min(c.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// layerSum aggregates spans by name: count, total duration and total
// self time.
type layerSum struct {
	n          int
	total, own time.Duration
}

func sumByName(spans []span) map[string]layerSum {
	self := selfTimes(spans)
	out := map[string]layerSum{}
	for _, s := range spans {
		ls := out[s.name]
		ls.n++
		ls.total += s.dur()
		ls.own += self[s.id]
		out[s.name] = ls
	}
	return out
}

// obs.trace_overhead compares a traced run's time per operation with
// the untraced runs'. Each untraced run appends its time per operation
// (seconds per report, or per request) to a file in the checkout's
// build directory, named after the workload and a hash of the benchmark
// binary, so that runs of another build never mix in. A traced run
// reports its own time over their median, minus one; without untraced
// runs of the same build the overhead is unresolved and reads 0.

// untracedFile is where the untraced runs of workload w by this binary
// record their time per operation.
func untracedFile(w string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return filepath.Join(scratchRoot, fmt.Sprintf("untraced-%s-%x.txt", w, h.Sum(nil)[:6])), nil
}

// recordUntraced appends an untraced run's time per operation.
func recordUntraced(w string, perOp float64) {
	path, err := untracedFile(w)
	if err == nil {
		var f *os.File
		if f, err = os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			_, err = fmt.Fprintf(f, "%g\n", perOp)
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: untraced time not recorded:", err)
	}
}

// traceOverhead returns a traced run's time per operation over the
// median of the recorded untraced runs', minus one.
func traceOverhead(w string, perOp float64) float64 {
	var recorded string
	if path, err := untracedFile(w); err == nil {
		data, _ := os.ReadFile(path)
		recorded = string(data)
	}
	o, xs := overheadOver(recorded, perOp)
	if len(xs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s obs.trace_overhead unresolved: no untraced runs of this build recorded\n", w)
		return 0
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s obs.trace_overhead %+.3f against the median of %d untraced runs (their spread %.1f%%)\n",
		w, o, len(xs), 100*spread(xs))
	return o
}

// overheadOver parses recorded times per operation, one a line, and
// returns perOp over their median, minus one (0 with none recorded).
func overheadOver(recorded string, perOp float64) (float64, []float64) {
	var xs []float64
	for _, f := range strings.Fields(recorded) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && v > 0 {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0, nil
	}
	return perOp/median(xs) - 1, xs
}
