package main

import (
	"context"
	"math"
	"testing"
	"time"

	"dvi/internal/obs"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{id: 1, name: "parent", start: 0, end: 100},
		// Overlapping children count once; a child running past its
		// parent is clipped to it.
		{id: 2, parent: 1, name: "child", start: 10, end: 30},
		{id: 3, parent: 1, name: "child", start: 20, end: 50},
		{id: 4, parent: 1, name: "child", start: 90, end: 120},
		{id: 5, parent: 3, name: "grandchild", start: 25, end: 35},
		{id: 6, name: "other-root", start: 0, end: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	by := sumByName(spans)
	if c := by["child"]; c.n != 3 || c.total != 80 || c.own != 70 {
		t.Errorf("child layer = %+v, want n 3, total 80, own 70", c)
	}
}

func TestTracerNestsAndFoldsObsSpans(t *testing.T) {
	tr := newTracer()
	ctx, outer := tr.start(context.Background(), "bench.outer")
	_, inner := tr.start(ctx, "bench.inner")
	inner.end()

	octx := obs.WithRecorder(context.Background(), tr.recorder())
	octx, job := obs.StartSpan(octx, "job")
	job.SetAttr("queue_wait_ms", 1.5)
	_, timing := obs.StartSpan(octx, "timing")
	timing.End()
	job.End()
	outer.end()

	ids := map[string]span{}
	for _, s := range tr.all() {
		ids[s.name] = s
	}
	if len(ids) != 4 {
		t.Fatalf("recorded %d distinct spans, want 4: %v", len(ids), ids)
	}
	if ids["bench.inner"].parent != ids["bench.outer"].id || ids["bench.outer"].parent != 0 {
		t.Error("benchmark spans did not nest")
	}
	if ids["timing"].parent != ids["job"].id || ids["job"].parent != 0 {
		t.Error("folded obs spans lost their tree")
	}
	if got := attrSum(tr.all(), "job", "queue_wait_ms"); got != 1.5 {
		t.Errorf("queue_wait_ms attribute = %v, want 1.5", got)
	}
	if ids["timing"].start < ids["job"].start || ids["timing"].end > ids["job"].end+int64(time.Millisecond) {
		t.Error("folded span times are off the tracer's clock")
	}
}

// A traced run's window keeps the spans that start inside it, with
// their subtrees, and drops set-up before it and scrapes after it.
func TestWithinKeepsTheWindow(t *testing.T) {
	spans := []span{
		{id: 1, name: "setup", start: 0, end: 40},
		{id: 2, parent: 1, name: "warm-up", start: 5, end: 30},
		{id: 3, name: "client", start: 50, end: 90},
		{id: 4, parent: 3, name: "handler", start: 55, end: 85},
		{id: 5, name: "client", start: 99, end: 120},
		{id: 6, name: "scrape", start: 100, end: 101},
	}
	var got []int64
	for _, s := range within(spans, 50, 100) {
		got = append(got, s.id)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("within(50, 100) kept spans %v, want [3 4 5]", got)
	}
	if by := sumByName(within(spans, 50, 100)); by["client"].own != 40-30+21 {
		t.Errorf("window client self time = %d, want 31", by["client"].own)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	ctx, sp := tr.start(context.Background(), "x")
	sp.set("k", 1)
	sp.end()
	if sp.id() != 0 || spanOf(ctx) != 0 || tr.all() != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestOverheadOverUntracedMedian(t *testing.T) {
	o, xs := overheadOver("2\n1.5\nbad\n0\n3\n", 2.2)
	if len(xs) != 3 || math.Abs(o-0.1) > 1e-12 {
		t.Errorf("overheadOver = %v over %v, want 0.1 over the three valid times", o, xs)
	}
	if o, xs := overheadOver("", 1); o != 0 || xs != nil {
		t.Errorf("overheadOver with nothing recorded = %v, %v; want 0 (unresolved)", o, xs)
	}
}
