package runner

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvi/internal/prog"
	"dvi/internal/workload"
)

// fakeSpec returns a distinct no-op workload spec; the counting compile
// functions below never call Build.
func fakeSpec(name string) workload.Spec {
	return workload.Spec{Name: name}
}

// stubCompile returns a CompileFunc that counts invocations and
// returns a distinct empty program per key.
func stubCompile(calls *atomic.Int64) CompileFunc {
	return func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		calls.Add(1)
		return prog.New(), &prog.Image{}, nil
	}
}

func TestBuildCacheLRUEviction(t *testing.T) {
	var calls atomic.Int64
	c := NewBuildCache(stubCompile(&calls), 2, nil)
	ctx := context.Background()
	get := func(name string) {
		t.Helper()
		if _, _, err := c.Get(ctx, fakeSpec(name), 1, workload.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	get("a")
	get("b")
	if n := c.Len(); n != 2 {
		t.Fatalf("len %d, want 2", n)
	}
	get("a") // promote a; b is now LRU
	get("c") // evicts b
	if n := c.Evictions(); n != 1 {
		t.Fatalf("evictions %d, want 1", n)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("len %d, want 2", n)
	}
	before := calls.Load()
	get("a") // still cached: no compile
	if calls.Load() != before {
		t.Fatalf("a was evicted: %d compiles, want %d", calls.Load(), before)
	}
	get("b") // recompiled after eviction
	if calls.Load() != before+1 {
		t.Fatalf("b not recompiled: %d compiles, want %d", calls.Load(), before+1)
	}
	if c.Evictions() != 2 { // inserting b evicted c or a
		t.Fatalf("evictions %d, want 2", c.Evictions())
	}
}

func TestBuildCacheUnboundedNeverEvicts(t *testing.T) {
	var calls atomic.Int64
	c := NewBuildCache(stubCompile(&calls), 0, nil)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, _, err := c.Get(ctx, fakeSpec(fmt.Sprintf("w%d", i)), 1, workload.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Evictions() != 0 || c.Len() != 100 {
		t.Fatalf("evictions %d len %d, want 0 and 100", c.Evictions(), c.Len())
	}
}

// TestBuildCacheLRUSingleFlightUnderBound drives many goroutines over a
// keyspace larger than the bound and checks the single-flight invariant
// still holds per concurrent key, evictions happen, and the cache never
// exceeds its capacity by more than the in-flight builds.
func TestBuildCacheLRUSingleFlightUnderBound(t *testing.T) {
	var calls atomic.Int64
	const capacity = 4
	c := NewBuildCache(stubCompile(&calls), capacity, nil)
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d", (g+i)%10)
				if _, _, err := c.Get(ctx, fakeSpec(name), 1, workload.BuildOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if n := c.Len(); n > capacity {
		t.Fatalf("len %d exceeds capacity %d after quiescence", n, capacity)
	}
	if c.Evictions() == 0 {
		t.Fatal("expected evictions over a keyspace larger than the bound")
	}
	hits, misses := c.Stats()
	if misses != calls.Load() {
		t.Fatalf("misses %d != compile calls %d", misses, calls.Load())
	}
	if hits+misses != 8*50 {
		t.Fatalf("hits+misses %d, want %d", hits+misses, 8*50)
	}
}

// TestBuildCacheJoinInFlightCountsHit pins the counter semantics the
// /metrics gauges export: a waiter that joins a build already compiling
// is a hit — only actual compiles count as misses.
func TestBuildCacheJoinInFlightCountsHit(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		close(started)
		<-release
		return prog.New(), &prog.Image{}, nil
	}
	c := NewBuildCache(compile, 0, nil)
	ctx := context.Background()

	compilerDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, fakeSpec("w"), 1, workload.BuildOptions{})
		compilerDone <- err
	}()
	<-started // the compiling caller holds the in-flight entry

	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, fakeSpec("w"), 1, workload.BuildOptions{})
		waiterDone <- err
	}()

	// The waiter must be counted as a hit the moment it joins the
	// in-flight entry, before the build completes.
	deadline := time.After(5 * time.Second)
	for {
		if hits, _ := c.Stats(); hits == 1 {
			break
		}
		select {
		case <-deadline:
			hits, misses := c.Stats()
			t.Fatalf("waiter never counted as hit (hits %d, misses %d)", hits, misses)
		case <-time.After(time.Millisecond):
		}
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("mid-flight stats hits %d misses %d, want 1 and 1", hits, misses)
	}

	close(release)
	if err := <-compilerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatal(err)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("final stats hits %d misses %d, want 1 and 1", hits, misses)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("len %d, want 1", n)
	}
}
