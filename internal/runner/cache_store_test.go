package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"dvi/internal/prog"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// TestBuildCacheStoreWarmRestart is the crash-recovery core: a second
// cache opened over the same store directory — a restarted daemon —
// fills from disk artifacts and never invokes the compiler.
func TestBuildCacheStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		calls.Add(1)
		return workload.CompileSpec(s, scale, opt)
	}
	spec, ok := workload.ByName("li")
	if !ok {
		t.Fatal("workload li missing")
	}
	ctx := context.Background()

	c1 := NewBuildCache(compile, 0, st1)
	pr1, _, err := c1.Get(ctx, spec, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || c1.Compiles() != 1 || c1.StoreHits() != 0 {
		t.Fatalf("cold fill: calls %d compiles %d storeHits %d", calls.Load(), c1.Compiles(), c1.StoreHits())
	}
	if st1.Stats().Puts != 1 {
		t.Fatalf("store stats: %+v", st1.Stats())
	}

	// "Restart": fresh store handle and cache over the same directory.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewBuildCache(compile, 0, st2)
	pr2, img2, err := c2.Get(ctx, spec, 1, workload.BuildOptions{EDVI: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("warm restart recompiled: %d calls", calls.Load())
	}
	if c2.Compiles() != 0 || c2.StoreHits() != 1 {
		t.Fatalf("warm fill: compiles %d storeHits %d", c2.Compiles(), c2.StoreHits())
	}
	if img2 == nil {
		t.Fatal("decoded artifact did not link")
	}
	// The decoded program must be the same binary, byte for byte.
	if string(store.EncodeProgram(pr2)) != string(store.EncodeProgram(pr1)) {
		t.Fatal("decoded program differs from the compiled one")
	}

	// A corrupted artifact must fall back to compiling, not fail.
	names, _ := filepath.Glob(filepath.Join(dir, "*.art"))
	if len(names) != 1 {
		t.Fatalf("want 1 artifact, have %v", names)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 1
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c3 := NewBuildCache(compile, 0, st3)
	if _, _, err := c3.Get(ctx, spec, 1, workload.BuildOptions{EDVI: true}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || c3.Compiles() != 1 {
		t.Fatalf("corrupt artifact not recompiled: calls %d compiles %d", calls.Load(), c3.Compiles())
	}
	if st3.Stats().Quarantined != 1 {
		t.Fatalf("store stats: %+v", st3.Stats())
	}
}

// TestBuildCacheEvictWhileFilling pins the eviction/single-flight
// interaction: an entry whose fill is still in flight must survive LRU
// pressure — eviction skips it — and every waiter that joined it
// receives exactly the artifact its one compile produced, not a
// recompile and not a released pointer.
func TestBuildCacheEvictWhileFilling(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var slowCalls, otherCalls atomic.Int64
	marker := prog.New()
	compile := func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
		if s.Name == "slow" {
			slowCalls.Add(1)
			close(started)
			<-release
			return marker, &prog.Image{}, nil
		}
		otherCalls.Add(1)
		return prog.New(), &prog.Image{}, nil
	}
	c := NewBuildCache(compile, 1, nil)
	ctx := context.Background()

	fillerDone := make(chan *prog.Program, 1)
	go func() {
		pr, _, err := c.Get(ctx, fakeSpec("slow"), 1, workload.BuildOptions{})
		if err != nil {
			t.Error(err)
		}
		fillerDone <- pr
	}()
	<-started

	// Hammer the 1-entry bound while "slow" is mid-fill: each of these
	// completes and immediately becomes eviction fodder, but "slow"
	// (not done) must be skipped every time.
	for i := 0; i < 8; i++ {
		if _, _, err := c.Get(ctx, fakeSpec(fmt.Sprintf("w%d", i)), 1, workload.BuildOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Evictions() == 0 {
		t.Fatal("bound never evicted despite 8 completed fills over capacity 1")
	}

	// Late waiters join the still-in-flight entry.
	var wg sync.WaitGroup
	waiters := make(chan *prog.Program, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, _, err := c.Get(ctx, fakeSpec("slow"), 1, workload.BuildOptions{})
			if err != nil {
				t.Error(err)
			}
			waiters <- pr
		}()
	}

	close(release)
	if pr := <-fillerDone; pr != marker {
		t.Fatal("filler got a different artifact than its compile produced")
	}
	wg.Wait()
	close(waiters)
	for pr := range waiters {
		if pr != marker {
			t.Fatal("waiter got a recompiled or released artifact")
		}
	}
	if slowCalls.Load() != 1 {
		t.Fatalf("slow compiled %d times, want 1", slowCalls.Load())
	}
}

// TestBuildCacheEvictFillStress races fills, joins, and evictions over
// a keyspace much larger than the bound; run under -race in CI it
// catches use-after-release and lock-ordering regressions in the
// eviction path.
func TestBuildCacheEvictFillStress(t *testing.T) {
	var calls atomic.Int64
	c := NewBuildCache(stubCompile(&calls), 2, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("w%d", (g*7+i)%16)
				pr, img, err := c.Get(ctx, fakeSpec(name), 1, workload.BuildOptions{})
				if err != nil || pr == nil || img == nil {
					t.Errorf("get %s: (%v, %v, %v)", name, pr, img, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 2 {
		t.Fatalf("len %d exceeds capacity after quiescence", n)
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions over 16 keys at capacity 2")
	}
}
