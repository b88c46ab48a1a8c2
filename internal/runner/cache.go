package runner

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"dvi/internal/obs"
	"dvi/internal/prog"
	"dvi/internal/store"
	"dvi/internal/workload"
)

// CompileFunc compiles and links one benchmark flavour. The default is
// workload.CompileSpec; tests substitute counting or failing variants.
type CompileFunc func(s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error)

// BuildCache memoizes compiled binaries by workload.BuildKey with
// single-flight deduplication: under concurrent Get calls for the same
// key, exactly one caller compiles while the rest block on the result.
// Cached Program/Image pairs are shared across jobs and must be treated
// as read-only (emulators and machines copy the memory they mutate;
// callers must not re-link or rewrite a cached Program).
//
// A cache built with a positive capacity evicts in least-recently-used
// order once it holds more than capacity entries. The 20-odd binaries of
// a report run fit any reasonable bound; the bound exists for long-lived
// daemons (cmd/dvid) whose clients submit arbitrary assembly — an
// unbounded memo of user inputs is a memory leak. In-flight builds are
// never evicted (waiters must be able to join them); an entry evicted
// while a caller still holds its artifacts stays alive through that
// reference, the cache just forgets it.
type BuildCache struct {
	compile  CompileFunc
	capacity int // 0 = unbounded
	store    *store.Store

	mu      sync.Mutex
	entries map[workload.BuildKey]*buildEntry
	lru     list.List // of *buildEntry; front is most recently used

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	compiles  atomic.Int64
	storeHits atomic.Int64
}

// buildEntry is one in-flight or completed build. ready is closed when
// pr/img/err are final; done mirrors it under the cache lock so eviction
// can tell finished entries from in-flight ones.
type buildEntry struct {
	key   workload.BuildKey
	ready chan struct{}
	done  bool
	elem  *list.Element
	pr    *prog.Program
	img   *prog.Image
	err   error
}

// NewBuildCache builds an empty cache. A nil compile uses
// workload.CompileSpec. A positive capacity bounds the cache with LRU
// eviction; capacity <= 0 means unbounded. A non-nil store backs it with
// on-disk artifacts: memory misses first try the store (a verified
// artifact is decoded instead of compiled), and fresh compiles are
// persisted back, so a warm restart on the same store directory fills
// the whole cache without invoking the compiler once.
func NewBuildCache(compile CompileFunc, capacity int, st *store.Store) *BuildCache {
	if compile == nil {
		compile = workload.CompileSpec
	}
	if capacity < 0 {
		capacity = 0
	}
	return &BuildCache{compile: compile, capacity: capacity, store: st, entries: map[workload.BuildKey]*buildEntry{}}
}

// Store returns the backing artifact store (nil when purely in-memory).
func (c *BuildCache) Store() *store.Store { return c.store }

// enforceCapacity evicts completed least-recently-used entries until the
// cache fits its bound. In-flight entries are skipped: their compiling
// callers and waiters expect to find them. Caller holds mu.
func (c *BuildCache) enforceCapacity() {
	if c.capacity <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && len(c.entries) > c.capacity; {
		prev := el.Prev()
		if e := el.Value.(*buildEntry); e.done {
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.evictions.Add(1)
		}
		el = prev
	}
}

// Get returns the compiled binary for (s, scale, opt), compiling at most
// once per distinct key. Waiters honour ctx cancellation; the compiling
// caller always finishes its build so the entry is usable by others.
// Failed builds are cached too — every job needing the same binary fails
// identically rather than retrying a deterministic compile error.
func (c *BuildCache) Get(ctx context.Context, s workload.Spec, scale int, opt workload.BuildOptions) (*prog.Program, *prog.Image, error) {
	key := s.Key(scale, opt)
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok {
		c.lru.MoveToFront(ent.elem)
		c.mu.Unlock()
		c.hits.Add(1)
		select {
		case <-ent.ready:
			return ent.pr, ent.img, ent.err
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	ent := &buildEntry{key: key, ready: make(chan struct{})}
	ent.elem = c.lru.PushFront(ent)
	c.entries[key] = ent
	c.mu.Unlock()

	c.misses.Add(1)
	ent.pr, ent.img, ent.err = c.fill(ctx, s, scale, opt, key)
	c.mu.Lock()
	ent.done = true
	c.enforceCapacity()
	c.mu.Unlock()
	close(ent.ready)
	return ent.pr, ent.img, ent.err
}

// fill resolves a memory miss: a verified store artifact decodes
// straight into the cache, anything else compiles (and, on success,
// persists the artifact for the next process).
func (c *BuildCache) fill(ctx context.Context, s workload.Spec, scale int, opt workload.BuildOptions, key workload.BuildKey) (*prog.Program, *prog.Image, error) {
	if c.store != nil {
		if payload, ok := c.store.Get(store.BuildKind, key.String()); ok {
			_, span := obs.StartSpan(ctx, "store-decode")
			pr, img, err := store.DecodeProgram(payload)
			if span != nil {
				span.SetAttr("key", key.String())
				span.SetAttr("ok", err == nil)
				span.End()
			}
			if err == nil {
				c.storeHits.Add(1)
				return pr, img, nil
			}
			// Checksum passed but the grammar moved on: recompile.
		}
	}
	_, span := obs.StartSpan(ctx, "compile")
	pr, img, err := c.compile(s, scale, opt)
	if span != nil {
		span.SetAttr("key", key.String())
		span.End()
	}
	c.compiles.Add(1)
	if err == nil && c.store != nil {
		if perr := c.store.Put(store.BuildKind, key.String(), store.EncodeProgram(pr)); perr != nil {
			// Persistence is best-effort; the store counts its errors.
			_ = perr
		}
	}
	return pr, img, err
}

// Stats reports cache traffic: hits is the number of Get calls served
// from a completed or in-flight in-memory build, misses the number of
// fills (store decodes plus compiles).
func (c *BuildCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Compiles returns how many times the compile function actually ran —
// with a warm artifact store this stays at zero across a restart even
// as misses count store decodes.
func (c *BuildCache) Compiles() int64 { return c.compiles.Load() }

// StoreHits returns how many memory misses were served by decoding a
// verified on-disk artifact instead of compiling.
func (c *BuildCache) StoreHits() int64 { return c.storeHits.Load() }

// Evictions returns how many completed entries the LRU bound has dropped.
func (c *BuildCache) Evictions() int64 { return c.evictions.Load() }

// Len returns the number of distinct keys built or building.
func (c *BuildCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
