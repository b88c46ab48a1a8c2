// Package store is a content-addressed on-disk artifact store: compiled
// build images keyed by workload.BuildKey and sampled interval-result
// sets keyed by plan hash survive daemon restarts and are shared across
// processes pointed at the same directory.
//
// Every entry is one flat file whose first line is a header carrying a
// magic, the artifact kind, the payload's sha256 and length, and the
// logical key; the payload follows verbatim. Writes are crash-safe
// (temp file in the same directory, fsync, rename); reads re-hash the
// payload and compare against the header — an entry that fails the
// checksum, has a malformed header, or answers for the wrong key is
// moved into a quarantine/ subdirectory and reported as a miss, never
// served. A byte budget evicts least-recently-used entries (recency is
// file mtime, bumped on hit, so LRU order survives restarts too).
package store

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
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
)

// Artifact kinds. Kinds namespace keys: a build image and a sampled
// record for the same workload never collide.
const (
	BuildKind   = "build"   // annotated assembly text of a linked program
	SampledKind = "sampled" // interval-result set for one sampling plan
)

const (
	magic         = "dvistore1"
	fileExt       = ".art"
	quarantineDir = "quarantine"
	// maxHeaderBytes caps how far readHeader scans for the header's
	// newline — far beyond any legitimate header (magic, kind, a sha256,
	// a length, and a quoted key), so hitting it means the file is not
	// an entry.
	maxHeaderBytes = 64 << 10
)

// Options configure Open.
type Options struct {
	// Dir is the store directory; created if missing.
	Dir string
	// Budget bounds the total payload bytes kept on disk; <= 0 means
	// unbounded. A single entry larger than the whole budget is kept
	// anyway — a budget that cannot hold one artifact would make the
	// store useless rather than small.
	Budget int64
	// TamperWrite, when non-nil, may mutate the encoded file bytes
	// before they hit disk. It exists ONLY for fault injection in
	// tests (internal/faults corrupts payloads to exercise the
	// quarantine path); production code must leave it nil.
	TamperWrite func(kind, key string, data []byte) []byte
}

// Store is a concurrency-safe handle on one store directory. Multiple
// processes may share a directory: writes are atomic renames and reads
// verify checksums, so the worst cross-process race is a redundant
// fill, never a torn artifact.
type Store struct {
	dir    string
	budget int64
	tamper func(kind, key string, data []byte) []byte

	mu      sync.Mutex
	entries map[string]*entry // file stem -> entry
	lru     list.List         // of *entry; front is most recently used
	bytes   int64

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	evictions   atomic.Int64
	quarantined atomic.Int64
	errors      atomic.Int64
}

// entry is one on-disk artifact tracked in the LRU index.
type entry struct {
	id        string // file stem: kind-hash
	kind, key string
	size      int64 // full file size, header included
	elem      *list.Element
}

// Stats is a snapshot of store traffic counters.
type Stats struct {
	Hits        int64 // Get calls served from a verified entry
	Misses      int64 // Get calls with no (servable) entry
	Puts        int64 // successful writes
	Evictions   int64 // entries dropped by the byte budget
	Quarantined int64 // corrupt entries moved aside, never served
	Errors      int64 // I/O failures (best-effort paths)
	Entries     int   // live entries
	Bytes       int64 // bytes held by live entries
}

// id derives the file stem for (kind, key): content addressing over the
// key keeps arbitrary key strings (quoted asm hashes, plan hashes) out
// of filenames.
func id(kind, key string) string {
	sum := sha256.Sum256([]byte(key))
	return kind + "-" + hex.EncodeToString(sum[:12])
}

// Open scans dir (creating it if needed) and rebuilds the LRU index
// from file mtimes. Files with unreadable headers are quarantined
// immediately; payloads are verified lazily on Get.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(opt.Dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{
		dir:     opt.Dir,
		budget:  opt.Budget,
		tamper:  opt.TamperWrite,
		entries: map[string]*entry{},
	}
	names, err := filepath.Glob(filepath.Join(opt.Dir, "*"+fileExt))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type scanned struct {
		e     *entry
		mtime time.Time
	}
	var found []scanned
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil || fi.IsDir() {
			continue
		}
		kind, key, _, _, err := readHeader(name)
		if err != nil {
			st.quarantine(name)
			continue
		}
		stem := strings.TrimSuffix(filepath.Base(name), fileExt)
		found = append(found, scanned{
			e:     &entry{id: stem, kind: kind, key: key, size: fi.Size()},
			mtime: fi.ModTime(),
		})
	}
	// Oldest first so the most recently used entry ends up at the front.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].e.id < found[j].e.id
	})
	for _, s := range found {
		st.addLocked(s.e)
	}
	st.mu.Lock()
	victims := st.evictLocked()
	st.mu.Unlock()
	for _, v := range victims {
		os.Remove(filepath.Join(opt.Dir, v+fileExt))
	}
	return st, nil
}

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// header is "dvistore1 <kind> <sha256hex> <payloadLen> <quotedKey>\n".
func header(kind, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return []byte(fmt.Sprintf("%s %s %s %d %s\n",
		magic, kind, hex.EncodeToString(sum[:]), len(payload), strconv.Quote(key)))
}

// readHeader parses just the header line of an entry file.
func readHeader(name string) (kind, key, sum string, plen int, err error) {
	f, err := os.Open(name)
	if err != nil {
		return "", "", "", 0, err
	}
	defer f.Close()
	// Read until the newline, not a single Read call: a short read that
	// stops before the delimiter must not make a valid entry look
	// header-less and get it quarantined.
	line, err := bufio.NewReader(io.LimitReader(f, maxHeaderBytes)).ReadString('\n')
	if err != nil {
		return "", "", "", 0, fmt.Errorf("store: no header line")
	}
	return parseHeader(strings.TrimSuffix(line, "\n"))
}

func parseHeader(line string) (kind, key, sum string, plen int, err error) {
	fields := strings.SplitN(line, " ", 5)
	if len(fields) != 5 || fields[0] != magic {
		return "", "", "", 0, fmt.Errorf("store: malformed header")
	}
	plen, err = strconv.Atoi(fields[3])
	if err != nil || plen < 0 {
		return "", "", "", 0, fmt.Errorf("store: bad payload length")
	}
	key, err = strconv.Unquote(fields[4])
	if err != nil {
		return "", "", "", 0, fmt.Errorf("store: bad key")
	}
	return fields[1], key, fields[2], plen, nil
}

// Get returns the verified payload for (kind, key). A missing entry is
// a plain miss; an entry that fails verification is quarantined and
// reported as a miss — a corrupt artifact is never served.
func (st *Store) Get(kind, key string) ([]byte, bool) {
	stem := id(kind, key)
	st.mu.Lock()
	e, ok := st.entries[stem]
	st.mu.Unlock()
	if !ok {
		st.misses.Add(1)
		return nil, false
	}
	// All disk I/O happens outside the lock so one slow read never
	// serializes unrelated lookups (or Stats) behind it; the index is
	// re-checked before every mutation because the entry may have been
	// evicted or replaced by a concurrent Put meanwhile — the same
	// benign redundant-fill race the package already accepts across
	// processes.
	name := filepath.Join(st.dir, stem+fileExt)
	data, err := os.ReadFile(name)
	if err != nil {
		// Count an I/O error only when e was still indexed — a file
		// removed by a concurrent eviction is a plain miss, not a fault.
		if st.dropIfCurrent(e) {
			st.errors.Add(1)
		}
		st.misses.Add(1)
		return nil, false
	}
	payload, err := verify(data, kind, key)
	if err != nil {
		// Quarantine only while e is still the indexed entry: if a Put
		// replaced it since the read, the file on disk is the fresh one,
		// not the corrupt bytes just examined.
		if st.dropIfCurrent(e) {
			st.quarantine(name)
			st.quarantined.Add(1)
		}
		st.misses.Add(1)
		return nil, false
	}
	st.mu.Lock()
	if st.entries[stem] == e {
		st.lru.MoveToFront(e.elem)
	}
	st.mu.Unlock()
	now := time.Now()
	if err := os.Chtimes(name, now, now); err != nil {
		st.errors.Add(1) // recency bump is best-effort
	}
	st.hits.Add(1)
	return payload, true
}

// dropIfCurrent forgets e if it is still the indexed entry for its id,
// reporting whether it was; a stale pointer (the entry was evicted or
// replaced concurrently) is left alone so byte accounting stays exact.
func (st *Store) dropIfCurrent(e *entry) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.entries[e.id] != e {
		return false
	}
	st.dropLocked(e)
	return true
}

// verify checks the header against the actual bytes and returns the
// payload.
func verify(data []byte, kind, key string) ([]byte, error) {
	line, rest, ok := strings.Cut(string(data), "\n")
	if !ok {
		return nil, fmt.Errorf("store: no header line")
	}
	hkind, hkey, hsum, plen, err := parseHeader(line)
	if err != nil {
		return nil, err
	}
	if hkind != kind || hkey != key {
		return nil, fmt.Errorf("store: entry answers for %s/%q, want %s/%q", hkind, hkey, kind, key)
	}
	if len(rest) != plen {
		return nil, fmt.Errorf("store: payload length %d, header says %d", len(rest), plen)
	}
	sum := sha256.Sum256([]byte(rest))
	if hex.EncodeToString(sum[:]) != hsum {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	return []byte(rest), nil
}

// Put writes (kind, key, payload) atomically: temp file in the store
// directory, fsync, rename. An existing entry for the key is replaced.
func (st *Store) Put(kind, key string, payload []byte) error {
	stem := id(kind, key)
	data := append(header(kind, key, payload), payload...)
	if st.tamper != nil {
		data = st.tamper(kind, key, data)
	}
	// The write happens entirely outside the lock: the rename is atomic
	// and readers verify checksums, so concurrent fills for one key race
	// benignly (last rename wins) while the lock covers only the index
	// update below.
	name := filepath.Join(st.dir, stem+fileExt)
	tmp, err := os.CreateTemp(st.dir, "tmp-*")
	if err != nil {
		st.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		st.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		st.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		st.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		st.errors.Add(1)
		return fmt.Errorf("store: %w", err)
	}
	st.mu.Lock()
	if old, ok := st.entries[stem]; ok {
		st.dropLocked(old)
	}
	st.addLocked(&entry{id: stem, kind: kind, key: key, size: int64(len(data))})
	victims := st.evictLocked()
	st.mu.Unlock()
	st.puts.Add(1)
	for _, v := range victims {
		os.Remove(filepath.Join(st.dir, v+fileExt))
	}
	return nil
}

// addLocked indexes e as the most recently used entry. Caller holds mu
// (or owns st exclusively, as Open does).
func (st *Store) addLocked(e *entry) {
	e.elem = st.lru.PushFront(e)
	st.entries[e.id] = e
	st.bytes += e.size
}

// dropLocked forgets e without touching its file. Caller holds mu.
func (st *Store) dropLocked(e *entry) {
	st.lru.Remove(e.elem)
	delete(st.entries, e.id)
	st.bytes -= e.size
}

// quarantine moves a corrupt or unreadable file into quarantine/ for
// post-mortem inspection; it is never served again.
func (st *Store) quarantine(name string) {
	dst := filepath.Join(st.dir, quarantineDir, filepath.Base(name))
	if err := os.Rename(name, dst); err != nil {
		// Removing beats serving corruption if the rename fails.
		os.Remove(name)
	}
}

// evictLocked forgets least-recently-used entries until the store fits
// its byte budget, always keeping at least one entry, and returns the
// evicted ids. Caller holds mu and removes the victims' files after
// unlocking — file removal is disk I/O that must not run under the
// lock.
func (st *Store) evictLocked() (victims []string) {
	if st.budget <= 0 {
		return nil
	}
	for st.bytes > st.budget && len(st.entries) > 1 {
		e := st.lru.Back().Value.(*entry)
		victims = append(victims, e.id)
		st.dropLocked(e)
		st.evictions.Add(1)
	}
	return victims
}

// Stats returns a snapshot of the store's counters.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	entries, bytes := len(st.entries), st.bytes
	st.mu.Unlock()
	return Stats{
		Hits:        st.hits.Load(),
		Misses:      st.misses.Load(),
		Puts:        st.puts.Load(),
		Evictions:   st.evictions.Load(),
		Quarantined: st.quarantined.Load(),
		Errors:      st.errors.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// Len returns the number of live entries.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}
