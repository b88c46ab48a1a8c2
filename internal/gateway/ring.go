package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over backend indices. Each backend
// owns virtualNodes points on a 64-bit circle; a key routes to the backend
// owning the first point clockwise of the key's hash. Routing by build
// key keeps every flavour of one workload on one backend, so the
// fleet-wide build cache stays single-flight per key: N gateways or N
// jobs asking for the same binary all land where it is (or will be)
// compiled. Adding or removing a backend moves only ~1/N of the key
// space.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // backend count
}

type ringPoint struct {
	hash uint64
	idx  int // backend index
}

// virtualNodes is the number of ring points each backend owns.
const virtualNodes = 64

// newRing builds a ring over n backends identified by ids (typically
// their URLs, so point placement is stable across restarts and across
// gateway replicas seeing the same fleet).
func newRing(ids []string) *ring {
	r := &ring{n: len(ids)}
	for i, id := range ids {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].idx < r.points[b].idx
	})
	return r
}

// hash64 positions strings on the ring. SHA-256 rather than a fast
// non-cryptographic hash: vnode labels differ only in a short suffix,
// and weak mixing there visibly skews ownership (a 3-backend ring
// measured 79/20/1 with FNV-1a). Hashing is init- and per-request-rare,
// so the cost is irrelevant.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// ordered returns all backend indices in the key's ring order: the
// key's owner first, then each distinct successor. The tail of the list
// is the retry/hedge preference order, so a key always fails over to
// the same replicas.
func (r *ring) ordered(key string) []int {
	if r.n == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(out) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.idx] {
			seen[p.idx] = true
			out = append(out, p.idx)
		}
	}
	return out
}
