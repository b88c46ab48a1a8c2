package gateway

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"dvi/internal/service"
)

func TestRingOrderedCoversAllBackends(t *testing.T) {
	ids := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(ids, 64)
	counts := make([]int, len(ids))
	for i := 0; i < 1000; i++ {
		ord := r.ordered(fmt.Sprintf("key-%d", i))
		if len(ord) != len(ids) {
			t.Fatalf("ordered returned %d backends, want %d", len(ord), len(ids))
		}
		seen := map[int]bool{}
		for _, idx := range ord {
			if seen[idx] {
				t.Fatalf("duplicate backend %d in %v", idx, ord)
			}
			seen[idx] = true
		}
		counts[ord[0]]++
	}
	// With 64 vnodes each, 1000 keys should land on every backend a
	// substantial number of times — a collapsed ring routes everything
	// to one place.
	for i, n := range counts {
		if n < 100 {
			t.Errorf("backend %d owns only %d/1000 keys — skewed ring (%v)", i, n, counts)
		}
	}
}

func TestRingStableUnderMembershipChange(t *testing.T) {
	full := newRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 64)
	reduced := newRing([]string{"http://a:1", "http://b:1"}, 64)
	moved := 0
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := full.ordered(key)[0]
		if owner == 2 {
			continue // c's keys must move somewhere, of course
		}
		if reduced.ordered(key)[0] != owner {
			moved++
		}
	}
	// Consistent hashing: keys not owned by the removed backend keep
	// their owner (same id strings hash to the same points).
	if moved != 0 {
		t.Errorf("%d keys owned by surviving backends moved on membership change", moved)
	}
	// Determinism: the same ids build the same ring.
	again := newRing([]string{"http://a:1", "http://b:1", "http://c:1"}, 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		a, b := full.ordered(key), again.ordered(key)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("ring order for %q not deterministic: %v vs %v", key, a, b)
			}
		}
	}
}

func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(2, 50*time.Millisecond)
	now := time.Unix(1000, 0)

	if !b.allow(now) {
		t.Fatal("closed breaker rejected a request")
	}
	b.failure(now)
	if b.currentState() != breakerClosed {
		t.Fatal("one failure of two tripped the breaker")
	}
	b.failure(now)
	if b.currentState() != breakerOpen {
		t.Fatal("threshold failures did not open the breaker")
	}
	if b.allow(now.Add(10 * time.Millisecond)) {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	// Cooldown expiry: exactly one probe goes through.
	probeAt := now.Add(60 * time.Millisecond)
	if !b.allow(probeAt) {
		t.Fatal("cooldown expiry did not admit the half-open probe")
	}
	if b.currentState() != breakerHalfOpen {
		t.Fatalf("state %d after probe admission, want half-open", b.currentState())
	}
	if b.allow(probeAt) {
		t.Fatal("second caller stole the half-open probe slot")
	}
	if b.closed() {
		t.Fatal("half-open breaker claims to be closed")
	}

	// Failed probe: straight back to open for another cooldown.
	b.failure(probeAt)
	if b.currentState() != breakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}

	// Successful probe closes it and resets the failure count.
	if !b.allow(probeAt.Add(60 * time.Millisecond)) {
		t.Fatal("second cooldown did not admit a probe")
	}
	b.success()
	if b.currentState() != breakerClosed || !b.closed() {
		t.Fatal("successful probe did not close the breaker")
	}
	b.failure(now)
	if b.currentState() != breakerClosed {
		t.Fatal("failure count was not reset by success")
	}
}

// TestRouteKeyShapes pins the keys the gateway routes by, which it takes
// from its local server: a workload keys by its name and the scale a
// backend runs it at, assembly by its digest at scale 1.
func TestRouteKeyShapes(t *testing.T) {
	key := service.New(service.Config{}).RouteKey
	if key("compress", "", 0) != "compress/x1" {
		t.Fatalf("workload key: %q", key("compress", "", 0))
	}
	if key("compress", "", 3) != "compress/x3" {
		t.Fatalf("scaled key: %q", key("compress", "", 3))
	}
	if k := key("compress", "", service.DefaultMaxScale+1); k != fmt.Sprintf("compress/x%d", service.DefaultMaxScale) {
		t.Fatalf("key above MaxScale: %q", k)
	}
	a1, a2 := key("", "some asm", 1), key("", "some asm", 1)
	if a1 != a2 {
		t.Fatal("asm keys not deterministic")
	}
	if sum := sha256.Sum256([]byte("some asm")); a1 != "asm:"+hex.EncodeToString(sum[:12])+"/x1" {
		t.Fatalf("asm key: %q", a1)
	}
	if a1 == key("", "other asm", 1) {
		t.Fatal("distinct asm collides")
	}
}
