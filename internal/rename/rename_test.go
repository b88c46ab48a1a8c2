package rename

import (
	"math/rand"
	"testing"
)

func TestResetIdentity(t *testing.T) {
	tab := NewTableCtx(40, 1)
	for r := uint8(0); r < NumArch; r++ {
		p, ok := tab.MapCtx(0, r)
		if !ok || p != PhysReg(r) {
			t.Errorf("Map(%d) = %d,%v", r, p, ok)
		}
		if !tab.Ready(p) {
			t.Errorf("architectural p%d not ready", p)
		}
	}
	if tab.FreeCount() != 8 {
		t.Errorf("free = %d, want 8", tab.FreeCount())
	}
}

func TestRenameAllocatesAndTracksPrev(t *testing.T) {
	tab := NewTableCtx(34, 1)
	newP, prevP, ok := tab.RenameCtx(0, 5)
	if !ok || prevP != 5 {
		t.Fatalf("rename = %d,%d,%v", newP, prevP, ok)
	}
	if newP < NumArch {
		t.Errorf("allocated architectural register %d", newP)
	}
	if tab.Ready(newP) {
		t.Error("fresh allocation already ready")
	}
	p, _ := tab.MapCtx(0, 5)
	if p != newP {
		t.Error("map not updated")
	}
	// Two free registers existed; a second and third rename exhaust them.
	if _, _, ok := tab.RenameCtx(0, 6); !ok {
		t.Fatal("second rename failed")
	}
	if _, _, ok := tab.RenameCtx(0, 7); ok {
		t.Error("rename succeeded with empty free list")
	}
}

func TestFreeRecycles(t *testing.T) {
	tab := NewTableCtx(33, 1)
	newP, prevP, _ := tab.RenameCtx(0, 3)
	tab.Free(prevP) // the overwriting instruction commits
	p2, prev2, ok := tab.RenameCtx(0, 4)
	if !ok {
		t.Fatal("rename after free failed")
	}
	if p2 != prevP {
		t.Errorf("recycled %d, want %d", p2, prevP)
	}
	if prev2 != 4 {
		t.Errorf("prev of r4 = %d", prev2)
	}
	_ = newP
}

func TestDoubleFreePanics(t *testing.T) {
	tab := NewTableCtx(34, 1)
	_, prevP, _ := tab.RenameCtx(0, 1)
	tab.Free(prevP)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	tab.Free(prevP)
}

func TestFreeInvalidPanics(t *testing.T) {
	tab := NewTableCtx(34, 1)
	defer func() {
		if recover() == nil {
			t.Error("freeing None did not panic")
		}
	}()
	tab.Free(None)
}

func TestUnmapKill(t *testing.T) {
	tab := NewTableCtx(34, 1)
	victim, ok := tab.UnmapCtx(0, 16)
	if !ok || victim != 16 {
		t.Fatalf("unmap = %d,%v", victim, ok)
	}
	if _, mapped := tab.MapCtx(0, 16); mapped {
		t.Error("register still mapped after kill")
	}
	// Reads of unmapped registers are ready dead values.
	if !tab.Ready(None) {
		t.Error("None must be ready")
	}
	// A kill victim is freed at commit, then reusable.
	tab.Free(victim)
	newP, prevP, ok := tab.RenameCtx(0, 16)
	if !ok || prevP != None {
		t.Fatalf("rename of unmapped = %d,%d,%v", newP, prevP, ok)
	}
	// Double unmap yields nothing.
	if _, ok := tab.UnmapCtx(0, 17); !ok {
		t.Fatal("first unmap failed")
	}
	if _, ok := tab.UnmapCtx(0, 17); ok {
		t.Error("second unmap of same register succeeded")
	}
}

func TestEarlyReclamationGrowsEffectiveFile(t *testing.T) {
	// The §4 scenario: with 33 physical registers only one rename can be
	// outstanding; killing a register and freeing it at commit provides a
	// second allocatable register without any redefinition committing.
	tab := NewTableCtx(33, 1)
	if _, _, ok := tab.RenameCtx(0, 1); !ok {
		t.Fatal("first rename failed")
	}
	if _, _, ok := tab.RenameCtx(0, 2); ok {
		t.Fatal("file should be exhausted")
	}
	victim, _ := tab.UnmapCtx(0, 16) // kill r16 (dead value)
	tab.Free(victim)                 // kill commits
	if _, _, ok := tab.RenameCtx(0, 2); !ok {
		t.Error("rename should succeed after DVI reclamation")
	}
}

func TestSnapshotRestoreMapAndRebuild(t *testing.T) {
	tab := NewTableCtx(40, 1)
	// Dispatch three writes, snapshot (branch), then wrong-path writes.
	var inFlightPrev []PhysReg
	for _, r := range []uint8{1, 2, 3} {
		_, prev, ok := tab.RenameCtx(0, r)
		if !ok {
			t.Fatal("rename failed")
		}
		inFlightPrev = append(inFlightPrev, prev)
	}
	snap := tab.MapSnapshotCtx(0)
	freeAtSnap := tab.FreeCount()

	for _, r := range []uint8{4, 5, 6, 7} {
		tab.RenameCtx(0, r) // wrong path
	}
	tab.UnmapCtx(0, 16) // wrong-path kill

	// Recovery: restore map; pin the in-flight instructions' prev regs
	// (their writers haven't committed).
	tab.RestoreMapCtx(0, snap)
	var used Bits
	for _, p := range inFlightPrev {
		if p != None {
			used.Set(p)
		}
	}
	tab.RebuildFree(&used)
	if tab.FreeCount() != freeAtSnap {
		t.Errorf("free after recovery = %d, want %d", tab.FreeCount(), freeAtSnap)
	}
	if p, ok := tab.MapCtx(0, 16); !ok || p != 16 {
		t.Error("wrong-path kill survived recovery")
	}
	for _, r := range []uint8{4, 5, 6, 7} {
		if p, _ := tab.MapCtx(0, r); p != PhysReg(r) {
			t.Errorf("wrong-path rename of r%d survived recovery", r)
		}
	}
}

func TestRebuildAfterCommitsBetweenSnapshotAndRecovery(t *testing.T) {
	// The case the reconstruction exists for: a register freed *after* the
	// snapshot (by a committing older instruction) must remain free after
	// recovery even though the snapshot predates the free.
	tab := NewTableCtx(34, 1)
	_, prev, _ := tab.RenameCtx(0, 1) // older instruction X: r1 -> new, prev pinned
	snap := tab.MapSnapshotCtx(0)
	free0 := tab.FreeCount()
	tab.RenameCtx(0, 2) // wrong path allocation
	tab.Free(prev)      // X commits after the snapshot: prev freed

	tab.RestoreMapCtx(0, snap)
	var used Bits // X has committed; nothing in flight
	tab.RebuildFree(&used)
	// After recovery the snapshot map holds 32 registers (including X's
	// dest); everything else — X's freed prev and the wrong-path
	// allocation — must be free.
	if want := 34 - 32; tab.FreeCount() != want {
		t.Errorf("free after recovery = %d, want %d (snapshot free was %d)",
			tab.FreeCount(), want, free0)
	}
	if tab.free.Has(prev) != true {
		t.Error("register freed after snapshot lost by recovery")
	}
}

func TestInvariantFreePlusMappedPlusPinned(t *testing.T) {
	// Property: under random rename/kill/commit traffic with a reference
	// model, free + mapped + pinned == nPhys and no register is both free
	// and mapped.
	r := rand.New(rand.NewSource(9))
	const nPhys = 48
	tab := NewTableCtx(nPhys, 1)
	pinned := map[PhysReg]bool{} // prevs and kill victims awaiting commit
	for step := 0; step < 20000; step++ {
		switch r.Intn(3) {
		case 0: // rename
			reg := uint8(r.Intn(NumArch))
			_, prev, ok := tab.RenameCtx(0, reg)
			if ok && prev != None {
				pinned[prev] = true
			}
		case 1: // kill
			reg := uint8(r.Intn(NumArch))
			if victim, ok := tab.UnmapCtx(0, reg); ok {
				pinned[victim] = true
			}
		case 2: // commit one pinned entry
			for p := range pinned {
				delete(pinned, p)
				tab.Free(p)
				break
			}
		}
		mapped := 0
		for reg := uint8(0); reg < NumArch; reg++ {
			if p, ok := tab.MapCtx(0, reg); ok {
				if tab.free.Has(p) {
					t.Fatalf("step %d: p%d both mapped and free", step, p)
				}
				mapped++
			}
		}
		if got := tab.FreeCount() + mapped + len(pinned); got != nPhys {
			t.Fatalf("step %d: free %d + mapped %d + pinned %d = %d != %d",
				step, tab.FreeCount(), mapped, len(pinned), got, nPhys)
		}
	}
}

func TestReadyLifecycle(t *testing.T) {
	tab := NewTableCtx(34, 1)
	p, _, _ := tab.RenameCtx(0, 1)
	if tab.Ready(p) {
		t.Error("ready before writeback")
	}
	tab.SetReady(p)
	if !tab.Ready(p) {
		t.Error("not ready after writeback")
	}
}

func TestBadSizePanics(t *testing.T) {
	for _, n := range []int{0, 32, MaxPhys + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTableCtx(%d, 1) did not panic", n)
				}
			}()
			NewTableCtx(n, 1)
		}()
	}
}

func TestBitsSetHasCount(t *testing.T) {
	var b Bits
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(511)
	if !b.Has(0) || !b.Has(63) || !b.Has(64) || !b.Has(511) || b.Has(1) {
		t.Error("membership wrong")
	}
	if b.Count() != 4 {
		t.Errorf("count = %d", b.Count())
	}
}

// TestWatchers covers the event-scheduler wakeup hooks: registration,
// drain-on-take, recovery purge, and the clear-on-reallocation rule that
// stops a recycled register from waking stale consumers.
func TestWatchers(t *testing.T) {
	tb := NewTableCtx(40, 1)
	p, _, ok := tb.RenameCtx(0, 3)
	if !ok {
		t.Fatal("rename failed")
	}
	tb.Watch(p, 7)
	tb.Watch(p, 9)
	got := tb.TakeWatchers(p)
	if len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("TakeWatchers = %v, want [7 9]", got)
	}
	if len(tb.TakeWatchers(p)) != 0 {
		t.Fatal("watchers not cleared by take")
	}

	tb.Watch(p, 1)
	tb.Watch(p, 2)
	tb.Watch(p, 3)
	tb.PurgeWatchers(func(tok uint32) bool { return tok != 2 })
	if got := tb.TakeWatchers(p); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("after purge = %v, want [1 3]", got)
	}

	// A register freed and reallocated must come back watcher-free.
	tb.Watch(p, 5)
	q, prev, ok := tb.RenameCtx(0, 3) // p becomes prev, still watched
	if !ok || prev != p {
		t.Fatalf("rename: q=%d prev=%d ok=%v", q, prev, ok)
	}
	tb.Free(p)
	var reallocated bool
	for i := 0; i < tb.NPhys(); i++ { // drain the free list until p returns
		r, _, ok := tb.RenameCtx(0, 4)
		if !ok {
			break
		}
		if r == p {
			reallocated = true
			break
		}
	}
	if !reallocated {
		t.Fatal("p never reallocated")
	}
	if len(tb.TakeWatchers(p)) != 0 {
		t.Fatal("reallocated register kept stale watchers")
	}

	// Reset clears every list.
	tb.Watch(p, 11)
	tb.Reset()
	if len(tb.TakeWatchers(p)) != 0 {
		t.Fatal("Reset kept watchers")
	}
}

// TestMultiContextTable covers the SMT split: per-context architectural
// maps over one shared physical file and free list.
func TestMultiContextTable(t *testing.T) {
	tb := NewTableCtx(96, 2)
	if tb.NCtx() != 2 || tb.NPhys() != 96 {
		t.Fatalf("NCtx=%d NPhys=%d", tb.NCtx(), tb.NPhys())
	}
	// Reset identity: context c's arch i maps to phys c*NumArch+i.
	for c := 0; c < 2; c++ {
		for r := uint8(0); r < NumArch; r++ {
			p, ok := tb.MapCtx(c, r)
			if !ok || p != PhysReg(c*NumArch+int(r)) {
				t.Fatalf("ctx %d r%d -> %d (ok=%v)", c, r, p, ok)
			}
		}
	}
	if tb.FreeCount() != 96-2*NumArch {
		t.Fatalf("free = %d, want %d", tb.FreeCount(), 96-2*NumArch)
	}

	// Renaming in one context leaves the other's map untouched.
	newP, prevP, ok := tb.RenameCtx(1, 5)
	if !ok || prevP != PhysReg(NumArch+5) {
		t.Fatalf("rename ctx1 r5: new=%d prev=%d ok=%v", newP, prevP, ok)
	}
	if p, _ := tb.MapCtx(0, 5); p != PhysReg(5) {
		t.Fatalf("ctx0 r5 disturbed: %d", p)
	}
	if p, _ := tb.MapCtx(1, 5); p != newP {
		t.Fatalf("ctx1 r5 = %d, want %d", p, newP)
	}

	// Context-scoped unmap (DVI kill).
	victim, ok := tb.UnmapCtx(0, 7)
	if !ok || victim != PhysReg(7) {
		t.Fatalf("unmap ctx0 r7: %d ok=%v", victim, ok)
	}
	if _, mapped := tb.MapCtx(0, 7); mapped {
		t.Fatal("ctx0 r7 still mapped after unmap")
	}
	if _, mapped := tb.MapCtx(1, 7); !mapped {
		t.Fatal("ctx1 r7 lost its mapping")
	}
}

// TestMultiContextSnapshotRestoreRebuild pins context-scoped recovery:
// restoring one context's snapshot and rebuilding the free list must
// preserve the other context's in-flight registers.
func TestMultiContextSnapshotRestoreRebuild(t *testing.T) {
	tb := NewTableCtx(96, 2)
	snap := tb.MapSnapshotCtx(0)

	// Both contexts rename past the snapshot.
	n0, _, _ := tb.RenameCtx(0, 3)
	n1, prev1, _ := tb.RenameCtx(1, 3)

	// Context 0 recovers to its snapshot; context 1's rename survives.
	tb.RestoreMapCtx(0, snap)
	var used Bits
	used.Set(n1)    // ctx 1's in-flight destination
	used.Set(prev1) // ... which pins its previous mapping until commit
	tb.RebuildFree(&used)

	if p, _ := tb.MapCtx(0, 3); p != PhysReg(3) {
		t.Fatalf("ctx0 r3 = %d after restore, want 3", p)
	}
	if p, _ := tb.MapCtx(1, 3); p != n1 {
		t.Fatalf("ctx1 r3 = %d after ctx0 recovery, want %d", p, n1)
	}
	if tb.free.Has(n1) {
		t.Fatal("ctx1's in-flight register freed by ctx0's recovery")
	}
	if !tb.free.Has(n0) {
		t.Fatal("ctx0's squashed register not reclaimed")
	}
	if want := 96 - 2*NumArch - 1; tb.FreeCount() != want {
		t.Fatalf("free = %d, want %d", tb.FreeCount(), want)
	}
}

// TestNewTableCtxBounds pins the per-context minimum file size.
func TestNewTableCtxBounds(t *testing.T) {
	for _, bad := range []struct{ nPhys, nCtx int }{
		{96, 0}, {64, 2}, {2 * NumArch, 2}, {MaxPhys + 1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTableCtx(%d,%d) did not panic", bad.nPhys, bad.nCtx)
				}
			}()
			NewTableCtx(bad.nPhys, bad.nCtx)
		}()
	}
	if tb := NewTableCtx(2*NumArch+1, 2); tb.FreeCount() != 1 {
		t.Fatalf("minimum 2-context table free = %d, want 1", tb.FreeCount())
	}
}
