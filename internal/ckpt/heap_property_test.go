package ckpt

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestHeapRealloc covers growth in place, growth with reallocation, and
// shrinking, all preserving the handle and prefix contents.
func TestHeapRealloc(t *testing.T) {
	h := NewHeap()
	b := h.Alloc(4)
	copy(b.Data, "abcd")

	b2 := h.Realloc(b.ID, 8) // grow
	if b2.ID != b.ID || string(b2.Data[:4]) != "abcd" {
		t.Fatalf("grow lost identity or prefix: %q", b2.Data)
	}
	for _, c := range b2.Data[4:] {
		if c != 0 {
			t.Fatal("grown region not zeroed")
		}
	}
	if h.LiveBytes() != 8 {
		t.Fatalf("liveBytes = %d", h.LiveBytes())
	}

	b3 := h.Realloc(b.ID, 2) // shrink
	if string(b3.Data) != "ab" || h.LiveBytes() != 2 {
		t.Fatalf("shrink: %q, %d bytes", b3.Data, h.LiveBytes())
	}

	// Shrink then regrow within capacity must re-zero the re-exposed
	// region, not leak stale bytes.
	b4 := h.Realloc(b.ID, 4)
	if string(b4.Data[:2]) != "ab" || b4.Data[2] != 0 || b4.Data[3] != 0 {
		t.Fatalf("regrow leaked stale bytes: %q", b4.Data)
	}
}

func TestHeapReallocUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHeap().Realloc(42, 8)
}

// TestHeapRandomOpsSnapshotRestore drives random alloc/free/realloc/write
// sequences and checks that snapshot+restore reproduces exact contents,
// handles, and byte accounting.
func TestHeapRandomOpsSnapshotRestore(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSaver()
		h := s.Heap
		var live []int
		for _, op := range ops {
			kind := op % 4
			arg := int(op/4) % 64
			switch {
			case kind == 0 || len(live) == 0: // alloc
				b := h.Alloc(arg + 1)
				for i := range b.Data {
					b.Data[i] = byte(op + uint16(i))
				}
				live = append(live, b.ID)
			case kind == 1: // free
				idx := arg % len(live)
				h.Free(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			case kind == 2: // realloc
				idx := arg % len(live)
				h.Realloc(live[idx], arg*2+1)
			default: // write
				idx := arg % len(live)
				b := h.Lookup(live[idx])
				if len(b.Data) > 0 {
					b.Data[arg%len(b.Data)] = byte(op)
				}
			}
		}

		snap := s.Snapshot()
		r := NewSaver()
		if err := r.StartRestore(snap); err != nil {
			return false
		}
		h2 := r.Heap
		if h2.Live() != h.Live() || h2.LiveBytes() != h.LiveBytes() {
			return false
		}
		for _, id := range live {
			a, b := h.Lookup(id), h2.Lookup(id)
			if b == nil || !bytes.Equal(a.Data, b.Data) {
				return false
			}
		}
		// Handle allocation continues without collisions after restore.
		nb := h2.Alloc(1)
		if h2.Lookup(nb.ID) != nb {
			return false
		}
		for _, id := range live {
			if id == nb.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
