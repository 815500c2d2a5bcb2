package ckpt

import (
	"bytes"
	"strings"
	"testing"
)

// Page-granular dirty tracking: a large registered slice freezes as fixed
// pageBytes pages, each with its own write-clock stamp, so a TouchRange
// copies only the covered pages and re-references the rest from the
// previous epoch's frozen slabs.

const pagedElems = 4 * 8192 // 4 full pages of float64 (256 KB)

func pagedSaverPair(t *testing.T) (inc, full *Saver, grid []float64) {
	t.Helper()
	inc, full = NewSaver(), NewSaver()
	inc.Incremental = true
	grid = make([]float64, pagedElems)
	for i := range grid {
		grid[i] = float64(i)
	}
	var it int
	for _, s := range []*Saver{inc, full} {
		if err := s.VDS.Push("it", &it); err != nil {
			t.Fatal(err)
		}
		if err := s.VDS.Push("grid", &grid); err != nil {
			t.Fatal(err)
		}
	}
	return inc, full, grid
}

func freezeBytes(t *testing.T, s *Saver) (*Frozen, []byte) {
	t.Helper()
	f, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var rec cutRecorder
	if err := f.WriteTo(&rec); err != nil {
		t.Fatal(err)
	}
	return f, rec.Bytes()
}

func TestPagedFreezeSharesCleanPages(t *testing.T) {
	inc, full, grid := pagedSaverPair(t)

	f1, b1 := freezeBytes(t, inc)
	g1, w1 := freezeBytes(t, full)
	if !bytes.Equal(b1, w1) {
		t.Fatal("first (cold) incremental freeze differs from full freeze")
	}
	copied1, _, _ := f1.CopyStats()
	f1.Release()
	g1.Release()

	// Dirty one interior page only.
	for i := 8192; i < 8192+100; i++ {
		grid[i] *= 2
	}
	if err := inc.VDS.TouchRange("grid", 8192, 100); err != nil {
		t.Fatal(err)
	}
	if err := full.VDS.Touch("grid"); err != nil { // full freeze ignores gens anyway
		t.Fatal(err)
	}

	f2, b2 := freezeBytes(t, inc)
	g2, w2 := freezeBytes(t, full)
	defer f2.Release()
	defer g2.Release()
	if !bytes.Equal(b2, w2) {
		t.Fatal("paged incremental freeze stream differs from full freeze")
	}
	copied2, dirty2, regions2 := f2.CopyStats()
	if copied2*2 >= copied1 {
		t.Fatalf("one dirty page of four copied %d bytes vs cold freeze's %d; pages did not share", copied2, copied1)
	}
	if dirty2 >= regions2 {
		t.Fatalf("all %d regions dirty; page sharing never happened", regions2)
	}
}

// TestPagedDroppedTouchGoesStale is the suite's own mutation test: writing
// into a clean page WITHOUT TouchRange must reproduce the stale previous
// value in the next incremental freeze — the exact defect the 1000-seed
// differential suite (and Debug's freeze verifier) exists to catch. If
// page-gen bookkeeping ever started copying everything regardless of
// stamps, this test would fail and reveal the suite had lost its teeth.
func TestPagedDroppedTouchGoesStale(t *testing.T) {
	inc, full, grid := pagedSaverPair(t)
	f1, _ := freezeBytes(t, inc)
	f1.Release()

	grid[2*8192+7] = -1 // page 2 write, deliberately not recorded

	f2, got := freezeBytes(t, inc)
	defer f2.Release()
	g2, want := freezeBytes(t, full)
	g2.Release()
	if bytes.Equal(got, want) {
		t.Fatal("incremental freeze saw an untouched write; page-gen sharing is not actually happening")
	}

	// The cross-check mode must turn exactly this silent staleness into a
	// loud error that names the variable and the missing call.
	err := inc.VerifyFrozen(f2)
	if err == nil {
		t.Fatal("VerifyFrozen accepted a stale frozen page")
	}
	if !strings.Contains(err.Error(), `"grid"`) || !strings.Contains(err.Error(), "Touch") {
		t.Fatalf("cross-check error should name the variable and the Touch contract, got: %v", err)
	}
}

func TestVerifyFrozenCleanPasses(t *testing.T) {
	inc, _, grid := pagedSaverPair(t)
	f1, _ := freezeBytes(t, inc)
	f1.Release()

	for i := 100; i < 300; i++ {
		grid[i] += 1
	}
	if err := inc.VDS.TouchRange("grid", 100, 200); err != nil {
		t.Fatal(err)
	}
	f2, _ := freezeBytes(t, inc)
	defer f2.Release()
	if err := inc.VerifyFrozen(f2); err != nil {
		t.Fatalf("cross-check rejected a correctly touched freeze: %v", err)
	}
}

func TestVerifyFrozenHeapNamesBlock(t *testing.T) {
	s := NewSaver()
	s.Incremental = true
	b := s.Heap.Alloc(4096)
	for i := range b.Data {
		b.Data[i] = byte(i)
	}
	f1, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	f1.Release()

	b.Data[17] ^= 0xFF // no Heap.Touch

	f2, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Release()
	verr := s.VerifyFrozen(f2)
	if verr == nil {
		t.Fatal("VerifyFrozen accepted a stale heap block")
	}
	if !strings.Contains(verr.Error(), "Heap.Touch") {
		t.Fatalf("cross-check error should point at Heap.Touch, got: %v", verr)
	}
}

// TestPagedResizeRebuildsPageRecord pins the resize rule: growing or
// shrinking a paged value invalidates the page record, and a full Touch
// after the resize is sufficient for a correct (fully recopied) freeze.
func TestPagedResizeRebuildsPageRecord(t *testing.T) {
	inc, full, grid := pagedSaverPair(t)
	if err := inc.VDS.TouchRange("grid", 0, 10); err != nil { // build page record
		t.Fatal(err)
	}
	f1, _ := freezeBytes(t, inc)
	f1.Release()

	grid = append(grid, 1, 2, 3) // threshold-side resize; stale backing possible
	for _, s := range []*Saver{inc, full} {
		if err := s.VDS.Push("grid", &grid); err != nil { // rebind, as re-entering code does
			t.Fatal(err)
		}
	}
	f2, got := freezeBytes(t, inc)
	defer f2.Release()
	g2, want := freezeBytes(t, full)
	g2.Release()
	if !bytes.Equal(got, want) {
		t.Fatal("rebound paged value froze stale after resize")
	}
	if err := inc.VerifyFrozen(f2); err != nil {
		t.Fatalf("cross-check after paged rebind: %v", err)
	}
}
