package ckpt

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/storage"
	"ccift/internal/wire"
)

// buildRichSaver registers one value of every representative shape — saved
// and computed — plus heap blocks.
func buildRichSaver(t *testing.T) *Saver {
	t.Helper()
	s := NewSaver()
	s.PS.Push(3)
	s.PS.Push(7)

	it := 42
	grid := make([]float64, 4096)
	for i := range grid {
		grid[i] = float64(i) * 0.5
	}
	raw := []byte("raw-bytes-value")
	name := "a-string"
	flag := true
	ids := []int{1, 2, 3}
	counts := []int64{9, 8}
	mat := [][]float64{{1, 2}, {3, 4, 5}}
	stamp := uint64(1) << 40
	ro := make([]float64, 600)

	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.VDS.Push("it", &it))
	must(s.VDS.Push("grid", &grid))
	must(s.VDS.Push("raw", &raw))
	must(s.VDS.Push("name", &name))
	must(s.VDS.Push("flag", &flag))
	must(s.VDS.Push("ids", &ids))
	must(s.VDS.Push("counts", &counts))
	must(s.VDS.Push("mat", &mat))
	must(s.VDS.Push("stamp", &stamp))
	must(s.VDS.PushComputed("ro", &ro, func() error { return nil }))

	b := s.Heap.Alloc(5000)
	for i := range b.Data {
		b.Data[i] = byte(i)
	}
	s.Heap.Alloc(16)
	return s
}

// TestFreezeSnapshotMatchesSaver pins the contract that makes the async
// pipeline safe: the frozen view serializes to exactly the bytes
// Saver.Snapshot would have produced at freeze time, and Frozen.StateBytes
// predicts the length without serializing.
func TestFreezeSnapshotMatchesSaver(t *testing.T) {
	s := buildRichSaver(t)
	want := s.Snapshot()
	f, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frozen snapshot differs from direct snapshot (%d vs %d bytes)", len(got), len(want))
	}
	if f.StateBytes() != len(want) {
		t.Fatalf("Frozen.StateBytes = %d, snapshot is %d bytes", f.StateBytes(), len(want))
	}
}

// TestFreezeIsolation: mutations after Freeze must not leak into the frozen
// view — that is the property that lets the rank compute while the flusher
// serializes.
func TestFreezeIsolation(t *testing.T) {
	s := NewSaver()
	grid := make([]float64, 1000)
	var it int
	if err := s.VDS.Push("it", &it); err != nil {
		t.Fatal(err)
	}
	if err := s.VDS.Push("grid", &grid); err != nil {
		t.Fatal(err)
	}
	b := s.Heap.Alloc(100)

	f, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate everything the application could touch.
	it = 99
	for i := range grid {
		grid[i] = -1
	}
	for i := range b.Data {
		b.Data[i] = 0xFF
	}
	s.Heap.Alloc(8)
	s.PS.Push(1)

	got, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mutations after Freeze leaked into the frozen view")
	}
	// And a restore from the frozen bytes sees the pre-mutation values.
	r := NewSaver()
	if err := r.StartRestore(want); err != nil {
		t.Fatal(err)
	}
	var it2 int
	grid2 := []float64{}
	if err := r.VDS.Push("it", &it2); err != nil {
		t.Fatal(err)
	}
	if err := r.VDS.Push("grid", &grid2); err != nil {
		t.Fatal(err)
	}
	if it2 != 0 || grid2[0] != 0 || len(grid2) != 1000 {
		t.Fatalf("restore from frozen blob: it=%d grid0=%v len=%d", it2, grid2[0], len(grid2))
	}
	if r.Heap.Lookup(b.ID) == nil || r.Heap.Lookup(b.ID).Data[0] != 0 {
		t.Fatal("restored heap block should hold pre-mutation bytes")
	}
}

// cutRecorder counts Cut boundaries to verify large values are isolated.
type cutRecorder struct {
	bytes.Buffer
	cuts int
}

func (c *cutRecorder) Cut() error { c.cuts++; return nil }

// TestIncrementalFreezeSharesCleanRegions pins the dirty-region contract:
// an untouched slab region is re-referenced (zero copy), a touched one is
// re-copied, and the serialized bytes always equal a full snapshot's.
func TestIncrementalFreezeSharesCleanRegions(t *testing.T) {
	s := NewSaver()
	s.Incremental = true
	var it int
	grid := make([]float64, 2000)
	other := make([]float64, 3000)
	for i := range grid {
		grid[i] = float64(i)
	}
	if err := s.VDS.Push("it", &it); err != nil {
		t.Fatal(err)
	}
	if err := s.VDS.Push("grid", &grid); err != nil {
		t.Fatal(err)
	}
	if err := s.VDS.Push("other", &other); err != nil {
		t.Fatal(err)
	}
	blk := s.Heap.Alloc(4096)
	for i := range blk.Data {
		blk.Data[i] = byte(i)
	}

	checkpoint := func(f *Frozen) []byte {
		t.Helper()
		want := s.Snapshot()
		got, err := f.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("incremental frozen bytes differ from live snapshot (%d vs %d bytes)", len(got), len(want))
		}
		return got
	}

	// Epoch 1: everything dirty.
	f1, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(f1)
	copied, dirty, regions := f1.CopyStats()
	if dirty != regions || regions != 4 {
		t.Fatalf("first freeze: dirty=%d regions=%d, want all 4 dirty", dirty, regions)
	}
	if copied < int64(8*(len(grid)+len(other))+len(blk.Data)) {
		t.Fatalf("first freeze copied %d bytes, want at least the slab payloads", copied)
	}
	f1.Release() // flush done; slabs now shared with the retention map only

	// Epoch 2: mutate grid (+Touch), the counter (scalar, no Touch needed),
	// and the heap block (+Touch); leave other clean.
	it = 7
	grid[3] = -1
	if err := s.VDS.Touch("grid"); err != nil {
		t.Fatal(err)
	}
	blk.Data[9] = 0xEE
	s.Heap.Touch(blk.ID)

	f2, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(f2)
	copied, dirty, regions = f2.CopyStats()
	// Dirty: it (scalar), grid, heap block. Clean: other.
	if dirty != 3 || regions != 4 {
		t.Fatalf("second freeze: dirty=%d regions=%d, want 3/4", dirty, regions)
	}
	if max := int64(8*len(grid) + len(blk.Data) + 64); copied > max {
		t.Fatalf("second freeze copied %d bytes, want <= %d (clean region re-referenced)", copied, max)
	}
	f2.Release()

	// Epoch 3: nothing touched — only the scalar is recopied, and the
	// frozen view still matches the live snapshot byte for byte.
	f3, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(f3)
	copied, dirty, _ = f3.CopyStats()
	if dirty != 1 || copied > 64 {
		t.Fatalf("clean freeze: dirty=%d copied=%d, want 1 scalar region only", dirty, copied)
	}
	f3.Release()
}

// TestIncrementalFreezeTouchUnknownFails pins that a typo'd Touch surfaces
// loudly instead of as silently stale recovered state.
func TestIncrementalFreezeTouchUnknownFails(t *testing.T) {
	s := NewSaver()
	if err := s.VDS.Touch("nope"); err == nil {
		t.Fatal("VDS.Touch on an unregistered name succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Heap.Touch on an unknown handle did not panic")
		}
	}()
	s.Heap.Touch(42)
}

// TestIncrementalFreezeSlabRefcount pins the lifetime rule: releasing an
// older epoch must not hand a shared slab back to the pool while a newer
// epoch still references it, in either release order.
func TestIncrementalFreezeSlabRefcount(t *testing.T) {
	for _, releaseOldFirst := range []bool{true, false} {
		s := NewSaver()
		s.Incremental = true
		grid := make([]float64, 1500)
		for i := range grid {
			grid[i] = float64(i) * 1.25
		}
		if err := s.VDS.Push("grid", &grid); err != nil {
			t.Fatal(err)
		}
		f1, err := s.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		want, err := f1.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !releaseOldFirst {
			// Keep f1 alive across the next freeze (the flusher may still
			// be writing it when the refcounts are what protects it).
			defer f1.Release()
		} else {
			f1.Release()
		}
		f2, err := s.Freeze() // clean: shares f1's slab
		if err != nil {
			t.Fatal(err)
		}
		// Churn the pool: a third saver-side allocation must not be handed
		// the shared slab. Dirty a dummy variable large enough to want a
		// pooled buffer of the same size class.
		decoy := make([]float64, 1500)
		if err := s.VDS.Push("decoy", &decoy); err != nil {
			t.Fatal(err)
		}
		f3, err := s.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		got, err := f2.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("releaseOldFirst=%v: shared slab was clobbered while epoch 2 still referenced it", releaseOldFirst)
		}
		f2.Release()
		f3.Release()
	}
}

func TestFrozenWriteToCutsAroundLargeValues(t *testing.T) {
	s := NewSaver()
	big := make([]float64, cutoverBytes) // 8*cutover bytes, well over the threshold
	small := 1
	if err := s.VDS.Push("small", &small); err != nil {
		t.Fatal(err)
	}
	if err := s.VDS.Push("big", &big); err != nil {
		t.Fatal(err)
	}
	f, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var rec cutRecorder
	if err := f.WriteTo(&rec); err != nil {
		t.Fatal(err)
	}
	// PS cut + VDS section cut + two cuts isolating the big entry >= 4.
	if rec.cuts < 4 {
		t.Fatalf("WriteTo produced %d cuts, want >= 4", rec.cuts)
	}
	want, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Bytes(), want) {
		t.Fatal("WriteTo stream differs from Snapshot")
	}
}

// streamRecord is a sink that keeps a stream's bytes and where it cut.
type streamRecord struct {
	bytes.Buffer
	cuts []int
}

func (r *streamRecord) Cut() error { r.cuts = append(r.cuts, r.Len()); return nil }

// lendRecord is a streamRecord that takes lent views as a chunked writer
// does, and counts the bytes it was lent.
type lendRecord struct {
	streamRecord
	lent int
}

func (r *lendRecord) Lend(p []byte) error {
	r.lent += len(p)
	r.Write(p)
	return nil
}

// TestLentStreamIsByteIdentical: a frozen view streamed into a sink that
// takes lent views produces the bytes and the cuts it produces in a sink
// that takes every byte through Write — Snapshot's bytes — and the lent
// bytes are its pages and slabs: every paged or split payload on a
// little-endian host, the byte-typed ones on a big-endian one, whose floats
// go through the stream buffer. The copy path runs here on every host.
func TestLentStreamIsByteIdentical(t *testing.T) {
	s := buildRichSaver(t)
	grid := make([]float64, 3*pageSplitBytes/8+600) // four pages, the last one short
	for i := range grid {
		grid[i] = float64(i) / 7
	}
	raw := bytes.Repeat([]byte("paged bytes "), pageSplitBytes/6)
	slab := make([]float64, 2*cutoverBytes/8) // split, not paged: one whole-value slab
	for _, e := range []struct {
		name string
		v    any
	}{{"big-grid", &grid}, {"big-raw", &raw}, {"slab", &slab}} {
		if err := s.VDS.Push(e.name, e.v); err != nil {
			t.Fatal(err)
		}
	}
	f, err := s.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	var copied streamRecord
	var lent lendRecord
	if err := f.WriteTo(&copied); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteTo(&lent); err != nil {
		t.Fatal(err)
	}
	want, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(copied.Bytes(), want) || !bytes.Equal(lent.Bytes(), want) {
		t.Fatal("the copied or the lent stream differs from Snapshot")
	}
	if !slices.Equal(copied.cuts, lent.cuts) {
		t.Fatalf("cuts differ: copied %v, lent %v", copied.cuts, lent.cuts)
	}
	payloads := len(raw) + 5000 // the paged bytes and the 5000-byte heap block
	if _, ok := mpi.View(grid); ok {
		payloads += 8 * (len(grid) + len(slab) + 4096) // and the floats: both grids and the split 4096-float one
	}
	if lent.lent != payloads {
		t.Fatalf("%d bytes lent, want the %d of the pages and slabs", lent.lent, payloads)
	}
}

// discard is a sink that drops the stream: what is left is WriteTo's own
// cost.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Cut() error                  { return nil }

// smallState registers n small variables of every scalar kind and a short
// vector, and allocates n heap blocks of 64 bytes.
func smallState(tb testing.TB, n int) *Saver {
	tb.Helper()
	s := NewSaver()
	for i := 0; i < n; i++ {
		var v any
		switch i % 5 {
		case 0:
			v = ptr(i)
		case 1:
			v = ptr(float64(i) / 3)
		case 2:
			v = ptr(fmt.Sprint("a string longer than a conversion buffer: ", i))
		case 3:
			v = ptr(i%2 == 0)
		default:
			v = &[]float64{1, 2, float64(i)}
		}
		if err := s.VDS.Push(fmt.Sprint("v", i), v); err != nil {
			tb.Fatal(err)
		}
		s.Heap.Alloc(64).Data[0] = byte(i)
	}
	return s
}

// TestWriteToAllocationsDoNotGrowWithEntries: streaming a frozen view
// allocates what the stream needs once — its codec and the frames it sizes
// — and nothing per variable or heap block.
func TestWriteToAllocationsDoNotGrowWithEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the allocation gate runs without it")
	}
	allocs := func(n int) float64 {
		f, err := smallState(t, n).Freeze()
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		return testing.AllocsPerRun(20, func() {
			if err := f.WriteTo(discard{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(500); many > few {
		t.Errorf("WriteTo allocates %v times for 10 variables and 10 heap blocks, %v for 500 and 500", few, many)
	}
}

func BenchmarkFrozenWriteTo(b *testing.B) {
	grid := NewSaver()
	xs := make([]float64, 4<<20/8)
	for i := range xs {
		xs[i] = float64(i)
	}
	if err := grid.VDS.Push("grid", &xs); err != nil {
		b.Fatal(err)
	}
	small := smallState(b, 450)
	store := storage.NewMemory()
	for id := 1; id <= 400; id++ {
		small.Heap.Free(id) // 50 heap blocks
	}
	// The chunked row is a flush: every chunk hashed and probed, the first
	// iteration's stored (a copy the store makes), the later ones' found.
	chunked := func() wire.Sink {
		return storage.NewChunkedWriter(context.Background(), store, "state", 0)
	}
	for _, c := range []struct {
		name string
		s    *Saver
		sink func() wire.Sink
	}{
		{"grid-4MB", grid, func() wire.Sink { return discard{} }},
		{"small-450+50", small, func() wire.Sink { return discard{} }},
		{"grid-4MB-chunked", grid, chunked},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, err := c.s.Freeze()
			if err != nil {
				b.Fatal(err)
			}
			defer f.Release()
			b.SetBytes(int64(f.StateBytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := c.sink()
				if err := f.WriteTo(w); err != nil {
					b.Fatal(err)
				}
				if cw, ok := w.(*storage.ChunkedWriter); ok {
					if _, _, err := cw.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
