package ckpt

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"runtime"
	"testing"
)

// aliasState is one of everything the restore path hands to a program as
// mutable memory.
type aliasState struct {
	raw    []byte
	grid   []float64
	rows   [][]float64
	counts []int
	name   string
	rec    struct{ Tags []string }
	block  *Block
}

func (st *aliasState) register(t *testing.T, s *Saver) {
	t.Helper()
	for name, ptr := range map[string]any{"raw": &st.raw, "grid": &st.grid, "rows": &st.rows, "counts": &st.counts, "name": &st.name, "rec": &st.rec} {
		if err := s.VDS.Push(name, ptr); err != nil {
			t.Fatal(err)
		}
	}
}

// restoreFrom runs a whole restore of blob into a fresh Saver.
func restoreFrom(t *testing.T, blob []byte) *aliasState {
	t.Helper()
	s := NewSaver()
	if err := s.StartRestore(blob); err != nil {
		t.Fatal(err)
	}
	st := &aliasState{}
	st.register(t, s)
	if n := s.VDS.PendingRestores(); n != 0 {
		t.Fatalf("%d values never restored", n)
	}
	st.block = s.Heap.Lookup(1)
	return st
}

// TestRestoreNeverAliasesTheBlob: a survivor restores from the same
// retained frozen view at every rollback — each time through a transient
// blob the view serializes, of which the restore path hands out views
// internally — so nothing the program can reach may be part of either.
// Restore, scribble over (and append to) every restored value and over the
// transient blob, restore again from the same view: the view's bytes and the
// second restore must be what they were. (A replacement restores from a blob
// assembled from the store; that blob, kept, must not change either.)
func TestRestoreNeverAliasesTheBlob(t *testing.T) {
	src := NewSaver()
	want := &aliasState{
		raw:    bytes.Repeat([]byte{0xAB}, 100_000), // paged
		grid:   make([]float64, 20_000),             // paged
		rows:   [][]float64{{1, 2, 3}, {4, 5}},
		counts: []int{7, 8, 9},
		name:   "ring",
	}
	want.rec.Tags = []string{"a", "b"}
	for i := range want.grid {
		want.grid[i] = float64(i) * 0.25
	}
	want.register(t, src)
	blk := src.Heap.Alloc(70_000)
	for i := range blk.Data {
		blk.Data[i] = byte(i)
	}
	view, err := src.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer view.Release()
	snapshot := func() []byte {
		t.Helper()
		blob, err := view.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	kept := snapshot()
	sum := sha256.Sum256(kept)

	check := func(when string, got *aliasState) {
		t.Helper()
		if !bytes.Equal(got.raw, want.raw) || !reflect.DeepEqual(got.grid, want.grid) || !reflect.DeepEqual(got.rows, want.rows) ||
			!reflect.DeepEqual(got.counts, want.counts) || got.name != want.name || !reflect.DeepEqual(got.rec, want.rec) ||
			got.block == nil || !bytes.Equal(got.block.Data, blk.Data) {
			t.Fatalf("%s restore differs from the frozen state", when)
		}
		if sha256.Sum256(kept) != sum {
			t.Fatalf("%s restore changed the kept blob", when)
		}
		if sha256.Sum256(snapshot()) != sum {
			t.Fatalf("%s restore changed the frozen view", when)
		}
	}
	scribble := func(st *aliasState) {
		for i := range st.raw {
			st.raw[i] = 0
		}
		st.raw = append(st.raw, bytes.Repeat([]byte{0xFF}, 4096)...)
		for i := range st.grid {
			st.grid[i] = -1
		}
		for _, row := range st.rows {
			for i := range row {
				row[i] = -1
			}
		}
		for i := range st.block.Data {
			st.block.Data[i] = 0xFF
		}
		st.block.Data = append(st.block.Data, 1, 2, 3)
	}

	first := restoreFrom(t, kept)
	check("first", first)
	scribble(first)
	check("second", restoreFrom(t, kept))

	// The survivor's path: one view, a transient blob per rollback.
	transient := snapshot()
	third := restoreFrom(t, transient)
	check("first rollback from the view", third)
	scribble(third)
	for i := range transient {
		transient[i] = 0x5A
	}
	check("second rollback from the view", restoreFrom(t, snapshot()))
}

// TestDecodeCountsAreNotTrusted: an element count is stored data; one that
// the rest of the blob cannot hold is an error before anything is
// allocated from it.
func TestDecodeCountsAreNotTrusted(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint 2^63-1
	for name, tc := range map[string]struct {
		tag byte
		ptr any
	}{
		"float64s": {tagFloat64Slice, new([]float64)},
		"ints":     {tagIntSlice, new([]int)},
		"int64s":   {tagInt64Slice, new([]int64)},
		"matrix":   {tagFloat64Matrix, new([][]float64)},
		"bytes":    {tagBytes, new([]byte)},
		"string":   {tagString, new(string)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Decode(append([]byte{tc.tag}, huge...), tc.ptr)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a count of 2^63-1 in a 10-byte blob decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: allocated %d bytes on the way to the error", name, grew)
		}
	}
	s := NewSaver()
	if err := s.StartRestore(huge); err == nil {
		t.Fatal("a position stack of 2^63-1 labels in a 9-byte snapshot restored")
	}
	if err := s.VDS.StartRestore(huge); err == nil {
		t.Fatal("a VDS section of 2^63-1 entries in 9 bytes restored")
	}
	if err := s.Heap.Restore(append([]byte{1}, huge...)); err == nil {
		t.Fatal("a heap of 2^63-1 blocks in 10 bytes restored")
	}
}
