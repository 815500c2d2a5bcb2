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

// restore runs a whole restore into a fresh Saver, armed by arm: from a
// blob, or straight from a frozen view; block is the heap block's handle.
func restore(t *testing.T, arm func(*Saver) error, block int) *aliasState {
	t.Helper()
	s := NewSaver()
	if err := arm(s); err != nil {
		t.Fatal(err)
	}
	st := &aliasState{}
	st.register(t, s)
	if n := s.VDS.PendingRestores(); n != 0 {
		t.Fatalf("%d values never restored", n)
	}
	st.block = s.Heap.Lookup(block)
	return st
}

// TestRestoreNeverAliasesTheBlob: a survivor restores straight from the
// same retained frozen view at every rollback, and a replacement from a blob
// the restore path hands out views of internally, so nothing the program can
// reach may be part of either. Restore, scribble over (and append to) every
// restored value, restore again from the same view or blob: the view's
// bytes, the kept blob and the second restore must be what they were. The
// first page of the paged []byte sits in a pooled slab far larger than the
// value — what a restore that reused a page's spare room would alias.
func TestRestoreNeverAliasesTheBlob(t *testing.T) {
	src := NewSaver()
	big := src.Heap.Alloc(4 << 20)
	warm, err := src.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	warm.Release() // the pool's one byte slab is 4 MB now
	src.Heap.Free(big.ID)
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
		st.grid = append(st.grid, -1)
		for _, row := range st.rows {
			for i := range row {
				row[i] = -1
			}
		}
		for i := range st.counts {
			st.counts[i] = -1
		}
		for i := range st.block.Data {
			st.block.Data[i] = 0xFF
		}
		st.block.Data = append(st.block.Data, 1, 2, 3)
	}

	for path, arm := range map[string]func(*Saver) error{
		"the kept blob": func(s *Saver) error { return s.StartRestore(kept) },
		"the view":      func(s *Saver) error { return s.StartRestoreView(view) },
	} {
		first := restore(t, arm, blk.ID)
		check("first rollback from "+path+": the", first)
		scribble(first)
		check("second rollback from "+path+": the", restore(t, arm, blk.ID))
	}
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
