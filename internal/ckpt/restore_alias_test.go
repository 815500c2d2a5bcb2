package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
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
	stamps []int64
	block  *Block
}

func (st *aliasState) register(t *testing.T, s *Saver) {
	t.Helper()
	for name, ptr := range map[string]any{"raw": &st.raw, "grid": &st.grid, "rows": &st.rows, "counts": &st.counts, "name": &st.name, "stamps": &st.stamps} {
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
	if n := len(s.VDS.restore); n != 0 {
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
		stamps: []int64{1 << 40, -2},
	}
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
			!reflect.DeepEqual(got.counts, want.counts) || got.name != want.name || !reflect.DeepEqual(got.stamps, want.stamps) ||
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
		for i := range st.stamps {
			st.stamps[i] = -1
		}
		for i := range st.block.Data {
			st.block.Data[i] = 0xFF
		}
		st.block.Data = append(st.block.Data, 1, 2, 3)
	}

	for path, arm := range map[string]func(*Saver) error{
		"the kept blob": func(s *Saver) error { return s.StartRestore(kept) },
		"the view":      func(s *Saver) error { s.StartRestoreView(view); return nil },
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
		t.Fatal("a head of 2^63-1 bytes in a 9-byte snapshot restored")
	}
	if err := s.StartRestore(append([]byte{9}, huge...)); err == nil {
		t.Fatal("a position stack of 2^63-1 labels in a 10-byte snapshot restored")
	}
	if err := s.StartRestore(stateBlob(huge, nil)); err == nil {
		t.Fatal("a VDS section of 2^63-1 entries in 9 bytes restored")
	}
	if err := s.StartRestore(stateBlob([]byte{0}, append([]byte{1}, huge...))); err == nil {
		t.Fatal("a heap of 2^63-1 blocks in 10 bytes restored")
	}
}

// stateBlob frames a VDS section and a heap section after an empty position
// trace, and those in the head, byte by byte as the state layout does.
func stateBlob(vds, heap []byte) []byte {
	if heap == nil {
		heap = []byte{1, 0} // next handle 1, no blocks
	}
	head := []byte{0}
	for _, sec := range [][]byte{vds, heap} {
		head = append(binary.AppendUvarint(head, uint64(len(sec))), sec...)
	}
	return append(binary.AppendUvarint(nil, uint64(len(head))), head...)
}

// TestRestoreRefusesCollidingHandlesAndNames: the next handle a restored
// heap hands out is stored data, and so is every block's. A blob whose
// block handles are not strictly increasing below it would have Alloc hand
// out a live block's handle and silently replace that block; a blob that
// names one variable twice would restore whichever came last. Both are
// restore errors.
func TestRestoreRefusesCollidingHandlesAndNames(t *testing.T) {
	block := func(id byte) []byte { return []byte{id, 4, 'a', 'b', 'c', 'd'} }
	heap := func(next byte, ids ...byte) []byte {
		sec := []byte{next, byte(len(ids))}
		for _, id := range ids {
			sec = append(sec, block(id)...)
		}
		return sec
	}
	intVar := func(name string) []byte {
		raw := Encode(ptr(7))
		e := append([]byte{byte(len(name))}, name...)
		return append(append(e, byte(kindSaved), 0, byte(len(raw))), raw...)
	}
	vars := func(names ...string) []byte {
		sec := []byte{byte(len(names))}
		for _, n := range names {
			sec = append(sec, intVar(n)...)
		}
		return sec
	}
	for name, tc := range map[string]struct {
		vds, heap []byte
		want      string
	}{
		"a block at the next handle":   {[]byte{0}, heap(1, 1), "handle 1 after 0, next 1"},
		"a block past the next handle": {[]byte{0}, heap(3, 1, 5), "handle 5 after 1, next 3"},
		"a handle twice":               {[]byte{0}, heap(4, 2, 2), "handle 2 after 2"},
		"handles out of order":         {[]byte{0}, heap(4, 3, 2), "handle 2 after 3"},
		"handle 0":                     {[]byte{0}, heap(4, 0), "handle 0 after 0"},
		"a name twice":                 {vars("x", "y", "x"), nil, `"x" registered twice`},
	} {
		s := NewSaver()
		err := s.StartRestore(stateBlob(tc.vds, tc.heap))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a restore error containing %q", name, err, tc.want)
		}
	}
	s := NewSaver()
	if err := s.StartRestore(stateBlob(vars("x", "y"), heap(4, 1, 3))); err != nil {
		t.Fatalf("two names, handles 1 and 3 below 4: %v", err)
	}
	if b := s.Heap.Alloc(4); b.ID != 4 || s.Heap.Live() != 3 || s.Heap.LiveBytes() != 12 {
		t.Fatalf("the first Alloc after the restore: handle %d, %d blocks and %d bytes live", b.ID, s.Heap.Live(), s.Heap.LiveBytes())
	}
}
