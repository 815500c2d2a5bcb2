package ckpt

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestCodecRoundTripScalars(t *testing.T) {
	i := 42
	var i2 int
	roundTrip(t, &i, &i2)
	if i2 != 42 {
		t.Fatalf("int: got %d", i2)
	}

	f := math.Pi
	var f2 float64
	roundTrip(t, &f, &f2)
	if f2 != math.Pi {
		t.Fatalf("float64: got %v", f2)
	}

	b := true
	var b2 bool
	roundTrip(t, &b, &b2)
	if !b2 {
		t.Fatalf("bool: got %v", b2)
	}

	s := "hello, checkpoint"
	var s2 string
	roundTrip(t, &s, &s2)
	if s2 != s {
		t.Fatalf("string: got %q", s2)
	}

	u := uint64(1) << 63
	var u2 uint64
	roundTrip(t, &u, &u2)
	if u2 != u {
		t.Fatalf("uint64: got %d", u2)
	}

	n := int64(-7)
	var n2 int64
	roundTrip(t, &n, &n2)
	if n2 != n {
		t.Fatalf("int64: got %d", n2)
	}
}

func roundTrip(t *testing.T, src, dst any) {
	t.Helper()
	raw, err := Encode(src)
	if err != nil {
		t.Fatalf("encode %T: %v", src, err)
	}
	if err := Decode(raw, dst); err != nil {
		t.Fatalf("decode %T: %v", dst, err)
	}
}

func TestCodecRoundTripSlices(t *testing.T) {
	xs := []float64{1, -2.5, math.Inf(1), math.SmallestNonzeroFloat64}
	var xs2 []float64
	roundTrip(t, &xs, &xs2)
	if !reflect.DeepEqual(xs, xs2) {
		t.Fatalf("float64 slice: got %v", xs2)
	}

	is := []int{0, -1, 1 << 40}
	var is2 []int
	roundTrip(t, &is, &is2)
	if !reflect.DeepEqual(is, is2) {
		t.Fatalf("int slice: got %v", is2)
	}

	m := [][]float64{{1, 2}, {}, {3}}
	var m2 [][]float64
	roundTrip(t, &m, &m2)
	if len(m2) != 3 || !reflect.DeepEqual(m2[0], []float64{1, 2}) ||
		len(m2[1]) != 0 || !reflect.DeepEqual(m2[2], []float64{3}) {
		t.Fatalf("matrix: got %v", m2)
	}

	bs := []byte("raw")
	var bs2 []byte
	roundTrip(t, &bs, &bs2)
	if string(bs2) != "raw" {
		t.Fatalf("bytes: got %q", bs2)
	}

	i64 := []int64{-1, 2, -3}
	var i64b []int64
	roundTrip(t, &i64, &i64b)
	if !reflect.DeepEqual(i64, i64b) {
		t.Fatalf("int64 slice: got %v", i64b)
	}
}

func TestCodecGobFallback(t *testing.T) {
	type point struct{ X, Y float64 }
	p := point{1, 2}
	var p2 point
	roundTrip(t, &p, &p2)
	if p2 != p {
		t.Fatalf("struct: got %+v", p2)
	}
	m := map[string]int{"a": 1}
	var m2 map[string]int
	roundTrip(t, &m, &m2)
	if m2["a"] != 1 {
		t.Fatalf("map: got %v", m2)
	}
}

func TestCodecTagMismatch(t *testing.T) {
	i := 3
	raw, err := Encode(&i)
	if err != nil {
		t.Fatal(err)
	}
	var f float64
	if err := Decode(raw, &f); err == nil {
		t.Fatal("decoding int bytes into *float64 should fail")
	}
}

func TestCodecDecodeIntoExistingBuffer(t *testing.T) {
	xs := []float64{1, 2, 3}
	raw, err := Encode(&xs)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 8) // larger capacity: must be reused and resized
	hold := dst[:cap(dst)]
	if err := Decode(raw, &dst); err != nil {
		t.Fatal(err)
	}
	if len(dst) != 3 || dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("got %v", dst)
	}
	if &hold[0] != &dst[0] {
		t.Fatal("decode should reuse the existing backing array")
	}
}

func TestCodecPropertyFloatSlices(t *testing.T) {
	f := func(xs []float64) bool {
		raw, err := Encode(&xs)
		if err != nil {
			return false
		}
		var back []float64
		if err := Decode(raw, &back); err != nil {
			return false
		}
		if len(back) != len(xs) {
			return false
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCodecPropertyStrings(t *testing.T) {
	f := func(s string) bool {
		raw, err := Encode(&s)
		if err != nil {
			return false
		}
		var back string
		return Decode(raw, &back) == nil && back == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPositionStackPushPop(t *testing.T) {
	ps := NewPositionStack()
	ps.Push(1)
	ps.Push(2)
	if ps.Depth() != 2 {
		t.Fatalf("depth = %d", ps.Depth())
	}
	snap := ps.Snapshot()
	if !reflect.DeepEqual(snap, []int{1, 2}) {
		t.Fatalf("snapshot = %v", snap)
	}
	ps.Pop()
	if ps.Depth() != 1 {
		t.Fatalf("depth after pop = %d", ps.Depth())
	}
	// Snapshot is a copy.
	snap[0] = 99
	if ps.Snapshot()[0] != 1 {
		t.Fatal("Snapshot must copy")
	}
}

func TestPositionStackResume(t *testing.T) {
	ps := NewPositionStack()
	ps.StartResume([]int{3, 7})
	if !ps.Resuming() {
		t.Fatal("should be resuming")
	}
	if l := ps.Resume(); l != 3 {
		t.Fatalf("first label = %d", l)
	}
	if !ps.AtCheckpointSite() {
		t.Fatal("next label is the innermost: AtCheckpointSite should be true")
	}
	if l := ps.Resume(); l != 7 {
		t.Fatalf("second label = %d", l)
	}
	if ps.Resuming() {
		t.Fatal("resume should be exhausted")
	}
	// Live stack mirrors the restored trace.
	if !reflect.DeepEqual(ps.Snapshot(), []int{3, 7}) {
		t.Fatalf("live stack = %v", ps.Snapshot())
	}
}

func TestPositionStackPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPositionStack().Pop()
}

func TestVDSSaveRestore(t *testing.T) {
	v := NewVDS()
	x := 10
	ys := []float64{1, 2}
	if err := v.Push("x", &x); err != nil {
		t.Fatal(err)
	}
	if err := v.Push("ys", &ys); err != nil {
		t.Fatal(err)
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate after the checkpoint, then restore into fresh variables (a new
	// incarnation re-registers).
	v2 := NewVDS()
	if err := v2.StartRestore(snap); err != nil {
		t.Fatal(err)
	}
	var x2 int
	var ys2 []float64
	if err := v2.Push("x", &x2); err != nil {
		t.Fatal(err)
	}
	if err := v2.Push("ys", &ys2); err != nil {
		t.Fatal(err)
	}
	if x2 != 10 || !reflect.DeepEqual(ys2, []float64{1, 2}) {
		t.Fatalf("restored x=%d ys=%v", x2, ys2)
	}
	if len(v2.restore) != 0 {
		t.Fatalf("pending restores = %d", len(v2.restore))
	}
}

func TestVDSScopeExit(t *testing.T) {
	v := NewVDS()
	a, b := 1, 2
	if err := v.Push("a", &a); err != nil {
		t.Fatal(err)
	}
	if err := v.Push("b", &b); err != nil {
		t.Fatal(err)
	}
	v.Pop() // b leaves scope
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewVDS()
	if err := v2.StartRestore(snap); err != nil {
		t.Fatal(err)
	}
	var a2 int
	if err := v2.Push("a", &a2); err != nil {
		t.Fatal(err)
	}
	if a2 != 1 {
		t.Fatalf("a = %d", a2)
	}
	if len(v2.restore) != 0 {
		t.Fatal("b should not be in the snapshot")
	}
}

func TestVDSRebind(t *testing.T) {
	v := NewVDS()
	x := 1
	if err := v.Push("x", &x); err != nil {
		t.Fatal(err)
	}
	y := 5
	if err := v.Push("x", &y); err != nil { // rebind: function called again
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("len = %d", v.Len())
	}
	snap, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v2 := NewVDS()
	if err := v2.StartRestore(snap); err != nil {
		t.Fatal(err)
	}
	var z int
	if err := v2.Push("x", &z); err != nil {
		t.Fatal(err)
	}
	if z != 5 {
		t.Fatalf("rebind should capture the latest pointer; z = %d", z)
	}
}

func TestVDSNilPointer(t *testing.T) {
	if err := NewVDS().Push("x", nil); err == nil {
		t.Fatal("nil pointer must be rejected")
	}
}

func TestHeapAllocFreeSnapshot(t *testing.T) {
	h := NewHeap()
	b1 := h.Alloc(4)
	b2 := h.Alloc(8)
	copy(b1.Data, []byte{1, 2, 3, 4})
	copy(b2.Data, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	h.Free(b2.ID)
	if h.Live() != 1 || h.LiveBytes() != 4 {
		t.Fatalf("live=%d bytes=%d", h.Live(), h.LiveBytes())
	}

	snap, err := h.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	h2 := NewHeap()
	if err := h2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	got := h2.Lookup(b1.ID)
	if got == nil || got.Data[3] != 4 {
		t.Fatalf("block 1 not restored: %+v", got)
	}
	if h2.Lookup(b2.ID) != nil {
		t.Fatal("freed block must not be restored")
	}
	// Handle allocation continues from where the snapshot left off, so
	// handles never collide with restored ones.
	b3 := h2.Alloc(1)
	if b3.ID <= b2.ID {
		t.Fatalf("new handle %d collides with old ones", b3.ID)
	}
}

func TestHeapDoubleFreePanics(t *testing.T) {
	h := NewHeap()
	b := h.Alloc(1)
	h.Free(b.ID)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Free(b.ID)
}

func TestSaverRoundTrip(t *testing.T) {
	s := NewSaver()
	iter := 7
	grid := []float64{1, 2, 3}
	if err := s.VDS.Push("iter", &iter); err != nil {
		t.Fatal(err)
	}
	if err := s.VDS.Push("grid", &grid); err != nil {
		t.Fatal(err)
	}
	blk := s.Heap.Alloc(3)
	copy(blk.Data, "abc")
	s.PS.Push(2)
	s.PS.Push(5)

	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	s2 := NewSaver()
	if err := s2.StartRestore(blob); err != nil {
		t.Fatal(err)
	}
	var iter2 int
	var grid2 []float64
	if err := s2.VDS.Push("iter", &iter2); err != nil {
		t.Fatal(err)
	}
	if err := s2.VDS.Push("grid", &grid2); err != nil {
		t.Fatal(err)
	}
	if iter2 != 7 || !reflect.DeepEqual(grid2, []float64{1, 2, 3}) {
		t.Fatalf("restored iter=%d grid=%v", iter2, grid2)
	}
	if string(s2.Heap.Lookup(blk.ID).Data) != "abc" {
		t.Fatal("heap block not restored")
	}
	if !s2.PS.Resuming() {
		t.Fatal("PS should be armed")
	}
	if l := s2.PS.Resume(); l != 2 {
		t.Fatalf("outer label = %d", l)
	}
	if l := s2.PS.Resume(); l != 5 {
		t.Fatalf("inner label = %d", l)
	}
}
