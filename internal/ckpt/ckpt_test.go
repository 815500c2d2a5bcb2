package ckpt

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ccift/internal/wire"
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
	raw := Encode(src)
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

func TestCodecTagMismatch(t *testing.T) {
	i := 3
	raw := Encode(&i)
	var f float64
	if err := Decode(raw, &f); err == nil {
		t.Fatal("decoding int bytes into *float64 should fail")
	}
}

func TestCodecDecodeIntoExistingBuffer(t *testing.T) {
	xs := []float64{1, 2, 3}
	raw := Encode(&xs)
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

// TestCodecDecodeMatrixIntoLiveRows: a matrix decodes into new rows, so a
// variable that holds rows when it registers takes the saved matrix, an
// empty one too.
func TestCodecDecodeMatrixIntoLiveRows(t *testing.T) {
	for _, saved := range [][][]float64{nil, {}, {{1, 2}}, {{1}, {}, {2, 3}, {4}}} {
		raw := Encode(&saved)
		live := [][]float64{{9, 9}, {9}, {9}}
		if err := Decode(raw, &live); err != nil || len(live) != len(saved) {
			t.Fatalf("%v into three rows: %v, %v", saved, live, err)
		}
		for i := range saved {
			if !slices.Equal(live[i], saved[i]) {
				t.Fatalf("%v into three rows: %v", saved, live)
			}
		}
	}
}

// TestCodecFailedDecodeKeepsTheVariable: a record cut short, or of another
// type, fails and leaves the variable as it was.
func TestCodecFailedDecodeKeepsTheVariable(t *testing.T) {
	other := Encode(ptr(uint64(3))) // a type none of the variables has
	for name, pair := range map[string]func() (saved, live any){
		"int":    func() (any, any) { return ptr(-1), ptr(7) },
		"f64":    func() (any, any) { return ptr(0.5), ptr(2.5) },
		"bool":   func() (any, any) { return ptr(true), ptr(false) },
		"str":    func() (any, any) { return ptr("saved"), ptr("live") },
		"bytes":  func() (any, any) { return ptr([]byte("saved")), ptr([]byte("live")) },
		"floats": func() (any, any) { return ptr([]float64{1, 2, 3}), ptr([]float64{9}) },
		"matrix": func() (any, any) { return ptr([][]float64{{1}, {2, 3}}), ptr([][]float64{{9, 9}}) },
	} {
		saved, _ := pair()
		raw := Encode(saved)
		cuts := [][]byte{other}
		for k := range raw {
			cuts = append(cuts, raw[:k])
		}
		for _, cut := range cuts {
			_, live := pair()
			_, want := pair()
			if err := Decode(cut, live); err == nil || !reflect.DeepEqual(live, want) {
				t.Errorf("%s: %d bytes of %d decode to %v (%v), want an error and %v", name, len(cut), len(raw),
					reflect.ValueOf(live).Elem(), err, reflect.ValueOf(want).Elem())
			}
		}
	}
}

func TestCodecPropertyFloatSlices(t *testing.T) {
	f := func(xs []float64) bool {
		raw := Encode(&xs)
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
		raw := Encode(&s)
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

func TestPositionStackPushNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPositionStack().Push(-1)
}

func TestPositionStackPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPositionStack().Pop()
}

// rollback snapshots s and arms a fresh Saver from the blob, as a
// replacement's rollback does.
func rollback(t *testing.T, s *Saver) *Saver {
	t.Helper()
	blob := s.Snapshot()
	r := NewSaver()
	if err := r.StartRestore(blob); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestVDSSaveRestore(t *testing.T) {
	s := NewSaver()
	v := s.VDS
	x := 10
	ys := []float64{1, 2}
	if err := v.Push("x", &x); err != nil {
		t.Fatal(err)
	}
	if err := v.Push("ys", &ys); err != nil {
		t.Fatal(err)
	}

	// Restore into fresh variables (a new incarnation re-registers).
	v2 := rollback(t, s).VDS
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
	s := NewSaver()
	v := s.VDS
	a, b := 1, 2
	if err := v.Push("a", &a); err != nil {
		t.Fatal(err)
	}
	if err := v.Push("b", &b); err != nil {
		t.Fatal(err)
	}
	v.Pop() // b leaves scope
	v2 := rollback(t, s).VDS
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
	s := NewSaver()
	v := s.VDS
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
	v2 := rollback(t, s).VDS
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

// TestVDSRefusesTypesWithNoLayout: every registration kind refuses a
// pointer to a type the codec does not lay out, naming the variable and its
// type, and registers nothing.
func TestVDSRefusesTypesWithNoLayout(t *testing.T) {
	type point struct{ X, Y float64 }
	type handle int64
	for _, ptr := range []any{&point{}, new(map[string]int), new([]int32), new(handle), new([2]float64), new(*int), 7} {
		want := fmt.Sprintf(`"x"): %T has no checkpoint layout; register a pointer to one of int, `, ptr)
		v := NewVDS()
		for kind, push := range map[string]func() error{
			"saved":      func() error { return v.Push("x", ptr) },
			"computed":   func() error { return v.PushComputed("x", ptr, func() error { return nil }) },
			"replicated": func() error { return v.PushReplicated("x", ptr) },
		} {
			if err := push(); err == nil || !strings.Contains(err.Error(), want) || v.Live("x") {
				t.Errorf("%s %T: %v (live %v), want an error containing %q", kind, ptr, err, v.Live("x"), want)
			}
		}
	}
}

// TestLaidOutTypesAreOneList holds laidOut, codeValue and copyValue in
// step: the two functions have a case for exactly the listed types, each
// listed name spells its pointer's type, the scalars are the types that are
// not slices, and every listed type registers, freezes and round-trips.
func TestLaidOutTypesAreOneList(t *testing.T) {
	var names []string
	for _, lt := range laidOut {
		names = append(names, lt.name)
		elem := reflect.TypeOf(lt.ptr).Elem()
		if spelled := strings.ReplaceAll(elem.String(), "uint8", "byte"); spelled != lt.name {
			t.Errorf("laidOut names %s by a *%s", lt.name, spelled)
		}
		if lt.scalar != (elem.Kind() != reflect.Slice) {
			t.Errorf("%s: scalar %v, but the scalars are exactly the types that are not slices", lt.name, lt.scalar)
		}
		if ok, scalar := LaidOut(lt.name); !ok || scalar != lt.scalar {
			t.Errorf("LaidOut(%q) = %v, %v", lt.name, ok, scalar)
		}
		s := NewSaver()
		if err := s.VDS.Push("v", reflect.New(elem).Interface()); err != nil {
			t.Fatal(err)
		}
		f, err := s.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		back := reflect.New(elem).Interface()
		if err := Decode(wire.Encode(nil, f.vds[0].record), back); err != nil {
			t.Errorf("%s: %v", lt.name, err)
		}
		f.Release()
	}
	fset := token.NewFileSet()
	for file, fn := range map[string]string{"codec.go": "codeValue", "freeze.go": "copyValue"} {
		src, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var cases []string
		ast.Inspect(src, func(n ast.Node) bool {
			if d, ok := n.(*ast.FuncDecl); ok && d.Name.Name != fn {
				return false
			}
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					cases = append(cases, strings.TrimPrefix(types.ExprString(e), "*"))
				}
			}
			return true
		})
		if !slices.Equal(cases, names) {
			t.Errorf("%s in %s has a case for %v; laidOut lists %v", fn, file, cases, names)
		}
	}
}

func TestHeapAllocFreeSnapshot(t *testing.T) {
	s := NewSaver()
	h := s.Heap
	b1 := h.Alloc(4)
	b2 := h.Alloc(8)
	copy(b1.Data, []byte{1, 2, 3, 4})
	copy(b2.Data, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	h.Free(b2.ID)
	if h.Live() != 1 || h.LiveBytes() != 4 {
		t.Fatalf("live=%d bytes=%d", h.Live(), h.LiveBytes())
	}

	h2 := rollback(t, s).Heap
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

	blob := s.Snapshot()

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
