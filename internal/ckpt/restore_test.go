package ckpt

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ccift/internal/cerr"
	"ccift/internal/storage"
)

// targets returns a fresh pointer of every live entry's type, what a
// re-executing program registers: a numeric vector already made at the
// length it had (the program's own make), everything else its zero value.
func targets(s *Saver) []any {
	out := make([]any, len(s.VDS.entries))
	for i, e := range s.VDS.entries {
		p := reflect.New(reflect.TypeOf(e.ptr).Elem())
		if xs, ok := e.ptr.(*[]float64); ok {
			p.Elem().Set(reflect.ValueOf(make([]float64, len(*xs))))
		}
		out[i] = p.Interface()
	}
	return out
}

// reregister registers every target under its entry's name on s, armed for
// a restore, and fails unless every saved value was restored.
func reregister(tb testing.TB, s, src *Saver, to []any) {
	for i, e := range src.VDS.entries {
		if err := s.VDS.Push(e.name, to[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if n := len(s.VDS.restore); n != 0 {
		tb.Fatalf("%d values never restored", n)
	}
}

// storeState writes f as the state object of epoch 1, rank 0 of a Disk store
// in a test directory, through the chunked writer a flush uses.
func storeState(tb testing.TB, f *Frozen) *storage.CheckpointStore {
	tb.Helper()
	disk, err := storage.NewDisk(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	cs := storage.NewCheckpointStore(disk)
	w := cs.StateWriter(nil, 1, 0, storage.DefaultChunkSize)
	defer w.Abort()
	if err := f.WriteTo(w); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := w.Commit(); err != nil {
		tb.Fatal(err)
	}
	return cs
}

// armReplacement arms s as a replacement's rollback does: from the state
// object the store holds for epoch 1, rank 0.
func armReplacement(cs *storage.CheckpointStore, s *Saver) error {
	obj, err := cs.OpenState(1, 0)
	if err != nil {
		return err
	}
	return s.StartRestoreFrom(obj)
}

// numericState registers n variables of the types a restore copies into
// memory the program already has: scalars, and short float vectors.
func numericState(tb testing.TB, n int) *Saver {
	tb.Helper()
	s := NewSaver()
	for i := 0; i < n; i++ {
		var v any
		switch i % 4 {
		case 0:
			v = ptr(i)
		case 1:
			v = ptr(float64(i) / 3)
		case 2:
			v = ptr(i%2 == 0)
		default:
			v = &[]float64{1, 2, float64(i)}
		}
		if err := s.VDS.Push(string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('0'+i/260)), v); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestRestoreAllocationsDoNotGrowWithEntries: a survivor's rollback from its
// retained view allocates its restore map and nothing per variable — a
// value goes into the memory the program registers, not through a buffer of
// its own.
func TestRestoreAllocationsDoNotGrowWithEntries(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the allocation gate runs without it")
	}
	allocs := func(n int) float64 {
		src := numericState(t, n)
		f, err := src.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		to := targets(src)
		register := testing.AllocsPerRun(20, func() { reregister(t, NewSaver(), src, to) })
		return testing.AllocsPerRun(20, func() {
			s := NewSaver()
			s.StartRestoreView(f)
			reregister(t, s, src, to)
		}) - register
	}
	if few, many := allocs(10), allocs(500); many > few {
		t.Errorf("a restore allocates %v times beyond its registrations for 10 variables, %v for 500", few, many)
	}
}

// BenchmarkRestore restores BenchmarkFrozenWriteTo's two states both ways a
// rollback does: a survivor from its retained view, and a replacement from
// the state object a Disk store holds. An iteration is one whole restore:
// arming a fresh Saver, and every registration of the re-executing program.
func BenchmarkRestore(b *testing.B) {
	grid := NewSaver()
	xs := make([]float64, 4<<20/8)
	for i := range xs {
		xs[i] = float64(i)
	}
	if err := grid.VDS.Push("grid", &xs); err != nil {
		b.Fatal(err)
	}
	small := smallState(b, 450)
	for id := 1; id <= 400; id++ {
		small.Heap.Free(id) // 50 heap blocks
	}
	for _, c := range []struct {
		name string
		s    *Saver
	}{{"grid-4MB", grid}, {"small-450+50", small}} {
		f, err := c.s.Freeze()
		if err != nil {
			b.Fatal(err)
		}
		defer f.Release()
		cs := storeState(b, f)
		to := targets(c.s)
		for _, path := range []struct {
			name string
			arm  func(*Saver) error
		}{
			{"survivor", func(s *Saver) error { s.StartRestoreView(f); return nil }},
			{"replacement", func(s *Saver) error { return armReplacement(cs, s) }},
		} {
			b.Run(c.name+"/"+path.name, func(b *testing.B) {
				b.SetBytes(int64(f.StateBytes()))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := NewSaver()
					if err := path.arm(s); err != nil {
						b.Fatal(err)
					}
					reregister(b, s, c.s, to)
				}
			})
		}
	}
}

// gridState registers a 4 MB grid and a counter.
func gridState(tb testing.TB) (*Saver, []float64) {
	tb.Helper()
	s := NewSaver()
	xs := make([]float64, 4<<20/8)
	for i := range xs {
		xs[i] = float64(i) * 0.5
	}
	it := 7
	if err := s.VDS.Push("it", &it); err != nil {
		tb.Fatal(err)
	}
	if err := s.VDS.Push("grid", &xs); err != nil {
		tb.Fatal(err)
	}
	return s, xs
}

// TestReplacementReadsTheGridIntoItsVariable: a replacement's restore of a
// 4 MB grid reads the grid's chunks into the array the program registers —
// the same array, not a new one — and allocates less than one chunk for
// it: there is no state-sized buffer on the way.
func TestReplacementReadsTheGridIntoItsVariable(t *testing.T) {
	src, want := gridState(t)
	f, err := src.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	cs := storeState(t, f)
	to := targets(src)
	grid := *to[1].(*[]float64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewSaver()
	if err := armReplacement(cs, s); err != nil {
		t.Fatal(err)
	}
	reregister(t, s, src, to)
	runtime.ReadMemStats(&after)
	if got := *to[1].(*[]float64); &got[0] != &grid[0] || !slices.Equal(got, want) || *to[0].(*int) != 7 {
		t.Fatal("the grid was not restored into the array the program registered")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= storage.DefaultChunkSize {
		t.Fatalf("a replacement's restore of a 4 MB grid allocated %d bytes, a chunk is %d", grew, storage.DefaultChunkSize)
	}
}

// TestUnregisteredPayloadIsReadBeforeTheNextFreeze: a value no registration
// has taken when the rank next freezes is read out of the store then, in
// full and verified, and a registration after it restores from memory: the
// commit that freeze leads to lets a prune delete the chunks. A damaged
// chunk fails that freeze as a store failure.
func TestUnregisteredPayloadIsReadBeforeTheNextFreeze(t *testing.T) {
	src, want := gridState(t)
	f, err := src.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	for _, damaged := range []bool{false, true} {
		cs := storeState(t, f)
		s := NewSaver()
		if err := armReplacement(cs, s); err != nil {
			t.Fatal(err)
		}
		if err := s.VDS.Push("it", new(int)); err != nil {
			t.Fatal(err)
		}
		entries, err := cs.Walk()
		if err != nil {
			t.Fatal(err)
		}
		// The head is read: every chunk left to read is the grid's.
		var chunks []string
		for _, e := range entries {
			if e.Class == storage.Chunk {
				chunks = append(chunks, e.Key)
			}
		}
		for _, key := range chunks {
			if !damaged {
				break
			}
			if err := cs.S.Put(key, []byte("not the chunk")); err != nil {
				t.Fatal(err)
			}
		}
		g, err := s.Freeze()
		if damaged {
			if !errors.Is(err, cerr.ErrStore) || !strings.Contains(err.Error(), `"grid"`) {
				t.Fatalf("a freeze over the damaged chunks of the unregistered grid: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		g.Release()
		for _, key := range chunks { // what a prune after the next commit may do
			if err := cs.S.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
		var got []float64
		if err := s.VDS.Push("grid", &got); err != nil || !slices.Equal(got, want) {
			t.Fatalf("the grid registered after the freeze: %v", err)
		}
	}
}
