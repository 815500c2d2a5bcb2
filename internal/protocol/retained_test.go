package protocol

import (
	"bytes"
	"reflect"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// The retained ring holds frozen views, not serialized blobs. These tests
// drive one rank's layer directly — synchronous flush, a store in memory —
// so every number below is a count, not a heap sample.

// reach is what a value keeps alive in flat numeric slices: the distinct
// backing arrays reachable from it, and the largest []byte among them. The
// Saver's slab pool is not followed: its free slabs are nobody's.
type reach struct {
	ptrs, arrays map[uintptr]bool
	bytes        int
	largestBytes int
}

func reachOf(vs ...any) *reach {
	r := &reach{ptrs: map[uintptr]bool{}, arrays: map[uintptr]bool{}}
	for _, v := range vs {
		r.walk(reflect.ValueOf(v))
	}
	return r
}

func (r *reach) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || r.ptrs[v.Pointer()] || v.Type().Elem().Name() == "bufPool" {
			return
		}
		r.ptrs[v.Pointer()] = true
		r.walk(v.Elem())
	case reflect.Interface:
		if !v.IsNil() {
			r.walk(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			r.walk(v.Field(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			r.walk(it.Value())
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			r.walk(v.Index(i))
		}
	case reflect.Slice:
		switch elem := v.Type().Elem(); elem.Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Map, reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				r.walk(v.Index(i))
			}
		default:
			if v.Cap() == 0 || r.arrays[v.Pointer()] {
				return
			}
			r.arrays[v.Pointer()] = true
			n := v.Cap() * int(elem.Size())
			r.bytes += n
			if elem.Kind() == reflect.Uint8 && n > r.largestBytes {
				r.largestBytes = n
			}
		}
	}
}

// ringRank is a one-rank Full layer with incremental freeze over a grid of
// `pages` 64 KB pages and a 4 KB vector.
type ringRank struct {
	l    *Layer
	cs   *storage.CheckpointStore
	gets *getLog
	grid []float64
	vec  []float64
	it   int
}

const ringPage = 64 << 10 / 8 // float64s per frozen page

func newRingRank(t *testing.T, pages int, debug bool) *ringRank {
	t.Helper()
	rr := &ringRank{gets: &getLog{Stable: storage.NewMemory()}, grid: make([]float64, pages*ringPage), vec: make([]float64, 512)}
	rr.cs = storage.NewCheckpointStore(rr.gets)
	rr.l = NewLayer(mpi.NewWorld(1, mpi.Options{}).Comm(0), Config{Mode: Full, Store: rr.cs, IncrementalFreeze: true, Debug: debug})
	rr.register(t, rr.l)
	return rr
}

func (rr *ringRank) register(t *testing.T, l *Layer) {
	t.Helper()
	for name, ptr := range map[string]any{"grid": &rr.grid, "vec": &rr.vec, "it": &rr.it} {
		if err := l.Saver.VDS.Push(name, ptr); err != nil {
			t.Fatal(err)
		}
	}
}

// checkpoint rewrites `dirty` pages of the grid (a window that rotates with
// the iteration) and the vector, declares them, and takes the next global
// checkpoint to its commit.
func (rr *ringRank) checkpoint(t *testing.T, dirty int) {
	t.Helper()
	rr.it++
	pages := len(rr.grid) / ringPage
	for d := 0; d < dirty; d++ {
		off := (rr.it*dirty + d) % pages * ringPage
		for i := off; i < off+ringPage; i++ {
			rr.grid[i] = float64(rr.it*1000 + i)
		}
		if err := rr.l.Saver.VDS.TouchRange("grid", off, ringPage); err != nil {
			t.Fatal(err)
		}
	}
	for i := range rr.vec {
		rr.vec[i] = float64(rr.it)
	}
	if err := rr.l.Saver.VDS.Touch("vec"); err != nil {
		t.Fatal(err)
	}
	rr.l.requestCheckpoint()
	rr.l.PotentialCheckpoint()
	pump(t, []*Layer{rr.l}, rr.cs, rr.l.Epoch())
}

// TestRetainedRingCostsTheDirtyPages: after any number of checkpoints of a
// state with a fixed dirty fraction, the two retained epochs share every
// clean page — what the ring keeps alive is one state plus the pages that
// differ, never a second serialized copy — and each retained view
// serializes to exactly what the store holds for its epoch.
func TestRetainedRingCostsTheDirtyPages(t *testing.T) {
	const pages, dirty, k = 16, 2, 8
	rr := newRingRank(t, pages, true)
	state := 8 * (len(rr.grid) + len(rr.vec))
	dirtyBytes := 8 * (dirty*ringPage + len(rr.vec))
	stored := make([][]byte, k+1) // by epoch; the store prunes an epoch when the next commits
	for c := 1; c <= k; c++ {
		rr.checkpoint(t, dirty)
		var err error
		if stored[c], err = rr.cs.GetState(c, 0); err != nil {
			t.Fatal(err)
		}
		for i, want := range []int{c, c - 1} {
			ret := rr.l.ring[i]
			if want == 0 {
				if ret != nil {
					t.Fatalf("checkpoint %d: ring[1] holds epoch %d before a second checkpoint exists", c, ret.Epoch)
				}
				continue
			}
			if ret == nil || ret.Epoch != want || ret.Frozen == nil || ret.Log == nil {
				t.Fatalf("checkpoint %d: ring[%d] = %+v, want both halves of epoch %d", c, i, ret, want)
			}
			if !bytes.Equal(retainedBlob(t, ret), stored[want]) {
				t.Fatalf("checkpoint %d: the retained view of epoch %d is not the store's state object", c, want)
			}
		}
		got := reachOf(rr.l.ring)
		if got.bytes < state || got.bytes > state+2*dirtyBytes {
			t.Fatalf("checkpoint %d: the ring keeps %d bytes alive; the state is %d, two epochs' dirty pages %d more", c, got.bytes, state, 2*dirtyBytes)
		}
		if got.largestBytes >= state/2 {
			t.Fatalf("checkpoint %d: the ring holds a []byte of %d bytes beside a state of %d: a serialized copy is back", c, got.largestBytes, state)
		}
	}
}

// TestRetainedMidFlushViewIsReleased: a rank that stops between its local
// checkpoint and the commit hands on the committed epoch only — the view of
// the half-taken one goes back to the pool — and the next incarnation
// restores from that view, without a store read, as often as it has to.
func TestRetainedMidFlushViewIsReleased(t *testing.T) {
	rr := newRingRank(t, 4, false)
	rr.checkpoint(t, 1)
	// Epoch 2: state flushed, log never finalized (stopLogging not serviced).
	rr.it++
	rr.l.requestCheckpoint()
	rr.l.PotentialCheckpoint()
	if half := rr.l.ring[0]; half.Epoch != 2 || half.Frozen == nil || half.Log != nil {
		t.Fatalf("ring[0] = %+v, want epoch 2 with its state and no log", half)
	}
	if err := rr.l.Shutdown(); err != nil {
		t.Fatal(err)
	}
	half := rr.l.ring[0]
	kept := rr.l.Retained()
	if len(kept) != 1 || kept[0].Epoch != 1 {
		t.Fatalf("retained %+v, want epoch 1 alone", kept)
	}
	if got := reachOf(half.Frozen); got.bytes != 0 {
		t.Fatalf("the uncommitted epoch's view still holds %d bytes", got.bytes)
	}
	want := retainedBlob(t, kept[0])

	rec := recoverySlices(t, rr.cs, 1, 1)[0]
	rr.gets.keys = nil
	for rollback := 1; rollback <= 2; rollback++ {
		l := NewLayer(mpi.NewWorld(1, mpi.Options{}).Comm(0), Config{Mode: Full, Store: rr.cs, IncrementalFreeze: true})
		if err := l.RestoreFrom(rec, kept); err != nil {
			t.Fatal(err)
		}
		if l.Stats.RecoveredFromRetained != 1 || len(rr.gets.keys) != 0 {
			t.Fatalf("rollback %d: %d retained restores, store reads %v", rollback, l.Stats.RecoveredFromRetained, rr.gets.keys)
		}
		got := &ringRank{}
		got.register(t, l)
		if got.it != 1 || !reflect.DeepEqual(got.vec, rr.vecAt(1)) || !reflect.DeepEqual(got.grid, rr.gridAt(1)) {
			t.Fatalf("rollback %d: restored it=%d, vec[0]=%v, %d grid elements", rollback, got.it, got.vec[:1], len(got.grid))
		}
		// Everything the program was handed is the program's to overwrite.
		for i := range got.grid {
			got.grid[i] = -1
		}
		for i := range got.vec {
			got.vec[i] = -1
		}
		// This incarnation dies before it checkpoints: the view it rolled
		// back from is what it hands on.
		kept = l.Retained()
		if len(kept) != 1 || kept[0].Epoch != 1 || !bytes.Equal(retainedBlob(t, kept[0]), want) {
			t.Fatalf("rollback %d: handed on %+v, want the unchanged view of epoch 1", rollback, kept)
		}
	}
}

func (rr *ringRank) vecAt(it int) []float64 {
	v := make([]float64, len(rr.vec))
	for i := range v {
		v[i] = float64(it)
	}
	return v
}

// gridAt is the grid after `it` checkpoints of rr.checkpoint(t, 1).
func (rr *ringRank) gridAt(it int) []float64 {
	g := make([]float64, len(rr.grid))
	pages := len(g) / ringPage
	for c := 1; c <= it; c++ {
		off := c % pages * ringPage
		for i := off; i < off+ringPage; i++ {
			g[i] = float64(c*1000 + i)
		}
	}
	return g
}
