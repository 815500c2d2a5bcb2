package storage_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"ccift/internal/ckpt"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// A ChunkedWriter refills its one buffer from the start for every chunk, and
// a checkpoint's payload reaches it as views of the frozen state's slabs,
// which go back to a pool once the flush is over. This package's tests run
// with every slab that goes back poisoned (ckpt.PoisonReleasedSlabs): a
// store that kept what Put or PutParts gave it, rather than a copy, holds
// other bytes by the time anything reads them.

func TestMain(m *testing.M) {
	ckpt.PoisonReleasedSlabs()
	os.Exit(m.Run())
}

// viewKeeper is the store the rule forbids: Put and PutParts keep every part
// of 16 KiB or more — the pages and slabs a flush lends — as the caller's
// slice, and copy the shorter ones; Get joins them when it is called.
type viewKeeper struct {
	mu    sync.Mutex
	blobs map[string][][]byte
}

func (v *viewKeeper) Put(key string, data []byte) error { return v.PutParts(key, data) }

func (v *viewKeeper) PutParts(key string, parts ...[]byte) error {
	kept := slices.Clone(parts)
	for i, p := range kept {
		if len(p) < 16<<10 {
			kept[i] = bytes.Clone(p)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.blobs[key] = kept
	return nil
}

func (v *viewKeeper) Get(key string) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	parts, ok := v.blobs[key]
	if !ok {
		return nil, storage.ErrNotFound
	}
	return bytes.Join(parts, nil), nil
}

func (v *viewKeeper) Delete(key string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.blobs, key)
	return nil
}

func (v *viewKeeper) List(prefix string) ([]string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var keys []string
	for k := range v.blobs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// flushGrid freezes a state holding a paged grid and a heap block, streams
// it into s, and returns the view, which the caller releases, and its bytes.
func flushGrid(t *testing.T, s storage.Stable) (*ckpt.Frozen, []byte) {
	t.Helper()
	sv := ckpt.NewSaver()
	grid := make([]float64, 48<<10) // six 64 KiB pages
	for i := range grid {
		grid[i] = float64(i)
	}
	if err := sv.VDS.Push("grid", &grid); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(1)).Read(sv.Heap.Alloc(20 << 10).Data)
	f, err := sv.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := storage.NewChunkedWriter(context.Background(), s, "state", 0)
	if err := f.WriteTo(w); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return f, want
}

// readState reads the state flushGrid stored back, and checks it holds want.
func readState(t *testing.T, s storage.Stable, want []byte) error {
	t.Helper()
	man, err := s.Get("state")
	if err != nil {
		t.Fatal(err)
	}
	back, err := storage.Assemble(s, man)
	if err == nil && !bytes.Equal(back, want) {
		t.Fatalf("the state reads back %d different bytes with no error", len(back))
	}
	return err
}

// TestPoisonCatchesAStoreThatKeepsAView: the seam works — a store that keeps
// the pages and slabs a flush lends it reads the state back while the frozen
// view lives, and fails once the view is released and its slabs poisoned.
func TestPoisonCatchesAStoreThatKeepsAView(t *testing.T) {
	s := &viewKeeper{blobs: map[string][][]byte{}}
	f, want := flushGrid(t, s)
	if err := readState(t, s, want); err != nil {
		t.Fatalf("before the view is released: %v", err)
	}
	f.Release()
	if readState(t, s, want) == nil {
		t.Fatal("a store that keeps the lent views read back intact chunks: the released slabs were not poisoned")
	}
}

// writeAndReread streams a blob of several chunks through Write, and one of
// as many made of lent views between short writes, whose memory it
// overwrites once the writer has committed, and reads both back.
func writeAndReread(t *testing.T, s storage.Stable) error {
	t.Helper()
	const chunk = 4 << 10
	written, lent := make([]byte, 5*chunk+100), make([]byte, 8*chunk+100)
	rand.New(rand.NewSource(6)).Read(written)
	rand.New(rand.NewSource(9)).Read(lent)
	w := storage.NewChunkedWriter(context.Background(), s, "written", chunk)
	if _, err := w.Write(written); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	views := bytes.Clone(lent)
	w = storage.NewChunkedWriter(context.Background(), s, "lent", chunk)
	for off := 0; off < len(views); off += chunk / 2 {
		piece := views[off:min(off+chunk/2, len(views))]
		var err error
		if off%(3*chunk/2) == 0 {
			_, err = w.Write(piece)
		} else {
			err = w.Lend(piece)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := range views {
		views[i] = 0xDB
	}
	for key, data := range map[string][]byte{"written": written, "lent": lent} {
		man, err := s.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		back, err := storage.Assemble(s, man)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, data) {
			return errors.New("blob " + key + " reads back different bytes with no error")
		}
	}
	return nil
}

// TestEveryStableCopiesOnPut: every in-tree store copies what Put and
// PutParts hand it, so the writer may refill its buffer, and a flush hand
// its frozen slabs back, the moment a Put returns.
func TestEveryStableCopiesOnPut(t *testing.T) {
	disk, err := storage.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	throttledDisk, err := storage.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clock, err := sim.New(0, sim.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	defer clock.Stop()
	for name, s := range map[string]storage.Stable{
		"memory":           storage.NewMemory(),
		"disk":             disk,
		"throttled-memory": storage.NewThrottled(storage.NewMemory(), 1e12),
		"throttled-disk":   storage.NewThrottled(throttledDisk, 1e12),
		"simulated":        clock.WrapStore(storage.NewMemory()),
	} {
		t.Run(name, func(t *testing.T) {
			if err := writeAndReread(t, s); err != nil {
				t.Fatal(err)
			}
			f, want := flushGrid(t, s)
			f.Release()
			if err := readState(t, s, want); err != nil {
				t.Fatalf("after the view is released: %v", err)
			}
		})
	}
}
