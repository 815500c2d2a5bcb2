package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func writeChunked(t *testing.T, s Stable, key string, data []byte, chunkSize int) (total, written int64) {
	t.Helper()
	w := NewChunkedWriter(context.Background(), s, key, chunkSize)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	total, written, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return total, written
}

func TestChunkedRoundTrip(t *testing.T) {
	m := NewMemory()
	cs := NewCheckpointStore(m)
	data := make([]byte, 300_000) // ~3 chunks at 128 KB plus a partial
	rand.New(rand.NewSource(1)).Read(data)

	w := cs.StateWriter(context.Background(), 1, 0, 128<<10)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	total, written, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if total != int64(len(data)) {
		t.Fatalf("total = %d, want %d", total, len(data))
	}
	if written < total {
		t.Fatalf("first write should store every byte: written=%d total=%d", written, total)
	}
	got, err := cs.GetState(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reassembled state differs from the original")
	}
}

// TestChunkedDedupAcrossEpochs pins the incremental-checkpoint property:
// a repeat blob with a small dirty region re-writes only the dirty chunks.
func TestChunkedDedupAcrossEpochs(t *testing.T) {
	m := NewMemory()
	cs := NewCheckpointStore(m)
	const chunk = 32 << 10
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(2)).Read(data)

	_, w1 := writeChunked(t, m, StateKey(1, 0), data, chunk)
	// Dirty ~3% of the blob, aligned nowhere in particular.
	for i := 100_000; i < 130_000; i++ {
		data[i] ^= 0xA5
	}
	_, w2 := writeChunked(t, m, StateKey(2, 0), data, chunk)
	if w2 >= w1/2 {
		t.Fatalf("repeat write stored %d bytes vs first %d; dedup should cut it below half", w2, w1)
	}
	// Both epochs still reassemble.
	if _, err := cs.GetState(1, 0); err != nil {
		t.Fatal(err)
	}
	got, err := cs.GetState(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("epoch-2 state differs")
	}
}

func TestChunkedCutBoundaries(t *testing.T) {
	m := NewMemory()
	w := NewChunkedWriter(context.Background(), m, "blob", 1<<20)
	a := bytes.Repeat([]byte{1}, 1000)
	b := bytes.Repeat([]byte{2}, 2000)
	if _, err := w.Write(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Cut(); err != nil {
		t.Fatal(err)
	}
	if err := w.Cut(); err != nil { // empty cut is a no-op, not an empty chunk
		t.Fatal(err)
	}
	if _, err := w.Write(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	man, err := m.Get("blob")
	if err != nil {
		t.Fatal(err)
	}
	refs, err := ParseManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Len != 1000 || refs[1].Len != 2000 {
		t.Fatalf("refs = %+v, want two chunks of 1000 and 2000 bytes", refs)
	}
	got, err := Assemble(m, man)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), a...), b...)) {
		t.Fatal("assembled bytes differ")
	}
}

func TestAssembleDetectsCorruptChunk(t *testing.T) {
	m := NewMemory()
	data := bytes.Repeat([]byte("x"), 10_000)
	writeChunked(t, m, "blob", data, 4096)
	man, _ := m.Get("blob")
	refs, _ := ParseManifest(man)
	// Corrupt one chunk in place.
	if err := m.Put(refs[1].Key(), []byte(bytes.Repeat([]byte("y"), int(refs[1].Len)))); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(m, man); err == nil {
		t.Fatal("assembling over a corrupt chunk must fail loudly")
	}
	// And a missing chunk too.
	if err := m.Delete(refs[0].Key()); err != nil {
		t.Fatal(err)
	}
	if _, err := Assemble(m, man); err == nil {
		t.Fatal("assembling with a missing chunk must fail loudly")
	}
}

func TestChunkedWriterCancellation(t *testing.T) {
	m := NewMemory()
	ctx, cancel := context.WithCancel(context.Background())
	w := NewChunkedWriter(ctx, m, "blob", 1024)
	if _, err := w.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := w.Write(make([]byte, 4096)); err == nil {
		t.Fatal("write after cancellation should fail")
	}
	if _, _, err := w.Commit(); err == nil {
		t.Fatal("commit after cancellation should fail")
	}
	if ok, _ := m.Has("blob"); ok {
		t.Fatal("canceled writer must not publish a manifest")
	}
}

func TestPrune(t *testing.T) {
	for _, backend := range []struct {
		name string
		s    func(t *testing.T) Stable
	}{
		{"memory", func(t *testing.T) Stable { return NewMemory() }},
		{"disk", func(t *testing.T) Stable {
			d, err := NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			s := backend.s(t)
			cs := NewCheckpointStore(s)
			shared := bytes.Repeat([]byte("s"), 64<<10) // identical across epochs: dedups
			uniq := func(e int) []byte {
				b := bytes.Repeat([]byte{byte(e)}, 64<<10)
				return b
			}
			for epoch := 1; epoch <= 3; epoch++ {
				for rank := 0; rank < 2; rank++ {
					w := cs.StateWriter(context.Background(), epoch, rank, 16<<10)
					w.Write(shared)
					w.Cut()
					w.Write(uniq(epoch))
					if _, _, err := w.Commit(); err != nil {
						t.Fatal(err)
					}
					if err := cs.PutLog(epoch, rank, []byte("log")); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := cs.Commit(3); err != nil {
				t.Fatal(err)
			}
			if err := cs.Prune(3); err != nil {
				t.Fatal(err)
			}
			// Epochs 1 and 2 are gone; epoch 3 and the commit record remain.
			for epoch := 1; epoch <= 2; epoch++ {
				for rank := 0; rank < 2; rank++ {
					if _, err := cs.GetState(epoch, rank); err == nil {
						t.Fatalf("epoch %d state survived pruning", epoch)
					}
					if _, err := cs.GetLog(epoch, rank); err == nil {
						t.Fatalf("epoch %d log survived pruning", epoch)
					}
				}
			}
			for rank := 0; rank < 2; rank++ {
				got, err := cs.GetState(3, rank)
				if err != nil {
					t.Fatalf("kept epoch unreadable after prune: %v", err)
				}
				want := append(append([]byte(nil), shared...), uniq(3)...)
				if !bytes.Equal(got, want) {
					t.Fatal("kept epoch reassembles wrong bytes — a referenced chunk was swept")
				}
			}
			if e, ok, err := cs.Committed(); err != nil || !ok || e != 3 {
				t.Fatalf("commit record after prune: %d %v %v", e, ok, err)
			}
			// Orphan sweep actually ran: only chunks referenced by epoch 3
			// remain (shared run + epoch-3 unique run).
			chunks, err := s.List("ckpt/chunks/")
			if err != nil {
				t.Fatal(err)
			}
			refs := map[string]bool{}
			for rank := 0; rank < 2; rank++ {
				man, err := s.Get(StateKey(3, rank))
				if err != nil {
					t.Fatal(err)
				}
				rs, err := ParseManifest(man)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rs {
					refs[r.Key()] = true
				}
			}
			if len(chunks) != len(refs) {
				t.Fatalf("%d chunks remain, epoch 3 references %d — orphans were not swept", len(chunks), len(refs))
			}
		})
	}
}

// TestPruneConcurrentWithNewEpochWrites exercises the sharing discipline
// the protocol relies on: pruning below epoch e while other writers stream
// epoch >= e state must never delete a chunk those writers reference.
// (The protocol serializes prune against writes, but the store must stay
// coherent even under overlap — e.g. a slow prune racing the next round.)
func TestPruneConcurrentWithNewEpochWrites(t *testing.T) {
	m := NewMemory()
	cs := NewCheckpointStore(m)
	base := bytes.Repeat([]byte("base"), 32<<10)

	// Epoch 1: the baseline everyone dedups against.
	for rank := 0; rank < 4; rank++ {
		w := cs.StateWriter(context.Background(), 1, rank, 16<<10)
		w.Write(base)
		if _, _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Commit(1); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for rank := 0; rank < 4; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w := cs.StateWriter(context.Background(), 2, rank, 16<<10)
			if _, err := w.Write(base); err != nil { // dedups against epoch 1's chunks
				errs <- err
				return
			}
			if _, _, err := w.Commit(); err != nil {
				errs <- err
			}
		}(rank)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := cs.Prune(1); err != nil { // keeps epoch 1, sweeps orphans
			errs <- fmt.Errorf("prune: %w", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every epoch-2 manifest must reassemble: epoch 1 was kept, so every
	// chunk it deduped against survived the sweep.
	for rank := 0; rank < 4; rank++ {
		got, err := cs.GetState(2, rank)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, base) {
			t.Fatal("epoch-2 state corrupted by concurrent prune")
		}
	}
}

// classify is the inverse of the key constructors and of nothing else in
// the store: every kind of key lands in exactly one class.
func TestClassifyInvertsTheKeyConstructors(t *testing.T) {
	for kind, key := range map[BlobKind]string{
		StateBlob: StateKey(12, 3),
		LogBlob:   LogKey(12, 3),
		MetaBlob:  MetaKey(12, 3),
	} {
		e := classify(key)
		if e.Class != RankBlob || e.Epoch != 12 || e.Rank != 3 || e.Kind != kind || e.Key != key {
			t.Errorf("classify(%q) = %+v", key, e)
		}
	}
	ref := ChunkRef{Sum: sha256.Sum256([]byte("c")), Len: 1}
	for key, want := range map[string]Entry{
		commitKey:                       {Class: CommitRecord},
		ref.Key():                       {Class: Chunk, Name: ref.Hex()},
		"ckpt/00000012/other.0003":      {Class: EpochFile, Epoch: 12, Name: "other.0003"},
		"ckpt/00000012/state.x":         {Class: EpochFile, Epoch: 12, Name: "state.x"},
		"ckpt/00000012/state":           {Class: EpochFile, Epoch: 12, Name: "state"},
		"ckpt/blob":                     {Class: Foreign},
		"ckpt/0000001x/state.0003":      {Class: Foreign},
		"elsewhere/00000012/state.0003": {Class: Foreign},
	} {
		want.Key = key
		if got := classify(key); got != want {
			t.Errorf("classify(%q) = %+v, want %+v", key, got, want)
		}
	}
}
