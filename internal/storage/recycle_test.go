package storage

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"testing"
)

// A finished ChunkedWriter hands its chunk buffers back to a free list the
// next writer fills, and this package's tests run with every returned buffer
// poisoned (PoisonReleasedChunks): a store that kept a view of what Put gave
// it, rather than a copy, holds poison by the time anything reads it.

func TestMain(m *testing.M) {
	PoisonReleasedChunks()
	os.Exit(m.Run())
}

// viewKeeper is the store the rule forbids: Put keeps the caller's slice.
type viewKeeper struct{ *Memory }

func (v viewKeeper) Put(key string, data []byte) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.blobs[key] = data
	return nil
}

// writeAndReread streams a blob of several full chunks — both of a writer's
// buffers, the hash worker's included, carry chunks — then a second one
// through a writer that reuses the first one's buffers, and reads both back.
func writeAndReread(t *testing.T, s Stable) error {
	t.Helper()
	blobs := [][]byte{streamOf(6), streamOf(9)}
	for i, data := range blobs {
		w := NewChunkedWriter(context.Background(), s, string(rune('a'+i)), testChunk)
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i, data := range blobs {
		man, err := s.Get(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		back, err := Assemble(s, man)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("blob %d reads back different bytes with no error", i)
		}
	}
	return nil
}

// TestPoisonCatchesAStoreThatKeepsAView: the seam works — a store that
// aliases the writer's buffers fails its read-back.
func TestPoisonCatchesAStoreThatKeepsAView(t *testing.T) {
	if err := writeAndReread(t, viewKeeper{NewMemory()}); err == nil {
		t.Fatal("a store that keeps the writer's buffers read back intact chunks: the released buffers were not poisoned")
	}
}

// TestEveryStableCopiesOnPut: every in-tree store copies what Put hands it,
// so the writer may reuse its buffers the moment a Put returns.
func TestEveryStableCopiesOnPut(t *testing.T) {
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	throttledDisk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Stable{
		"memory":           NewMemory(),
		"disk":             disk,
		"throttled-memory": NewThrottled(NewMemory(), 1e12),
		"throttled-disk":   NewThrottled(throttledDisk, 1e12),
	} {
		t.Run(name, func(t *testing.T) {
			if err := writeAndReread(t, s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFinishedWriterRefusesEveryCall: once its buffers are back on the free
// list a writer stores nothing more — Write, Cut and Commit all fail.
func TestFinishedWriterRefusesEveryCall(t *testing.T) {
	m := NewMemory()
	w := NewChunkedWriter(context.Background(), m, "blob", testChunk)
	data := make([]byte, 3*testChunk)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if _, err := w.Write(data); !errors.Is(err, errFinished) {
		t.Fatalf("Write after Abort: %v", err)
	}
	if err := w.Cut(); !errors.Is(err, errFinished) {
		t.Fatalf("Cut after Abort: %v", err)
	}
	if _, _, err := w.Commit(); !errors.Is(err, errFinished) {
		t.Fatalf("Commit after Abort: %v", err)
	}
	if ok, _ := m.Has("blob"); ok {
		t.Fatal("an aborted writer published a manifest")
	}
}
