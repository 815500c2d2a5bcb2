package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ccift/internal/cerr"
)

// writeEpochs stores `epochs` global checkpoints of `ranks` ranks the way
// the runtime does — chunked state, log, sidecar — and commits the last.
func writeEpochs(t *testing.T, cs *CheckpointStore, epochs, ranks int) {
	t.Helper()
	for epoch := 1; epoch <= epochs; epoch++ {
		for rank := 0; rank < ranks; rank++ {
			w := cs.StateWriter(context.Background(), epoch, rank, 1<<10)
			w.Write(bytes.Repeat([]byte("s"), 1<<10)) // one chunk, deduped across epochs and ranks
			w.Cut()
			w.Write(bytes.Repeat([]byte{byte(epoch), byte(rank)}, 350)) // one chunk of this rank's and epoch's own
			if _, _, err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := cs.PutLog(epoch, rank, []byte("log")); err != nil {
				t.Fatal(err)
			}
			if err := cs.PutMeta(epoch, rank, []byte("meta")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cs.Commit(epochs); err != nil {
		t.Fatal(err)
	}
}

// countingStable records every call it forwards.
type countingStable struct {
	Stable
	calls []string
}

func (c *countingStable) Put(key string, data []byte) error {
	c.calls = append(c.calls, "Put "+key)
	return c.Stable.Put(key, data)
}

func (c *countingStable) Get(key string) ([]byte, error) {
	c.calls = append(c.calls, "Get "+key)
	return c.Stable.Get(key)
}

func (c *countingStable) Delete(key string) error {
	c.calls = append(c.calls, "Delete "+key)
	return c.Stable.Delete(key)
}

func (c *countingStable) List(prefix string) ([]string, error) {
	c.calls = append(c.calls, "List "+prefix)
	return c.Stable.List(prefix)
}

// TestPruneKeysReadsOnlyTheManifestsItKeeps is the guard on the shared walk:
// the prune runs on the initiator after every commit, so it may cost one
// List and one Get per state manifest of an epoch it keeps — no chunk, log,
// sidecar or commit-record read, and nothing of the epochs it deletes.
func TestPruneKeysReadsOnlyTheManifestsItKeeps(t *testing.T) {
	const epochs, ranks, keep = 4, 3, 3
	mem := NewMemory()
	writeEpochs(t, NewCheckpointStore(mem), epochs, ranks)
	counted := &countingStable{Stable: mem}
	doomed, err := NewCheckpointStore(counted).PruneKeys(keep)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"List " + layoutRoot}
	for epoch := keep; epoch <= epochs; epoch++ {
		for rank := 0; rank < ranks; rank++ {
			want = append(want, "Get "+StateKey(epoch, rank))
		}
	}
	if !reflect.DeepEqual(counted.calls, want) {
		t.Fatalf("PruneKeys(%d) issued\n  %v\nwant\n  %v", keep, counted.calls, want)
	}
	// Epochs 1 and 2 whole (3 blobs a rank) and the chunk each of their
	// ranks wrote that no kept manifest references.
	if want := 2*ranks*3 + 2*ranks; len(doomed) != want {
		t.Fatalf("%d doomed keys, want %d: %v", len(doomed), want, doomed)
	}
	for _, e := range doomed {
		if e.Class != Chunk && e.Epoch >= keep {
			t.Fatalf("doomed %+v belongs to a kept epoch", e)
		}
	}
}

// TestWalkClassifiesEveryKeyOnce: one List, no Get, every key of the
// layout in exactly one class.
func TestWalkClassifiesEveryKeyOnce(t *testing.T) {
	mem := NewMemory()
	writeEpochs(t, NewCheckpointStore(mem), 2, 2)
	mem.Put("ckpt/00000001/note", []byte("x"))
	mem.Put("ckpt/stray", []byte("x"))
	mem.Put("elsewhere/key", []byte("x"))
	counted := &countingStable{Stable: mem}
	entries, err := NewCheckpointStore(counted).Walk()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counted.calls, []string{"List " + layoutRoot}) {
		t.Fatalf("Walk issued %v", counted.calls)
	}
	byClass := map[Class]int{}
	for _, e := range entries {
		byClass[e.Class]++
	}
	// 2 epochs x 2 ranks x 3 blobs; the shared chunk + 4 own; the rest one each.
	want := map[Class]int{RankBlob: 12, Chunk: 5, CommitRecord: 1, EpochFile: 1, Foreign: 1}
	if !reflect.DeepEqual(byClass, want) {
		t.Fatalf("classes %v, want %v", byClass, want)
	}
}

// TestStateKeyHoldsOnlyManifests: PutState writes what StateWriter writes,
// GetState reads it back, and a state key holding anything else is a
// corrupt store for every reader.
func TestStateKeyHoldsOnlyManifests(t *testing.T) {
	mem := NewMemory()
	cs := NewCheckpointStore(mem)
	for i, state := range [][]byte{nil, []byte("small"), bytes.Repeat([]byte("big"), DefaultChunkSize)} {
		if err := cs.PutState(1, i, state); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseManifest(mustGet(t, mem, StateKey(1, i))); err != nil {
			t.Fatalf("PutState of %d bytes did not store a manifest: %v", len(state), err)
		}
		got, err := cs.GetState(1, i)
		if err != nil || !bytes.Equal(got, state) {
			t.Fatalf("GetState returned %d bytes, err %v; want the %d put", len(got), err, len(state))
		}
	}
	key := StateKey(2, 0)
	mem.Put(key, []byte("raw bytes, as the inline format stored them"))
	if _, err := cs.GetState(2, 0); !errors.Is(err, cerr.ErrStore) || !strings.Contains(err.Error(), key) {
		t.Fatalf("GetState of a non-manifest: %v; want ErrStore naming %s", err, key)
	}
	if _, ok, err := cs.Refs(key); ok || !errors.Is(err, cerr.ErrStore) {
		t.Fatalf("Refs of a non-manifest: ok=%v err=%v; want ErrStore", ok, err)
	}
	if _, err := cs.PruneKeys(1); !errors.Is(err, cerr.ErrStore) || !strings.Contains(err.Error(), key) {
		t.Fatalf("PruneKeys over a non-manifest state key it keeps: %v; want ErrStore naming %s", err, key)
	}
	if _, err := cs.PruneKeys(3); err != nil {
		t.Fatalf("PruneKeys deleting the epoch of a non-manifest state key read it: %v", err)
	}
	if _, ok, err := cs.Refs(StateKey(9, 9)); ok || err != nil {
		t.Fatalf("Refs of a vanished key: ok=%v err=%v; want a skip", ok, err)
	}
}

func mustGet(t *testing.T, s Stable, key string) []byte {
	t.Helper()
	b, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDiskPruneGivesBackEpochDirectories: a pruned epoch leaves no
// directory behind, a temp file a killed writer orphaned in it goes with
// it, and the two directories ranks create files in concurrently stay.
func TestDiskPruneGivesBackEpochDirectories(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCheckpointStore(d)
	const epochs, keep = 4, 4
	writeEpochs(t, cs, epochs, 2)
	orphan := filepath.Join(root, LayoutDir, "00000002", tmpPrefix+"state.0000-x")
	if err := os.WriteFile(orphan, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cs.Prune(keep); err != nil {
		t.Fatal(err)
	}
	if got, want := subdirs(t, filepath.Join(root, LayoutDir)), []string{fmt.Sprintf("%08d", keep), "chunks"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("directories under %s after Prune(%d): %v, want %v", LayoutDir, keep, got, want)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphaned temp file survived its epoch's prune: %v", err)
	}
	for rank := 0; rank < 2; rank++ {
		if _, err := cs.GetState(keep, rank); err != nil {
			t.Fatalf("kept epoch after prune: %v", err)
		}
	}

	// Emptied of every chunk, ckpt/chunks/ stays: it is not an epoch's.
	doomed, err := cs.PruneKeys(keep + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range doomed {
		if err := d.Delete(e.Key); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := subdirs(t, filepath.Join(root, LayoutDir)), []string{"chunks"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("directories after deleting every epoch and chunk: %v, want %v", got, want)
	}
	if err := cs.PutState(keep+1, 0, []byte("a fresh epoch")); err != nil {
		t.Fatalf("Put into a fresh epoch after the prune: %v", err)
	}
	if got, err := cs.GetState(keep+1, 0); err != nil || string(got) != "a fresh epoch" {
		t.Fatalf("fresh epoch reads back %q, %v", got, err)
	}

	// A directory that still holds a published key is left alone, temp
	// file and all: the key's writer may have neighbours.
	if err := os.WriteFile(filepath.Join(root, LayoutDir, fmt.Sprintf("%08d", keep+1), tmpPrefix+"log.0000-y"), nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cs.PutLog(keep+1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(LogKey(keep+1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := subdirs(t, filepath.Join(root, LayoutDir)); len(got) != 2 {
		t.Fatalf("a directory with a published key left was reclaimed: %v", got)
	}
}

func subdirs(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}
