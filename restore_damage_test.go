package ccift_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccift"
	"ccift/internal/storage"
)

// damagingStore hands back one chunk of a large value damaged: the first
// chunk read at a whole DefaultChunkSize, which only the payload of a large
// []float64 or []byte fills, comes back missing, a byte short, or with one
// bit flipped ("" reads it intact). It records the chunk's key. A chunk is
// read only by a replacement's restore.
type damagingStore struct {
	ccift.Stable
	damage string

	mu  sync.Mutex
	key string
}

func (d *damagingStore) Has(key string) (bool, error) { return storage.Has(d.Stable, key) }

func (d *damagingStore) Get(key string) ([]byte, error) {
	b, err := d.Stable.Get(key)
	if err != nil || !strings.Contains(key, "/chunks/") || len(b) != storage.DefaultChunkSize {
		return b, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.key != "" && d.key != key {
		return b, nil
	}
	d.key = key
	switch d.damage {
	case "missing":
		return nil, fmt.Errorf("%w: %s", storage.ErrNotFound, key)
	case "truncated":
		return b[:len(b)-1], nil
	case "bit-flipped":
		b = bytes.Clone(b)
		b[len(b)/2] ^= 1
		return b, nil
	}
	return b, nil
}

// gridProg keeps a grid of three chunks' worth of floats, of which every
// iteration rewrites one element, and agrees on its sum with the other rank.
func gridProg(r *ccift.Rank) (any, error) {
	grid := make([]float64, 3*storage.DefaultChunkSize/8)
	it := 0
	r.Register("it", &it)
	r.Register("grid", &grid)
	for ; it < 40; it++ {
		r.PotentialCheckpoint()
		grid[it*997%len(grid)] += float64(it + r.Rank())
		r.TouchRange("grid", it*997%len(grid), 1)
		r.AllreduceF64([]float64{grid[it]}, ccift.SumF64)
	}
	sum := 0.0
	for _, x := range grid {
		sum += x
	}
	return sum, nil
}

// TestDamagedChunkEndsTheRunAsAStoreFailure: a replacement reads a large
// value's chunks straight into the variable when the program registers it,
// so a chunk that is missing, short or corrupt is found inside
// Rank.Register. The run must still end with exactly one ErrStore naming
// the chunk — not ErrProgram, the category of a panic in a registration —
// on the in-process substrate and on the simulator. The intact row shows
// the kill lands after a commit, so the replacement does read the chunk.
func TestDamagedChunkEndsTheRunAsAStoreFailure(t *testing.T) {
	for _, sub := range []struct {
		name string
		opts []ccift.Option
	}{
		// Blocking checkpoints: the kill, late in the run, follows a commit.
		{"in-process", []ccift.Option{ccift.WithAsyncCheckpoint(false), ccift.WithFailures(ccift.Failure{Rank: 1, AtOp: 60})}},
		{"simulated", []ccift.Option{ccift.WithSimulated(ccift.Scenario{Seed: 7, Latency: time.Millisecond}), ccift.WithFailures(ccift.Failure{Rank: 1, AtOp: 60})}},
	} {
		for _, damage := range []string{"", "missing", "truncated", "bit-flipped"} {
			t.Run(sub.name+"/"+damage, func(t *testing.T) {
				store := &damagingStore{Stable: ccift.NewMemoryStore(), damage: damage}
				opts := append([]ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(5), ccift.WithStore(store)}, sub.opts...)
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				res, err := ccift.Launch(ctx, ccift.NewSpec(opts...), gridProg)
				if store.key == "" {
					t.Fatalf("no chunk of the grid was read (err %v): the kill did not follow a commit", err)
				}
				if damage == "" {
					if err != nil {
						t.Fatalf("intact store: %v", err)
					}
					if res.Restarts != 1 {
						t.Fatalf("intact store: %d restarts for one kill", res.Restarts)
					}
					return
				}
				assertExactlyOne(t, err, ccift.ErrStore)
				if !strings.Contains(err.Error(), store.key) {
					t.Fatalf("err %q does not name the damaged chunk %s", err, store.key)
				}
			})
		}
	}
}

// tornCommitStore hands back every commit record that exists three bytes
// long, a torn record, and counts the records it tore. The commit record is
// read only when a rollback begins.
type tornCommitStore struct {
	ccift.Stable
	torn atomic.Int32
}

func (s *tornCommitStore) Get(key string) ([]byte, error) {
	b, err := s.Stable.Get(key)
	if err == nil && strings.HasSuffix(key, "/COMMIT") {
		s.torn.Add(1)
		return b[:3], nil
	}
	return b, err
}

// TestTornCommitRecordIsOneStoreFailure: a commit record read after a kill
// that is 3 bytes long ends the run with exactly one ErrStore whose message
// names the category once: the storage layer already gave the error its
// category, and the supervisor only adds what it was reading.
func TestTornCommitRecordIsOneStoreFailure(t *testing.T) {
	store := &tornCommitStore{Stable: ccift.NewMemoryStore()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := ccift.Launch(ctx, ccift.NewSpec(ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(5), ccift.WithStore(store),
		ccift.WithSimulated(ccift.Scenario{Seed: 7, Latency: time.Millisecond}), ccift.WithFailures(ccift.Failure{Rank: 1, AtOp: 60})), gridProg)
	if store.torn.Load() == 0 {
		t.Fatalf("no commit record was read after the kill (err %v): the kill did not follow a commit", err)
	}
	assertExactlyOne(t, err, ccift.ErrStore)
	if !strings.Contains(err.Error(), "commit record is 3 bytes") {
		t.Fatalf("err %q does not say the commit record is torn", err)
	}
	if n := strings.Count(err.Error(), ccift.ErrStore.Error()); n != 1 {
		t.Fatalf("err %q names its category %d times, want once", err, n)
	}
}
