package ccift_test

// The two performance gates that are counters, not timings: store reads
// per recovery as the world grows, and bytes copied per checkpoint at a
// fixed dirty fraction. Both are functions of the code and the scenario,
// not of the machine, so they are ordinary tests with absolute bounds.
// Everything that is a timing is bench/'s business.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ccift"
	"ccift/internal/engine"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// countingStable counts Get calls — the store reads recovery performs.
// Has is forwarded to the inner store's fast probe so the chunk writer's
// dedup probes during forward execution don't inflate the read count.
type countingStable struct {
	storage.Stable
	gets atomic.Int64
}

func (c *countingStable) Get(key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Stable.Get(key)
}

func (c *countingStable) Has(key string) (bool, error) {
	return storage.Has(c.Stable, key)
}

// recoveryIters sizes the stencil per world so the program is still
// running well past the crash in virtual time: collectives deepen with
// the world, so bigger worlds need fewer iterations.
func recoveryIters(world int) int {
	switch {
	case world <= 8:
		return 60
	case world <= 64:
		return 40
	default:
		return 20
	}
}

// runCountingReads launches the stencil on the simulated substrate with
// the given crash schedule and returns the result and the number of store
// Gets the whole run made.
func runCountingReads(t *testing.T, world int, crashes []ccift.Crash) (*ccift.Result, int64) {
	t.Helper()
	cs := &countingStable{Stable: storage.NewMemory()}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(world), ccift.WithMode(ccift.Full), ccift.WithEveryN(2),
		ccift.WithStore(cs),
		ccift.WithSimulated(ccift.Scenario{
			Seed: 4242, Latency: time.Millisecond,
			DetectorTimeout: 25 * time.Millisecond,
			Crashes:         crashes,
		}),
	), stencil(recoveryIters(world), 8))
	if err != nil {
		t.Fatalf("world=%d crashes=%v: %v", world, len(crashes), err)
	}
	return res, cs.gets.Load()
}

// TestRecoveryStoreReadsLinearInRanks: what a death costs the store must
// grow with the world, not with its square. Localized recovery's contract
// is that the supervisor's gather reads O(world) sidecars once, survivors
// restore from their in-memory retained copies (no store reads), and only
// the dead rank's replacement re-reads state; a return to every rank
// scanning every rank's metadata is O(world²) and breaks the bound at 64
// ranks already. Reads per recovery are the faulted run's Gets minus the
// fault-free run's of the same shape (re-executed iterations re-prune, so
// a few reads per rank ride along).
func TestRecoveryStoreReadsLinearInRanks(t *testing.T) {
	// (The 1000-rank world is TestSimulated1000RankWorld, which bounds the
	// reads of its whole run: a second thousand-rank run for the baseline
	// would double the suite's longest test.)
	worlds := []int{8, 64, 256}
	if testing.Short() {
		worlds = worlds[:2]
	}
	for _, world := range worlds {
		t.Run(fmt.Sprint(world), func(t *testing.T) {
			// At 100 ms an epoch has committed at every world size.
			_, base := runCountingReads(t, world, nil)
			res, gets := runCountingReads(t, world, []ccift.Crash{{Rank: 1, At: 100 * time.Millisecond}})
			if res.Restarts != 1 || res.RecoveredEpochs[0] < 1 {
				t.Fatalf("%d restarts from %v, want one rollback to a committed epoch", res.Restarts, res.RecoveredEpochs)
			}
			retained := 0
			for _, s := range res.Stats {
				if s.RecoveredFromRetained > 0 {
					retained++
				}
			}
			if retained != world-1 {
				t.Fatalf("%d retained restores, want every survivor (%d)", retained, world-1)
			}
			reads := gets - base
			// Measured 15 / 71 / 519, the same on every run (the simulated
			// substrate decides them): the bound leaves room for one more
			// read per rank, not for a second scan.
			if bound := int64(3*world + 32); reads < int64(world) || reads > bound {
				t.Fatalf("%d store reads for one recovery of a %d-rank world, want between %d (a sidecar per rank) and %d", reads, world, world, bound)
			}
			t.Logf("world=%d: %d store reads per recovery (%.2f per rank)", world, reads, float64(reads)/float64(world))
		})
	}
}

// TestIncrementalCopyVolumeAtTenPercentDirty: with a tenth of a 4 MB state
// rewritten between checkpoints, an incremental freeze must copy far less
// than the state — the first checkpoint copies everything (there is no
// previous frozen epoch to share), the other fifteen their dirty pages —
// on both layouts dirty tracking knows: heap blocks of one page each, and
// one registered grid tracked page by page through TouchRange. The volume
// is the sharing arithmetic, not the machine: (64 + 15·6) / 16 pages, 15 %
// of the state, whatever the flusher's pace (the programs spin, servicing
// the protocol, until each epoch's checkpoint is taken; which pages an
// epoch dirties depends on the epoch alone).
func TestIncrementalCopyVolumeAtTenPercentDirty(t *testing.T) {
	const (
		pageBytes  = 64 << 10
		pages      = 64
		dirtyPages = pages / 10
		ckpts      = 16
	)
	heapProg := func(r *engine.Rank) (any, error) {
		var it int
		r.Register("it", &it)
		h := r.Heap()
		ids := make([]int, 0, pages)
		for i := 0; i < pages; i++ {
			blk := h.Alloc(pageBytes)
			for j := range blk.Data {
				blk.Data[j] = byte(i*31 + j)
			}
			ids = append(ids, blk.ID)
		}
		for ; r.Epoch() < ckpts; it++ {
			start := r.Epoch() * 7919
			for p := 0; p < dirtyPages; p++ {
				id := ids[(start+p)%pages]
				h.Lookup(id).Data[it%pageBytes]++
				h.Touch(id)
			}
			r.PotentialCheckpoint()
		}
		return nil, nil
	}
	const elemsPerPage = pageBytes / 8
	gridProg := func(r *engine.Rank) (any, error) {
		var it int
		grid := make([]float64, pages*elemsPerPage)
		for i := range grid {
			grid[i] = float64(i)
		}
		r.Register("it", &it)
		r.Register("grid", &grid)
		for ; r.Epoch() < ckpts; it++ {
			start := r.Epoch() * 7919
			for p := 0; p < dirtyPages; p++ {
				off := ((start + p) % pages) * elemsPerPage
				grid[off+it%elemsPerPage]++
				r.TouchRange("grid", off, elemsPerPage)
			}
			r.PotentialCheckpoint()
		}
		return nil, nil
	}
	for name, prog := range map[string]engine.Program{"heap-blocks": heapProg, "paged-grid": gridProg} {
		t.Run(name, func(t *testing.T) {
			copied := map[bool]int64{}
			for _, full := range []bool{true, false} {
				res, err := engine.Run(engine.Config{
					Ranks: 1, Mode: protocol.Full, EveryN: 1, Policy: protocol.Policy{FullFreeze: full},
				}, prog)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Stats[0].CheckpointsTaken; got != ckpts {
					t.Fatalf("%d checkpoints taken, want %d", got, ckpts)
				}
				copied[full] = res.Stats[0].CheckpointBytesCopied / ckpts
			}
			const state = pages * pageBytes
			if copied[true] < state {
				t.Fatalf("a full freeze copied %d B per checkpoint of a %d B state", copied[true], state)
			}
			if lo, hi := int64(state/10), int64(state/5); copied[false] < lo || copied[false] > hi {
				t.Fatalf("an incremental freeze copied %d B per checkpoint at 10%% dirty, want between %d and %d (full: %d)", copied[false], lo, hi, copied[true])
			}
		})
	}
}
