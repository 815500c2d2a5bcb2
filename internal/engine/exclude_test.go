package engine

import (
	"slices"
	"testing"

	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// TestReplicatedDataIsStoredOnce: Section 7's distributed redundant data —
// a value every rank holds identically — needs no registration kind of its
// own. Each rank Registers its copy of a 1 MB table; every rank's manifest
// names the same chunks for it, and the content-addressed store holds those
// chunks, and so the table, once.
func TestReplicatedDataIsStoredOnce(t *testing.T) {
	const ranks, tableLen = 4, 1 << 17
	prog := func(r *Rank) (any, error) {
		var it int
		table := make([]float64, tableLen) // identical on every rank
		for i := range table {
			table[i] = float64(i%97) + 0.5
		}
		r.Register("it", &it)
		r.Register("table", &table)
		for ; it < 8; it++ {
			r.PotentialCheckpoint()
			r.Barrier()
		}
		return nil, nil
	}
	mem := storage.NewMemory()
	if _, err := Run(Config{Ranks: ranks, Mode: protocol.Full, EveryN: 3, Store: mem}, prog); err != nil {
		t.Fatal(err)
	}
	cs := storage.NewCheckpointStore(mem)
	epoch, ok, err := cs.Committed()
	if err != nil || !ok {
		t.Fatalf("no committed checkpoint (%v)", err)
	}
	// The table's payload fills whole chunks of its own at the end of the
	// state object, behind the head.
	var table []string
	for r := 0; r < ranks; r++ {
		refs, ok, err := cs.Refs(storage.StateKey(epoch, r))
		if err != nil || !ok {
			t.Fatalf("rank %d: state manifest of epoch %d: %v", r, epoch, err)
		}
		var keys []string
		for n := int64(0); n < 8*tableLen && len(refs) > 0; refs = refs[:len(refs)-1] {
			n += refs[len(refs)-1].Len
			keys = append(keys, refs[len(refs)-1].Key())
		}
		if r == 0 {
			table = keys
		} else if !slices.Equal(keys, table) {
			t.Fatalf("rank %d names the table's chunks %v, rank 0 %v", r, keys, table)
		}
	}
	entries, err := cs.Walk()
	if err != nil {
		t.Fatal(err)
	}
	held, stored := map[string]int{}, 0
	for _, e := range entries {
		if e.Class != storage.Chunk {
			continue
		}
		blob, ok, err := cs.Read(e.Key)
		if err != nil || !ok {
			t.Fatalf("chunk %s: %v", e.Key, err)
		}
		held[e.Key]++
		stored += len(blob)
	}
	for _, k := range table {
		if held[k] != 1 {
			t.Fatalf("the store holds the table's chunk %s %d times, want once", k, held[k])
		}
	}
	t.Logf("epoch %d: the table is %d chunks; the store holds %d chunk bytes for %d ranks' copies of %d bytes", epoch, len(table), stored, ranks, 8*tableLen)
	// Besides the one table, only the ranks' heads: a few hundred bytes each.
	if stored >= 8*tableLen+ranks*4096 {
		t.Fatalf("the store holds %d chunk bytes, want one %d-byte table and the heads", stored, 8*tableLen)
	}
}

// TestComputedRecomputeRunsOncePerRestart guards against the recompute
// function being invoked during failure-free runs.
func TestComputedRecomputeOnlyOnRestart(t *testing.T) {
	// The kill must follow the first commit, so that the restart is a
	// restore — the only place a recomputation belongs. Two ranks run
	// simulated (barriers take virtual time). A one-rank world never parks,
	// so no virtual time can pass inside it; with the inline write it has no
	// concurrency at all, and the op count alone places the kill.
	for _, ranks := range []int{1, 2} {
		place := func(cfg Config) Config {
			if ranks == 1 {
				cfg.Sync = true
				return cfg
			}
			return onSim(t, cfg)
		}
		var recomputes int
		prog := func(r *Rank) (any, error) {
			var it int
			data := make([]float64, 64)
			r.Register("it", &it)
			r.RegisterComputed("data", &data, func() error {
				if r.Rank() == 0 {
					recomputes++
				}
				for i := range data {
					data[i] = float64(i)
				}
				return nil
			})
			if !r.Restarting() {
				for i := range data {
					data[i] = float64(i)
				}
			}
			for ; it < 12; it++ {
				r.PotentialCheckpoint()
				r.Barrier()
			}
			return data[63], nil
		}
		if _, err := Run(place(Config{Ranks: ranks, Mode: protocol.Full, EveryN: 3}), prog); err != nil {
			t.Fatal(err)
		}
		if recomputes != 0 {
			t.Fatalf("%d ranks: recompute ran %d times in a failure-free run", ranks, recomputes)
		}
		res, err := Run(place(Config{
			Ranks: ranks, Mode: protocol.Full, EveryN: 3, Debug: true,
			Failures: []Failure{{Rank: 0, AtOp: int64(30 * ranks), Incarnation: 0}},
		}), prog)
		if err != nil {
			t.Fatal(err)
		}
		if res.Restarts != 1 || res.RecoveredEpochs[0] < 1 {
			t.Fatalf("%d ranks: restarts=%d epochs=%v, want one restart from a checkpoint", ranks, res.Restarts, res.RecoveredEpochs)
		}
		if recomputes != 1 {
			t.Fatalf("%d ranks: rank 0's recompute ran %d times across one restart, want 1", ranks, recomputes)
		}
	}
}
