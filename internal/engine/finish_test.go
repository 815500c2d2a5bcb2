package engine

import (
	"context"
	"testing"
	"time"

	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// The end-of-program rule (protocol.Layer.Finish): a global checkpoint in
// flight when the programs return is carried to its commit, and one that a
// finished rank can no longer take part in is given up — neither outcome
// depends on how fast a flush is, and neither may hang the run.

func committedEpoch(t *testing.T, s storage.Stable) int {
	t.Helper()
	e, ok, err := storage.NewCheckpointStore(s).Committed()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0
	}
	return e
}

// TestFinishCarriesCheckpointToCommit: the store is so slow that every
// rank's program has long returned when the first flush ends — 8 ring
// iterations take 8 ms of virtual time, one store call takes 50 — and the
// checkpoint the fifth iteration triggered still commits, under both write
// policies.
func TestFinishCarriesCheckpointToCommit(t *testing.T) {
	for _, sync := range []bool{false, true} {
		store := storage.NewMemory()
		cfg, s := simConfig(t, Config{
			Ranks: 3, Mode: protocol.Full, EveryN: 5, Debug: true, Store: store,
			Sync: sync,
		}, sim.Scenario{Seed: 1, Latency: time.Millisecond, SlowStore: &sim.SlowStore{Delay: 50 * time.Millisecond}})
		res, err := Run(cfg, ringProg(8, 4))
		if err != nil {
			t.Fatalf("sync=%v: %v", sync, err)
		}
		if got := committedEpoch(t, store); got != 1 {
			t.Fatalf("sync=%v: committed epoch %d, want 1: the checkpoint in flight at the end was abandoned", sync, got)
		}
		for r, st := range res.Stats {
			if st.CheckpointsTaken != 1 || st.CheckpointBytes == 0 {
				t.Fatalf("sync=%v: rank %d took %d checkpoints of %d bytes, want the one, integrated", sync, r, st.CheckpointsTaken, st.CheckpointBytes)
			}
		}
		if sync {
			continue
		}
		// The async run ended after the flush did, not when the programs
		// returned: at least four 50 ms store calls per rank.
		if end := s.Elapsed(); end < 200*time.Millisecond {
			t.Fatalf("the run ended at %v of virtual time, before its checkpoint can have been durable", end)
		}
	}
}

// TestFinishGivesUpCheckpointNobodyCanTake: a trigger that fires in the
// initiator's last PotentialCheckpoint asks for a local checkpoint the
// initiator itself will never take; a rank that returns early can take no
// later one either. Such a checkpoint is declined and the run ends — on
// the wall clock (any pace) and on virtual time — and whatever did commit
// is whole: every rank's state is under the committed epoch.
func TestFinishGivesUpCheckpointNobodyCanTake(t *testing.T) {
	// Ranks run different iteration counts with no messages between them,
	// so some may be long gone when a request reaches them.
	uneven := func(iters func(rank int) int) Program {
		return func(r *Rank) (any, error) {
			var it int
			r.Register("it", &it)
			for ; it < iters(r.Rank()); it++ {
				r.PotentialCheckpoint()
			}
			return it, nil
		}
	}
	for name, prog := range map[string]Program{
		"trigger in the last iteration": ringProg(5, 4),
		"initiator finishes first":      uneven(func(rank int) int { return 5 + 10*rank }),
		"initiator finishes last":       uneven(func(rank int) int { return 40 - 10*rank }),
	} {
		for _, simulated := range []bool{false, true} {
			store := storage.NewMemory()
			cfg := Config{Ranks: 3, Mode: protocol.Full, EveryN: 5, Debug: true, Store: store}
			if simulated {
				cfg = onSim(t, cfg)
			}
			if _, err := Run(cfg, prog); err != nil {
				t.Fatalf("%s (simulated=%v): %v", name, simulated, err)
			}
			e := committedEpoch(t, store)
			if e != 0 && name != "initiator finishes last" {
				t.Fatalf("%s (simulated=%v): epoch %d committed, but the initiator's program returned before it could take that checkpoint", name, simulated, e)
			}
			for r := 0; e != 0 && r < cfg.Ranks; r++ {
				if _, err := storage.NewCheckpointStore(store).GetState(e, r); err != nil {
					t.Fatalf("%s (simulated=%v): committed epoch %d lacks rank %d's state: %v", name, simulated, e, r, err)
				}
			}
		}
	}
}

// TestFinishGivesUpCheckpointShortOfALateMessage: every rank takes the local
// checkpoint, but rank 2's logging phase can never end — rank 1 sent it a
// message before the checkpoint that its program never receives, so its
// receive count stays one short of rank 1's send count. While the program
// runs that checkpoint stays open (Figure 4 has no way out of it); once rank
// 2's program has returned it declines, the initiator gives the checkpoint
// up and the run ends with nothing committed, where waiting for the commit
// would hang it.
func TestFinishGivesUpCheckpointShortOfALateMessage(t *testing.T) {
	ring := ringProg(12, 4)
	prog := func(r *Rank) (any, error) {
		if r.Rank() == 1 && !r.Restarting() {
			r.Send(2, 9, []byte("never received"))
		}
		return ring(r)
	}
	for _, simulated := range []bool{false, true} {
		store := storage.NewMemory()
		cfg := Config{Ranks: 3, Mode: protocol.Full, EveryN: 5, Debug: true, Store: store}
		if simulated {
			cfg = onSim(t, cfg)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := RunContext(ctx, cfg, prog)
		cancel()
		if err != nil {
			t.Fatalf("simulated=%v: %v (a timeout here is the run hanging on a checkpoint that cannot complete)", simulated, err)
		}
		if e := committedEpoch(t, store); e != 0 {
			t.Fatalf("simulated=%v: epoch %d committed with rank 2 short of a late message", simulated, e)
		}
		if simulated && res.Stats[2].CheckpointsTaken != 1 {
			t.Fatalf("rank 2 took %d local checkpoints, want the one whose logging phase it then declined", res.Stats[2].CheckpointsTaken)
		}
	}
}
