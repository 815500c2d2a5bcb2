package engine

import (
	"reflect"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

// TestReplicatedStateRecovery: data every rank holds identically is saved
// once and redistributed on recovery.
func TestReplicatedStateRecovery(t *testing.T) {
	prog := func(r *Rank) (any, error) {
		var it int
		var acc float64
		table := make([]float64, 4096) // identical on every rank
		r.Register("it", &it)
		r.Register("acc", &acc)
		r.RegisterReplicated("table", &table)
		if !r.Restarting() {
			for i := range table {
				table[i] = float64(i % 97)
			}
		}
		for ; it < 30; it++ {
			r.PotentialCheckpoint()
			s := r.AllreduceF64([]float64{table[(it*37)%len(table)]}, mpi.SumF64)
			acc += s[0]
		}
		return acc, nil
	}
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)

	// Simulated: op 130 of rank 2 follows the fourth commit, so the restart
	// redistributes the table from a checkpoint, not from a rerun.
	cfg := onSim(t, Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 5, Debug: true,
		Failures: []Failure{{Rank: 2, AtOp: 130, Incarnation: 0}},
	})
	res, err := runWithin(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || res.RecoveredEpochs[0] != 4 {
		t.Fatalf("restarts=%d epochs=%v, want one restart from epoch 4", res.Restarts, res.RecoveredEpochs)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}

	// Rank 0's checkpoint carries the table; the others carry markers.
	var per [3]int64
	for r, s := range res.Stats {
		per[r] = s.CheckpointBytes
	}
	if per[1] >= per[0]/2 || per[2] >= per[0]/2 {
		t.Fatalf("non-primary checkpoints should be far smaller: %v", per)
	}
}

// TestReplicatedFingerprintAcrossModes: replication must not change
// results in any mode.
func TestReplicatedModesAgree(t *testing.T) {
	prog := func(r *Rank) (any, error) {
		var it int
		var acc float64
		weights := []float64{0.25, 0.5, 0.125, 0.125}
		r.Register("it", &it)
		r.Register("acc", &acc)
		r.RegisterReplicated("weights", &weights)
		for ; it < 10; it++ {
			r.PotentialCheckpoint()
			acc += weights[it%len(weights)]
			r.Barrier()
		}
		return acc, nil
	}
	ref := runRef(t, Config{Ranks: 2, Mode: protocol.Unmodified}, prog)
	for _, mode := range []protocol.Mode{protocol.PiggybackOnly, protocol.NoAppState, protocol.Full} {
		res, err := Run(Config{Ranks: 2, Mode: mode, EveryN: 3}, prog)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("%v: values %v != ref %v", mode, res.Values, ref)
		}
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
