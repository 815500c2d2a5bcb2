package engine

import (
	"reflect"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

// TestStraddlingHandleRecoverySweep is the timing-sensitive companion of
// TestIsendIrecvAcrossCheckpoints: recovery of a program whose request
// handles straddle the checkpoint, repeated many times so the kill lands
// at many different points of the checkpoint pipeline (before the first
// commit, mid-flush, between commit and prune, ...). Runs in both
// checkpoint-write modes; the values must match a fault-free reference in
// every interleaving. (A previous version of the program re-executed its
// pre-checkpoint Isend on restart, which diverged whenever the kill
// happened to land after the first commit — see the PotentialCheckpoint
// placement rule on Rank.)
func TestStraddlingHandleRecoverySweep(t *testing.T) {
	prog := func(r *Rank) (any, error) {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		var it int
		var total float64
		var posted bool
		var h protocol.Handle
		r.Register("it", &it)
		r.Register("total", &total)
		r.Register("posted", &posted)
		r.Register("h", &h)
		for ; it < 20; it++ {
			if !posted {
				h = r.Irecv(prev, 1)
				r.Touch("h") // write intent: Handle is a struct, not an exempt scalar
				r.Isend(next, 1, mpi.F64Bytes([]float64{float64(r.Rank()*1000 + it)}))
				posted = true
			}
			r.PotentialCheckpoint()
			m := r.Wait(h)
			posted = false
			total += mpi.BytesF64(m.Data)[0]
		}
		return total, nil
	}
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	reps := 25
	if testing.Short() {
		reps = 8
	}
	for _, syncCkpt := range []bool{false, true} {
		for i := 0; i < reps; i++ {
			cfg := Config{
				Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true, Sync: syncCkpt,
				Failures: []Failure{{Rank: 2, AtOp: 52, Incarnation: 0}},
			}
			res, err := Run(cfg, prog)
			if err != nil {
				t.Fatalf("sync=%v: %v", syncCkpt, err)
			}
			if !reflect.DeepEqual(res.Values, ref) {
				t.Fatalf("sync=%v rep %d diverged: %v != %v (recovered=%v)", syncCkpt, i, res.Values, ref, res.RecoveredEpochs)
			}
		}
	}
}
