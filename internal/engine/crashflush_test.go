package engine

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// Crash during flush, as a virtual-time schedule: the deterministic
// companion of the distributed TestDistributedKillMidFlush. The scenario's
// slow store makes every store call take 4 ms of virtual time, so the
// doomed rank's epoch-2 flush — a flush task beside the rank, as in
// production — stays open for tens of milliseconds, and Scenario.Crashes
// stops the rank in the middle of the task's manifest write. Epoch 1 is
// committed before any rank can begin checkpoint 2 (the initiator starts a
// new global checkpoint only after the previous commit record is durable),
// and epoch 2 can never commit because the dead rank never reports
// stoppedLogging — so recovery from exactly epoch 1 is guaranteed, and the
// recovered run must reproduce the fault-free values.

// putClock records, on virtual time, when the first write of one key began.
type putClock struct {
	storage.Stable
	s   *sim.Sim
	key string

	mu    sync.Mutex
	began time.Duration // 0: not written
}

func (p *putClock) Put(key string, data []byte) error {
	if key == p.key {
		p.mu.Lock()
		if p.began == 0 {
			p.began = p.s.Elapsed()
		}
		p.mu.Unlock()
	}
	return p.Stable.Put(key, data)
}

// crashProg is a ring exchange. Beyond the scalars, each rank carries a
// grid it partially rewrites (with Touch write intent) every iteration and
// folds into its result, so a recovery from a stale frozen region makes
// the checksum diverge.
func crashProg(r *Rank) (any, error) {
	next := (r.Rank() + 1) % r.Size()
	prev := (r.Rank() - 1 + r.Size()) % r.Size()
	var it int
	var total float64
	grid := make([]float64, 2048)
	in := make([]float64, 1) // rewritten by every receive: scratch
	r.Register("it", &it)
	r.Register("total", &total)
	r.Register("grid", &grid)
	for ; it < 60; it++ {
		r.PotentialCheckpoint()
		h := r.Irecv(prev, 1)
		r.Isend(next, 1, mpi.F64Bytes([]float64{float64(r.Rank()*1000 + it)}))
		r.WaitF64Into(h, in)
		total += in[0]
		for j := 0; j < 64; j++ {
			grid[(it*131+j)%len(grid)] += total
		}
		r.Touch("grid")
	}
	for _, x := range grid {
		total += x
	}
	return total, nil
}

func TestCrashDuringFlushRecovery(t *testing.T) {
	const doomed = 2
	const putDelay = 4 * time.Millisecond
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, crashProg)

	// run executes the schedule with the given crashes and reports when the
	// doomed rank's epoch-2 state manifest — the last write of its state
	// flush — began in the first incarnation.
	run := func(t *testing.T, crashes []sim.Crash) (*Result, time.Duration) {
		t.Helper()
		cfg, s := simConfig(t, Config{
			Ranks: 3, Mode: protocol.Full, EveryN: 5, Debug: true,
			DetectorTimeout: 20 * time.Millisecond,
		}, sim.Scenario{Seed: 1, Latency: time.Millisecond, SlowStore: &sim.SlowStore{Delay: putDelay}, Crashes: crashes})
		pc := &putClock{Stable: cfg.Store, s: s, key: storage.StateKey(2, doomed)}
		cfg.Store = pc
		res, err := Run(cfg, crashProg)
		if err != nil {
			t.Fatal(err)
		}
		return res, pc.began
	}

	// Every freeze is incremental. The schedule is a function of the
	// scenario, so a fault-free pass tells when the write the crash must
	// interrupt begins: an epoch-2 flush that shares epoch-1 slabs at the
	// moment of death.
	t.Run("incremental", func(t *testing.T) {
		clean, began := run(t, nil)
		if began == 0 || clean.Restarts != 0 || !reflect.DeepEqual(clean.Values, ref) {
			t.Fatalf("fault-free pass: epoch-2 manifest write at %v, %d restarts, values %v (want %v)", began, clean.Restarts, clean.Values, ref)
		}
		crashAt := began + putDelay/2
		res, again := run(t, []sim.Crash{{Rank: doomed, At: crashAt}})
		if again != began {
			t.Fatalf("the schedule moved: epoch-2 manifest write began at %v, then at %v", began, again)
		}
		if res.Restarts != 1 {
			t.Fatalf("%d restarts, want the one crash at %v (inside the write open from %v to %v)", res.Restarts, crashAt, began, began+putDelay)
		}
		if len(res.RecoveredEpochs) != 1 || res.RecoveredEpochs[0] != 1 {
			t.Fatalf("recovered epochs %v, want [1]: a crash mid-flush must fall back to the previous committed epoch, never the one in flight", res.RecoveredEpochs)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("recovered values %v != fault-free %v", res.Values, ref)
		}
	})
}
