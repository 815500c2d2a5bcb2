package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// In-process crash-during-flush: the deterministic companion of the
// distributed TestDistributedKillMidFlush. A fault-injecting Stable
// wrapper holds the doomed rank's epoch-2 state-manifest write open and
// signals the moment it begins; the rank then dies (fail-stop panic) with
// its checkpoint flush provably in flight. Epoch 1 is committed before any
// rank can begin checkpoint 2 (the initiator starts a new global
// checkpoint only after the previous commit record is durable), and epoch
// 2 can never commit because the dead rank never reports stoppedLogging —
// so recovery from exactly epoch 1 is guaranteed, and the recovered run
// must reproduce the fault-free values.

// slowManifest delays writes to one key and closes started when the first
// such write begins. Every other operation passes straight through.
type slowManifest struct {
	storage.Stable
	key     string
	delay   time.Duration
	started chan struct{}
	once    sync.Once
}

func (s *slowManifest) Put(key string, data []byte) error {
	if key == s.key {
		s.once.Do(func() { close(s.started) })
		time.Sleep(s.delay)
	}
	return s.Stable.Put(key, data)
}

// crashProg builds a ring-exchange program; when started is non-nil, rank
// `doomed` dies — once — as soon as started closes (i.e. as soon as its
// own checkpoint flush is mid-write). A nil channel builds the fault-free
// reference program. Beyond the scalars, each rank carries a grid it
// partially rewrites (with Touch write intent) every iteration and folds
// into its result, so the incremental-freeze variant cannot recover from
// a stale frozen region without the checksum diverging.
func crashProg(doomed int, started <-chan struct{}, died *atomic.Bool) Program {
	return func(r *Rank) (any, error) {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		var it int
		var total float64
		grid := make([]float64, 2048)
		r.Register("it", &it)
		r.Register("total", &total)
		r.Register("grid", &grid)
		for ; it < 30; it++ {
			r.PotentialCheckpoint()
			if r.Rank() == doomed {
				select {
				case <-started:
					if died.CompareAndSwap(false, true) {
						// Simulated process crash: no cleanup, flush still
						// in flight on the background flusher.
						panic(mpi.ErrKilled)
					}
				default:
				}
			}
			h := r.Irecv(prev, 1)
			r.Isend(next, 1, mpi.F64Bytes([]float64{float64(r.Rank()*1000 + it)}))
			m := r.Wait(h)
			total += mpi.BytesF64(m.Data)[0]
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
}

func TestCrashDuringFlushRecovery(t *testing.T) {
	const doomed = 2
	var noDeath atomic.Bool
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, crashProg(doomed, nil, &noDeath))

	// Both write modes must survive a crash mid-flush: the async pipeline
	// with full freezes, and the dirty-region incremental pipeline whose
	// epoch-2 flush shares epoch-1 slabs at the moment of death.
	for _, variant := range []string{"full-freeze", "incremental"} {
		t.Run(variant, func(t *testing.T) {
			store := &slowManifest{
				Stable:  storage.NewMemory(),
				key:     storage.StateKey(2, doomed),
				delay:   150 * time.Millisecond,
				started: make(chan struct{}),
			}
			var died atomic.Bool
			res, err := Run(Config{
				Ranks: 3, Mode: protocol.Full, EveryN: 5, Debug: true, Store: store,
				Policy: protocol.Policy{FullFreeze: variant == "full-freeze"},
			}, crashProg(doomed, store.started, &died))
			if err != nil {
				t.Fatal(err)
			}
			if !died.Load() {
				t.Fatal("the doomed rank never died: epoch 2's flush was not observed in flight")
			}
			if len(res.RecoveredEpochs) != 1 || res.RecoveredEpochs[0] != 1 {
				t.Fatalf("recovered epochs %v, want [1]: a crash mid-flush must fall back to the previous committed epoch, never the one in flight", res.RecoveredEpochs)
			}
			if !reflect.DeepEqual(res.Values, ref) {
				t.Fatalf("recovered values %v != fault-free %v", res.Values, ref)
			}
		})
	}
}
