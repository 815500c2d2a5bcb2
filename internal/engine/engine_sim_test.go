package engine

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// simConfig puts cfg on a fresh simulated substrate: transport, virtual
// clocks and, when the scenario has one, the slow store. The protocol layer
// runs its default path there — flush tasks, chunk writer — so
// with Latency > 0 how many checkpoints a run takes, and which commit a
// kill follows, is a function of (program, cfg, scenario) alone. Tests
// whose assertion depends on either live here, not on the wall clock.
func simConfig(t *testing.T, cfg Config, sc sim.Scenario) (Config, *sim.Sim) {
	t.Helper()
	s, err := sim.New(cfg.Ranks, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	// Every simulated run poisons the payloads its world releases: a result
	// or a log entry that still aliased one would read 0xDB.
	cfg.NewTransport = func(w *mpi.World) mpi.Transport {
		w.PoisonReleased()
		return s.NewTransport(w)
	}
	cfg.Clock = s.DetectorClock()
	cfg.RankClock = s.RankClock
	if cfg.Store == nil {
		cfg.Store = storage.NewMemory()
	}
	cfg.Store = s.WrapStore(cfg.Store)
	return cfg, s
}

// onSim is simConfig on the scenario most tests want: a millisecond of
// latency per hop and an instant store.
func onSim(t *testing.T, cfg Config) Config {
	t.Helper()
	cfg, _ = simConfig(t, cfg, sim.Scenario{Seed: 1, Latency: time.Millisecond})
	return cfg
}

// reorderedKill is one run of a reordering suite: the scenario seed, the
// operation at which the failing rank dies, and the epoch the one rollback
// must recover from.
type reorderedKill struct {
	seed, atOp int64
	want       int
}

// checkReordered runs prog under cfg once per kill, rank dying at the
// kill's operation, over a network whose jitter is four times its latency:
// every frame, control traffic included, can arrive ahead of a causally
// earlier frame from another sender, while each link stays FIFO. The
// protocol must not assume FIFO delivery across senders (Section 3.3): each
// run must end with ref's values, after exactly one rollback to the kill's
// epoch, within a minute: a recovery that deadlocks fails the run instead of
// hanging the package, since the virtual clock cannot advance a world whose
// every rank waits for a message nobody will send.
func checkReordered(t *testing.T, cfg Config, rank int, prog Program, ref []any, kills []reorderedKill) {
	t.Helper()
	for _, k := range kills {
		run := cfg
		run.Failures = []Failure{{Rank: rank, AtOp: k.atOp}}
		run, _ = simConfig(t, run, sim.Scenario{Seed: k.seed, Latency: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
		res, err := runWithin(run, prog)
		if err != nil {
			t.Fatalf("seed=%d atOp=%d: %v", k.seed, k.atOp, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("seed=%d atOp=%d: values %v != ref %v", k.seed, k.atOp, res.Values, ref)
		}
		if !reflect.DeepEqual(res.RecoveredEpochs, []int{k.want}) {
			t.Fatalf("seed=%d atOp=%d: recovered from %v, want [%d]", k.seed, k.atOp, res.RecoveredEpochs, k.want)
		}
	}
}

// TestSimHeartbeatDetectorRecovery is the virtual-time port of
// TestHeartbeatDetectorRecovery: the dead rank falls silent, the heartbeat
// detector suspects it after a purely virtual timeout, and the rollback
// proceeds identically — with zero real sleeps anywhere in the run.
func TestSimHeartbeatDetectorRecovery(t *testing.T) {
	prog := ringProg(25, 4)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)

	sc := sim.Scenario{Seed: 1, Latency: 200 * time.Microsecond}
	cfg, _ := simConfig(t, Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
		DetectorTimeout: 30 * time.Second, // virtual: costs nothing real
		Failures:        []Failure{{Rank: 1, AtOp: 90, Incarnation: 0}},
	}, sc)

	start := time.Now()
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
	// The whole point: a 30-second suspicion timeout must not cost
	// 30 seconds. Generous bound for race-detector CI runners.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("virtual-time detection took %v of wall time", elapsed)
	}
}

// TestSimIntervalInitiatorVirtualTime ports the interval-trigger test to
// virtual time: message latency makes the ring advance the clock, and the
// initiator's 50ms interval fires from clock progress alone — no sleeps,
// and the checkpoint count is exactly reproducible.
func TestSimIntervalInitiatorVirtualTime(t *testing.T) {
	prog := ringProg(120, 4)
	mk := func() (Config, storage.Stable) {
		cfg, _ := simConfig(t, Config{
			Ranks: 2, Mode: protocol.Full, Debug: true,
			Interval: 50 * time.Millisecond,
		}, sim.Scenario{Seed: 7, Latency: time.Millisecond})
		return cfg, cfg.Store
	}
	cfg, store := mk()
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	// 120 iterations x >=1ms of virtual latency per exchange crosses the
	// 50ms interval at least once.
	if got := res.Stats[0].CheckpointsTaken; got < 1 {
		t.Fatalf("interval trigger never fired: %d checkpoints", got)
	}
	// Same seed, fresh simulation: identical values, counters and store.
	cfg, storeAgain := mk()
	again, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Values, res.Values) {
		t.Fatalf("values diverged across identical simulated runs")
	}
	// Per rank and whole, CheckpointBytesWritten included: the simulated
	// store answers each dedup probe from the virtual timeline, so which of
	// two ranks stored a chunk both hold is not left to wall time.
	if !reflect.DeepEqual(again.Stats, res.Stats) {
		t.Fatalf("protocol counters diverged:\n  %+v\n  %+v", res.Stats, again.Stats)
	}
	if a, b := storeListing(t, store), storeListing(t, storeAgain); !reflect.DeepEqual(a, b) {
		t.Fatalf("the runs left different stores behind:\n  %v\n  %v", a, b)
	}
}

// storeListing is every key a run left in its store, with the blob's size.
func storeListing(t *testing.T, s storage.Stable) map[string]int {
	t.Helper()
	keys, err := s.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(keys))
	for _, k := range keys {
		b, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = len(b)
	}
	return out
}

// commitClock records the virtual instant at which each commit record
// became durable.
type commitClock struct {
	storage.Stable
	s  *sim.Sim
	mu sync.Mutex
	at []time.Duration
}

func (c *commitClock) Put(key string, data []byte) error {
	err := c.Stable.Put(key, data)
	if strings.HasSuffix(key, "/COMMIT") {
		c.mu.Lock()
		c.at = append(c.at, c.s.Elapsed())
		c.mu.Unlock()
	}
	return err
}

// TestSlowStoreStallsReplay: a jittered SlowStore draws every stall from
// the call's own operation, key and virtual instant. The two ranks' flush
// tasks meet the store at the same instants and run there in wall-time
// order, so a stall drawn in call order went to whichever ran first; drawn
// this way, every run gives each rank the same flush time and commits at
// the same instants.
func TestSlowStoreStallsReplay(t *testing.T) {
	sc := sim.Scenario{Seed: 5, Latency: 200 * time.Microsecond,
		SlowStore: &sim.SlowStore{Delay: 200 * time.Microsecond, Jitter: 600 * time.Microsecond}}
	run := func() (flush [2]int64, commits []time.Duration) {
		cfg, s := simConfig(t, Config{Ranks: 2, Mode: protocol.Full, EveryN: 3}, sc)
		cc := &commitClock{Stable: cfg.Store, s: s}
		cfg.Store = cc
		res, err := Run(cfg, ringProg(100, 33_000)) // two chunks a rank
		if err != nil {
			t.Fatal(err)
		}
		for r := range flush {
			flush[r] = res.Stats[r].CheckpointFlushNs
		}
		return flush, cc.at
	}
	flush, commits := run()
	if len(commits) < 3 || flush[0] == 0 || flush[1] == 0 {
		t.Fatalf("%d commits, flush times %v: want several checkpoints on a slow store", len(commits), flush)
	}
	t.Logf("flush times %v, commits at %v", flush, commits)
	for i := 0; i < 2; i++ {
		if f, c := run(); f != flush || !reflect.DeepEqual(c, commits) {
			t.Fatalf("run %d: flush times %v and commits at %v; the first run: %v and %v", i+2, f, c, flush, commits)
		}
	}
}
