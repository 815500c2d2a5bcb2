package ccift_test

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"ccift"
	"ccift/internal/testseed"
)

// The chaos soak suite: whole runs of the real program over the simulated
// substrate under seeded fault schedules. Every scenario that the protocol
// is supposed to survive must end with output byte-identical to the
// fault-free run; every scenario that is supposed to fail must fail with
// exactly one taxonomy sentinel. All network time is virtual, so the whole
// suite — partitions, 30-second-scale timeouts, multi-incarnation
// flapping — costs milliseconds of wall clock per scenario.

// soakRef computes the fault-free reference output once per program shape.
func soakRef(t *testing.T, ranks, iters, width int) []any {
	t.Helper()
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(ranks), ccift.WithMode(ccift.Unmodified),
	), stencil(iters, width))
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

// launchSim runs the stencil under the scenario with checkpointing on.
func launchSim(t *testing.T, seed int64, sc ccift.Scenario, iters, width int, extra ...ccift.Option) (*ccift.Result, error) {
	t.Helper()
	sc.Seed = seed
	opts := append([]ccift.Option{
		ccift.WithRanks(4), ccift.WithMode(ccift.Full), ccift.WithEveryN(6),
		ccift.WithDebug(), ccift.WithSimulated(sc),
	}, extra...)
	return ccift.Launch(context.Background(), ccift.NewSpec(opts...), stencil(iters, width))
}

func TestChaosPartitionDuringCommit(t *testing.T) {
	// A partition opens while checkpoint rounds are in flight: control
	// messages (stoppedLogging, the commit broadcast) are held at the
	// boundary until heal. The commit protocol must stall, not corrupt:
	// output is identical to the fault-free run.
	seed := testseed.Base(t, 1001)
	ref := soakRef(t, 4, 30, 8)
	sc := ccift.Scenario{
		Latency: time.Millisecond, Jitter: 500 * time.Microsecond,
		Partitions: []ccift.Partition{
			{From: 20 * time.Millisecond, Until: 120 * time.Millisecond, Ranks: []int{2, 3}},
		},
	}
	res, err := launchSim(t, seed, sc, 30, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("partitioned run diverged:\n  got %v\n  ref %v", res.Values, ref)
	}
}

func TestChaosFlappingPeerAcrossIncarnations(t *testing.T) {
	// The same rank crashes in two successive incarnations: it dies, the
	// detector suspects it, the world rolls back, and the restarted rank
	// dies again. Recovery must converge and the final output match the
	// fault-free run.
	seed := testseed.Base(t, 1002)
	ref := soakRef(t, 4, 60, 8)
	sc := ccift.Scenario{
		Latency:         time.Millisecond,
		DetectorTimeout: 25 * time.Millisecond,
		Crashes: []ccift.Crash{
			{Rank: 2, At: 40 * time.Millisecond},
			{Rank: 2, At: 200 * time.Millisecond},
		},
	}
	res, err := launchSim(t, seed, sc, 60, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 2 {
		t.Fatalf("restarts = %d, want both crashes to land (tune crash times)", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("flapping run diverged:\n  got %v\n  ref %v", res.Values, ref)
	}
}

func TestChaosDuplicatedFramesWithCrash(t *testing.T) {
	// Heavy frame duplication plus jitter reordering, and a crash on top:
	// every piggybacked frame may arrive twice. Exactly-once delivery below
	// MPI semantics plus the protocol's own bookkeeping must keep the
	// output exact through recovery.
	seed := testseed.Base(t, 1003)
	ref := soakRef(t, 4, 40, 8)
	sc := ccift.Scenario{
		Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
		DupProb:         0.3,
		DetectorTimeout: 25 * time.Millisecond,
		Crashes:         []ccift.Crash{{Rank: 1, At: 60 * time.Millisecond}},
	}
	res, err := launchSim(t, seed, sc, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Fatal("crash never landed")
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("duplicated run diverged:\n  got %v\n  ref %v", res.Values, ref)
	}
}

func TestChaosSkewedDetectorClocks(t *testing.T) {
	// Rank clocks drift against the detector's: fast and slow ranks
	// heartbeat on distorted schedules while suspicion elapses on the true
	// clock. Live ranks must never be falsely declared dead (the run would
	// burn restarts), and the genuinely crashed rank must still be caught.
	seed := testseed.Base(t, 1004)
	ref := soakRef(t, 4, 40, 8)
	sc := ccift.Scenario{
		Latency:         time.Millisecond,
		DetectorTimeout: 25 * time.Millisecond,
		Skews: map[int]ccift.Skew{
			0: {Rate: 1.5},
			1: {Rate: 0.6, Offset: 3 * time.Millisecond},
			3: {Offset: -2 * time.Millisecond, Rate: 1},
		},
		Crashes: []ccift.Crash{{Rank: 3, At: 50 * time.Millisecond}},
	}
	res, err := launchSim(t, seed, sc, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want exactly the one real crash", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("skewed run diverged:\n  got %v\n  ref %v", res.Values, ref)
	}
}

func TestChaosSlowStoreDuringFlush(t *testing.T) {
	// Stable storage crawls (virtual milliseconds per chunk operation)
	// while checkpoints are being written, and a rank dies mid-run. Slow
	// flushes delay commits; recovery must restore from whichever epoch
	// actually committed and still produce the exact output.
	seed := testseed.Base(t, 1005)
	ref := soakRef(t, 4, 40, 8)
	sc := ccift.Scenario{
		Latency:         time.Millisecond,
		DetectorTimeout: 30 * time.Millisecond,
		SlowStore:       &ccift.SlowStore{Delay: 2 * time.Millisecond, Jitter: time.Millisecond},
		Crashes:         []ccift.Crash{{Rank: 0, At: 70 * time.Millisecond}},
	}
	res, err := launchSim(t, seed, sc, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Fatal("crash never landed")
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("slow-store run diverged:\n  got %v\n  ref %v", res.Values, ref)
	}
}

func TestChaosThrottledFlushCrashRecovery(t *testing.T) {
	// The flush pipeline under chaos: the store crawls (SlowStore, whose
	// delays elapse on the scenario's VIRTUAL clock) while a rank dies with
	// slow flushes in flight. Slow flushes delay commits; recovery must come
	// from whichever epoch actually committed and reproduce the fault-free
	// output exactly. The incremental freeze default is active throughout,
	// so this also soaks dirty-region capture under a slow store.
	seed := testseed.Base(t, 1009)
	ref := soakRef(t, 4, 40, 8)
	sc := ccift.Scenario{
		Latency:         time.Millisecond,
		DetectorTimeout: 30 * time.Millisecond,
		SlowStore:       &ccift.SlowStore{Delay: 4 * time.Millisecond},
		Crashes:         []ccift.Crash{{Rank: 2, At: 60 * time.Millisecond}},
	}
	res, err := launchSim(t, seed, sc, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts < 1 {
		t.Fatal("crash never landed")
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("throttled run diverged:\n  got %v\n  ref %v", res.Values, ref)
	}
	var flushNs int64
	for _, s := range res.Stats {
		flushNs += s.CheckpointFlushNs
	}
	if flushNs == 0 {
		t.Fatal("CheckpointFlushNs = 0 across all ranks: the slow store never held a flush")
	}

	// The same throttled world with a second crash over a one-restart
	// budget must fail with exactly one taxonomy sentinel, like every
	// other substrate failure.
	sc.Crashes = append(sc.Crashes, ccift.Crash{Rank: 2, At: 150 * time.Millisecond})
	_, err = launchSim(t, seed, sc, 40, 8, ccift.WithMaxRestarts(1))
	assertExactlyOne(t, err, ccift.ErrMaxRestarts)
}

func TestChaosExhaustedRestartsFailsWithOneSentinel(t *testing.T) {
	// A scenario the system is NOT supposed to survive: more crashes than
	// the restart budget. The failure must carry exactly one taxonomy
	// sentinel — ErrMaxRestarts — like every other substrate's failures.
	seed := testseed.Base(t, 1006)
	sc := ccift.Scenario{
		Latency:         time.Millisecond,
		DetectorTimeout: 25 * time.Millisecond,
		Crashes: []ccift.Crash{
			{Rank: 1, At: 30 * time.Millisecond},
			{Rank: 1, At: 150 * time.Millisecond},
		},
	}
	_, err := launchSim(t, seed, sc, 60, 8, ccift.WithMaxRestarts(1))
	assertExactlyOne(t, err, ccift.ErrMaxRestarts)
}

func TestChaosDeterministicReplay(t *testing.T) {
	// The acceptance bar for the substrate: the same seed replays the same
	// run — byte-identical Values, the same restart count, the same
	// protocol counters, the same per-rank event traces and the same store
	// left behind — under the default policy's own write path: every
	// checkpoint is flushed by a task beside its rank, which the scenario's
	// slow store keeps open for milliseconds of virtual time while the rank
	// computes on, and the chunk writer runs as it does in production. The counters are compared whole, per rank,
	// CheckpointBytesWritten included: the simulated store answers each
	// dedup probe from the virtual timeline (sim.WrapStore), so which rank
	// stored a chunk two of them hold is part of the replay too.
	seed := testseed.Base(t, 1007)
	sc := ccift.Scenario{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		DropProb: 0.05, DupProb: 0.1,
		DetectorTimeout: 25 * time.Millisecond,
		SlowStore:       &ccift.SlowStore{Delay: 300 * time.Microsecond},
		Crashes:         []ccift.Crash{{Rank: 3, At: 45 * time.Millisecond}},
	}
	run := func() (*ccift.Result, *rankTraces, map[string]int) {
		tr := &rankTraces{byRank: make([][]ccift.TraceEvent, 4)}
		store := ccift.NewMemoryStore()
		res, err := launchSim(t, seed, sc, 40, 8, ccift.WithTracer(tr), ccift.WithStore(store))
		if err != nil {
			t.Fatal(err)
		}
		return res, tr, storeListing(t, store)
	}
	a, at, astore := run()
	b, bt, bstore := run()
	// The async path really ran: the store's delays were waited out by
	// flush tasks (CheckpointFlushNs), not by ranks stopped inside
	// takeCheckpoint — a freeze takes no virtual time at all.
	var flushNs, blockedNs int64
	for _, s := range a.Stats {
		flushNs += s.CheckpointFlushNs
		blockedNs += s.CheckpointBlockedNs
	}
	if flushNs == 0 || blockedNs != 0 {
		t.Fatalf("flush time %dns, blocked time %dns: want the store's delays on the flush tasks and none on the ranks", flushNs, blockedNs)
	}
	if !reflect.DeepEqual(at.byRank, bt.byRank) {
		t.Fatalf("per-rank protocol traces diverged across identical seeds")
	}
	if !reflect.DeepEqual(a.Values, b.Values) {
		t.Fatalf("values diverged across identical seeds:\n  %v\n  %v", a.Values, b.Values)
	}
	if a.Restarts != b.Restarts || !reflect.DeepEqual(a.RecoveredEpochs, b.RecoveredEpochs) {
		t.Fatalf("recovery shape diverged: %d/%v vs %d/%v restarts/epochs",
			a.Restarts, a.RecoveredEpochs, b.Restarts, b.RecoveredEpochs)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("protocol counters diverged:\n  %+v\n  %+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(astore, bstore) {
		t.Fatalf("the runs left different stores behind:\n  %v\n  %v", astore, bstore)
	}
}

// rankTraces records each rank's protocol events in order. Ranks run
// concurrently between simulated events, so only the per-rank sequences
// are a function of the seed.
type rankTraces struct {
	mu     sync.Mutex
	byRank [][]ccift.TraceEvent
}

func (r *rankTraces) Trace(e ccift.TraceEvent) {
	r.mu.Lock()
	r.byRank[e.Rank] = append(r.byRank[e.Rank], e)
	r.mu.Unlock()
}

// storeListing is every key a run left in its store, with the blob's size.
func storeListing(t *testing.T, s ccift.Stable) map[string]int {
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

func TestSimulated1000RankWorld(t *testing.T) {
	// The scale bar, raised from 512 ranks when localized recovery landed:
	// a 1000-rank world with paper-scale 30-second heartbeat suspicion runs
	// through the identical public Launch call in seconds of wall clock,
	// because every timeout and every hop of latency is virtual — and a
	// mid-run death of one rank costs one localized rollback (999
	// survivors restore from their in-memory retained copies; only the
	// dead rank's replacement reads the store), not a thousand re-reads.
	// The wall-clock bound assumes full speed; the race detector's ~8x
	// slowdown gets a proportionally larger budget so CI's recovery job
	// can soak this under -race without failing on the bound.
	if testing.Short() {
		t.Skip("wall-clock scale bar: skipped under -short")
	}
	bound := 30 * time.Second
	if raceEnabled {
		bound = 4 * time.Minute
	}
	const ranks = 1000
	seed := testseed.Base(t, 1008)
	ref := soakRef(t, ranks, 3, 4)
	store := &opCounter{Stable: ccift.NewMemoryStore()}
	start := time.Now()
	// The bound is also the run's deadline, so a recovery that deadlocks
	// fails here instead of at the package timeout.
	ctx, cancel := context.WithTimeout(context.Background(), bound)
	defer cancel()
	res, err := ccift.Launch(ctx, ccift.NewSpec(
		ccift.WithRanks(ranks), ccift.WithMode(ccift.Full), ccift.WithEveryN(2),
		ccift.WithStore(store),
		ccift.WithSimulated(ccift.Scenario{
			Seed: seed, Latency: time.Millisecond,
			DetectorTimeout: 30 * time.Second,
			// At 60ms virtual, epoch 1 has committed and the run (four
			// allreduces of twenty hops each, no control round before
			// them) has 20ms to go: the rollback is a genuine checkpoint
			// recovery, not a restart from scratch.
			Crashes: []ccift.Crash{{Rank: 137, At: 60 * time.Millisecond}},
		}),
	), stencil(3, 4))
	if err != nil {
		t.Fatalf("1000-rank virtual world with one death, bounded at %v: %v", bound, err)
	}
	if elapsed := time.Since(start); elapsed > bound {
		t.Fatalf("1000-rank virtual world with one death took %v, want < %v", elapsed, bound)
	}
	if res.Restarts != 1 {
		t.Fatalf("%d restarts, want the one scheduled crash to land exactly once", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("1000-rank recovered world diverged from the fault-free reference")
	}
	// Localized recovery at scale: every survivor rolled back from its
	// retained in-memory checkpoint; only the dead rank's replacement
	// touched the store for state.
	retained := 0
	for r := 0; r < ranks; r++ {
		if res.Stats[r].RecoveredFromRetained > 0 {
			retained++
		}
	}
	if want := ranks - 1; retained != want {
		t.Fatalf("%d ranks restored from retained state, want %d (all survivors)", retained, want)
	}
	// And the store saw it: the whole run — the commits' prunes (a manifest
	// read per rank), the recovery gather (a protocol record per rank) and the one
	// replacement's restore — read two blobs per rank (2007, the same on
	// every run), where every rank scanning every rank's metadata would
	// have read a million. The bound leaves the recovery's half room for
	// half a read more per rank. (TestRecoveryStoreReadsLinearInRanks
	// isolates the recovery's share at 8, 64 and 256 ranks.)
	if reads := store.gets.sum(); reads > 5*ranks/2 {
		t.Fatalf("%d store reads in a %d-rank run with one recovery, want at most %d", reads, ranks, 5*ranks/2)
	} else {
		t.Logf("%d store reads (%.2f per rank)", reads, float64(reads)/ranks)
	}
}
