package ccift_test

// Scenario-fuzz recovery: seeded random fault schedules — crash bursts,
// crashes during recovery, crashes of freshly-respawned ranks — run on the
// simulated substrate, where the whole schedule is a pure function of the
// seed. Every schedule must end in one of exactly two ways: output
// byte-identical to the fault-free run, or (when the schedule exhausts the
// restart budget) a failure matching exactly one public ccift.Err*
// sentinel. Any failure names the seed to replay with CCIFT_TEST_SEED.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ccift"
	"ccift/internal/engine"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
	"ccift/internal/testseed"
)

// fuzzSchedule derives one random fault schedule from its seed: between 1
// and 4 crashes whose shapes deliberately cover the nasty cases —
// simultaneous bursts (co-dying ranks must cost one rollback), a second
// crash close on the heels of the first (crash during recovery), and
// repeat crashes of the same rank (a freshly-respawned rank dying again).
func fuzzSchedule(seed int64, ranks int) []ccift.Crash {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(4)
	var crashes []ccift.Crash
	at := 40*time.Millisecond + time.Duration(rng.Intn(60))*time.Millisecond
	victim := rng.Intn(ranks)
	for i := 0; i < n; i++ {
		crashes = append(crashes, ccift.Crash{Rank: victim, At: at})
		switch rng.Intn(3) {
		case 0: // burst: another rank dies (virtually) simultaneously
			victim = rng.Intn(ranks)
			at += time.Duration(rng.Intn(3)) * time.Millisecond
		case 1: // crash during recovery: a different rank, just after
			victim = rng.Intn(ranks)
			at += 20*time.Millisecond + time.Duration(rng.Intn(40))*time.Millisecond
		case 2: // the respawned rank itself dies again
			at += 30*time.Millisecond + time.Duration(rng.Intn(60))*time.Millisecond
		}
	}
	// Two crashes of one rank at the same virtual instant collapse into
	// one death; keep them distinct so the schedule's intent survives.
	seen := map[ccift.Crash]bool{}
	out := crashes[:0]
	for _, c := range crashes {
		for seen[c] {
			c.At += time.Millisecond
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

func TestFuzzRecoverySchedules(t *testing.T) {
	const (
		ranks     = 6
		iters     = 40
		width     = 8
		schedules = 24
	)
	base := testseed.Base(t, 9100)
	ref := soakRef(t, ranks, iters, width)

	n := schedules
	if testing.Short() {
		n = 6
	}
	if testseed.Replaying() {
		n = 1 // the overridden seed is the whole run
	}
	recovered, exhausted := 0, 0
	for i := 0; i < n; i++ {
		seed := base + int64(i)
		crashes := fuzzSchedule(seed, ranks)
		sc := ccift.Scenario{
			Seed:            seed,
			Latency:         time.Millisecond,
			Jitter:          500 * time.Microsecond,
			DetectorTimeout: 25 * time.Millisecond,
			Crashes:         crashes,
		}
		// A budget the denser schedules can exhaust: exhaustion is a
		// legitimate outcome, but it must surface as the one right error.
		res, err := ccift.Launch(context.Background(), ccift.NewSpec(
			ccift.WithRanks(ranks), ccift.WithMode(ccift.Full),
			ccift.WithEveryN(6), ccift.WithDebug(),
			ccift.WithMaxRestarts(3),
			ccift.WithSimulated(sc),
		), stencil(iters, width))
		if err != nil {
			if !errors.Is(err, ccift.ErrMaxRestarts) {
				t.Fatalf("seed %d (replay with %s=%d): schedule %v failed with %v, want success or ErrMaxRestarts",
					seed, testseed.Env, seed, crashes, err)
			}
			assertExactlyOne(t, err, ccift.ErrMaxRestarts)
			exhausted++
			continue
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("seed %d (replay with %s=%d): schedule %v diverged from the fault-free reference:\n  got %v\n  ref %v",
				seed, testseed.Env, seed, crashes, res.Values, ref)
		}
		recovered++
	}
	t.Logf("%d schedules recovered to the reference output, %d exhausted the restart budget cleanly", recovered, exhausted)
}

// The windowed schedules. The paper's phase-4 rule — the initiator writes
// the commit record only after every rank's stoppedLogging, which a rank
// sends only once its log AND its state are durable — exists to protect
// three crash windows, and all three open inside the default policy's
// flush task and the initiator's prune. On virtual time they can be hit on
// purpose: a slow store stretches every write over milliseconds, a
// fault-free pass of the scenario records when each window opens and
// closes (the schedule is a function of the scenario, so the faulted pass
// reaches the window at the same instant), and the crash is drawn inside.

// storeTimes records, on virtual time, when each key's first Put began and
// returned and when Deletes ran. The commit record is one key rewritten per
// epoch; it is booked under commitMark(epoch), so commits stay apart.
type storeTimes struct {
	storage.Stable
	now func() time.Duration

	mu          sync.Mutex
	began, done map[string]time.Duration
	deletes     []time.Duration
}

func commitMark(epoch int) string { return fmt.Sprintf("ckpt/COMMIT@%d", epoch) }

func (st *storeTimes) Put(key string, data []byte) error {
	mark := key
	if key == "ckpt/COMMIT" {
		mark = commitMark(int(binary.LittleEndian.Uint64(data)) - 1)
	}
	st.mu.Lock()
	_, seen := st.began[mark]
	if !seen {
		st.began[mark] = st.now()
	}
	st.mu.Unlock()
	err := st.Stable.Put(key, data)
	if !seen {
		st.mu.Lock()
		st.done[mark] = st.now()
		st.mu.Unlock()
	}
	return err
}

func (st *storeTimes) Delete(key string) error {
	st.mu.Lock()
	st.deletes = append(st.deletes, st.now())
	st.mu.Unlock()
	return st.Stable.Delete(key)
}

// crashWindow is one of the three windows: when it is open in the
// fault-free pass for the given epoch and rank, and the epoch a death
// inside it must recover from.
type crashWindow struct {
	name string
	open func(st *storeTimes, epoch, rank int) (from, to time.Duration)
	// recovers maps the epoch the window belongs to onto the epoch the
	// rollback must restore (-1: no commit yet, restart from the beginning).
	recovers func(epoch int) int
}

// previous is what a death before epoch's commit falls back to.
func previous(epoch int) int {
	if epoch == 1 {
		return -1
	}
	return epoch - 1
}

var crashWindows = []crashWindow{
	{
		// The rank's state stream is partly in the store: chunks Put, the
		// manifest write — the last of the stream — open.
		name: "mid-flush",
		open: func(st *storeTimes, epoch, rank int) (time.Duration, time.Duration) {
			k := storage.StateKey(epoch, rank)
			return st.began[k], st.done[k]
		},
		recovers: previous,
	},
	{
		// The rank's log is durable and its state is not: the half-durable
		// local checkpoint stoppedLogging must not vouch for.
		name: "log-durable-state-not",
		open: func(st *storeTimes, epoch, rank int) (time.Duration, time.Duration) {
			return st.done[storage.LogKey(epoch, rank)], st.done[storage.MetaKey(epoch, rank)]
		},
		recovers: previous,
	},
	{
		// The commit record is durable and the initiator is deleting what
		// it superseded: from the record's Put returning to the last Delete
		// before the next epoch's first write.
		name: "during-prune",
		open: func(st *storeTimes, epoch, _ int) (time.Duration, time.Duration) {
			from := st.done[commitMark(epoch)]
			to := from
			next, started := st.began[storage.StateKey(epoch+1, 0)]
			for _, d := range st.deletes {
				if d >= from && (!started || d < next) {
					to = max(to, d)
				}
			}
			return from, to
		},
		recovers: func(epoch int) int { return epoch },
	},
}

func TestFuzzRecoveryWindows(t *testing.T) {
	const (
		ranks = 4
		iters = 60
		width = 8
	)
	base := testseed.Base(t, 9200)
	ref := soakRef(t, ranks, iters, width)
	n := 6
	if testing.Short() {
		n = 2
	}
	if testseed.Replaying() {
		n = 1
	}
	run := func(sc sim.Scenario) (*engine.Result, *storeTimes, error) {
		s, err := sim.New(ranks, sc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		st := &storeTimes{Stable: s.WrapStore(storage.NewMemory()), now: s.Elapsed,
			began: map[string]time.Duration{}, done: map[string]time.Duration{}}
		res, err := engine.Run(engine.Config{
			Ranks: ranks, Mode: protocol.Full, EveryN: 6, Debug: true, Store: st,
			NewTransport: s.NewTransport, Clock: s.DetectorClock(), RankClock: s.RankClock,
			DetectorTimeout: sc.DetectorTimeout,
		}, stencil(iters, width))
		return res, st, err
	}
	for i := 0; i < n; i++ {
		seed := base + int64(i)
		rng := rand.New(rand.NewSource(seed))
		sc := sim.Scenario{
			Seed: seed, Latency: time.Millisecond, Jitter: 500 * time.Microsecond,
			DetectorTimeout: 25 * time.Millisecond,
			SlowStore:       &sim.SlowStore{Delay: 3 * time.Millisecond},
		}
		clean, times, err := run(sc)
		if err != nil || clean.Restarts != 0 || !reflect.DeepEqual(clean.Values, ref) {
			t.Fatalf("seed %d: fault-free pass: err %v, %d restarts, values %v (want %v)", seed, err, clean.Restarts, clean.Values, ref)
		}
		for _, w := range crashWindows {
			// Epoch 1 or 2 — no commit to fall back to, or one — of any
			// rank, in an order the seed draws; the first whose window
			// opened in this scenario. (The log can become durable after
			// the state, and pruning after commit 1 has nothing to delete.)
			var epoch, rank int
			var from, to time.Duration
			for _, c := range rng.Perm(2 * ranks) {
				epoch, rank = 1+c/ranks, c%ranks
				if from, to = w.open(times, epoch, rank); to > from+1 {
					break
				}
			}
			if to <= from+1 {
				t.Fatalf("seed %d: window %s never opened in the fault-free pass", seed, w.name)
			}
			at := from + 1 + time.Duration(rng.Int63n(int64(to-from-1)))
			sc.Crashes = []sim.Crash{{Rank: rank, At: at}}
			res, _, err := run(sc)
			where := fmt.Sprintf("seed %d (replay with %s=%d): rank %d killed at %v, %s of epoch %d (open %v..%v)",
				seed, testseed.Env, seed, rank, at, w.name, epoch, from, to)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if want := []int{w.recovers(epoch)}; !reflect.DeepEqual(res.RecoveredEpochs, want) {
				t.Fatalf("%s: recovered from %v, want %v", where, res.RecoveredEpochs, want)
			}
			if !reflect.DeepEqual(res.Values, ref) {
				t.Fatalf("%s: diverged from the fault-free reference:\n  got %v\n  ref %v", where, res.Values, ref)
			}
			// Whatever the window left half-written, every survivor still
			// held the committed epoch's frozen view and rolled back from it
			// (Debug checks each such view against the store's state object).
			fromView := int64(1)
			if w.recovers(epoch) < 0 {
				fromView = 0 // a restart from the beginning restores nothing
			}
			for r, s := range res.Stats {
				if r != rank && s.RecoveredFromRetained != fromView {
					t.Fatalf("%s: survivor %d restored %d times from its retained view, want %d", where, r, s.RecoveredFromRetained, fromView)
				}
			}
		}
	}
}
