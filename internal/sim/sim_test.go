package sim_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ccift/internal/clock"
	"ccift/internal/mpi"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// newSim is sim.New for a test's static scenario.
func newSim(t *testing.T, n int, sc sim.Scenario) *sim.Sim {
	t.Helper()
	s, err := sim.New(n, sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wait blocks until d of virtual time has elapsed — a virtual barrier for
// tests, costing microseconds of wall time.
func wait(s *sim.Sim, d time.Duration) { s.Sleep(d) }

func TestClockFreeRuns(t *testing.T) {
	s := newSim(t, 0, sim.Scenario{})
	defer s.Stop()
	start := time.Now()
	wait(s, time.Hour)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("one virtual hour took %v of wall time", wall)
	}
	if got := s.Elapsed(); got < time.Hour {
		t.Fatalf("Elapsed = %v, want >= 1h", got)
	}
}

func TestAfterFuncOrderAndStop(t *testing.T) {
	// One rank (never attached) turns the free-running clock off: time moves
	// only while every actor is blocked. The body is the one actor — a task
	// of the clock — so no timer can fire between being armed and being
	// stopped, however late the scheduler lets this goroutine run; it then
	// sleeps past the last timer, which is what lets them fire. (The task's
	// own wait function is for a caller that is an actor too: it would count
	// this goroutine as blocked and let time run under the task.)
	s := newSim(t, 1, sim.Scenario{})
	defer s.Stop()
	clk := s.Clock()
	var order []int
	var stopped, stoppedAgain bool
	done := make(chan struct{})
	clock.Go(clk, func() {
		defer close(done)
		clk.AfterFunc(30*time.Millisecond, func() { order = append(order, 3) })
		clk.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
		tm := clk.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
		stopped, stoppedAgain = tm.Stop(), tm.Stop()
		s.Sleep(40 * time.Millisecond)
	})
	<-done
	if !stopped {
		t.Fatal("Stop on a pending timer returned false")
	}
	if stoppedAgain {
		t.Fatal("second Stop returned true")
	}
	if !reflect.DeepEqual(order, []int{1, 3}) {
		t.Fatalf("firing order = %v, want [1 3]", order)
	}
}

func TestSkewedClockRate(t *testing.T) {
	// A rank clock running at 2x sees its timers fire after half the true
	// virtual time, and its Now advances twice as fast.
	s := newSim(t, 0, sim.Scenario{Skews: map[int]sim.Skew{0: {Rate: 2}}})
	defer s.Stop()
	fast := s.RankClock(0)
	t0 := fast.Now()
	fired := make(chan struct{})
	fast.AfterFunc(2*time.Second, func() { close(fired) })
	<-fired
	if e := s.Elapsed(); e < time.Second || e >= 2*time.Second {
		t.Fatalf("true virtual elapsed = %v, want [1s, 2s)", e)
	}
	if d := fast.Since(t0); d < 2*time.Second {
		t.Fatalf("skewed clock advanced %v, want >= 2s", d)
	}
}

func TestVirtualSleep(t *testing.T) {
	s := newSim(t, 0, sim.Scenario{})
	defer s.Stop()
	start := time.Now()
	s.Sleep(10 * time.Minute)
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("virtual sleep took %v of wall time", wall)
	}
	if got := s.Elapsed(); got < 10*time.Minute {
		t.Fatalf("Elapsed = %v, want >= 10m", got)
	}
}

// ring builds a 2-rank world on a fresh simulation and returns both.
func ring(t *testing.T, sc sim.Scenario) (*sim.Sim, *mpi.World) {
	t.Helper()
	s, err := sim.New(2, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, mpi.NewWorld(2, mpi.Options{NewTransport: s.NewTransport})
}

func TestDeliveryAcrossVirtualLatency(t *testing.T) {
	s, w := ring(t, sim.Scenario{Seed: 1, Latency: time.Millisecond})
	tr := w.Transport()
	go func() {
		tr.Send(1, &mpi.Message{Source: 0, Tag: 7, Data: []byte("hello")})
		w.RankDone(0)
	}()
	idx, m := tr.Await(1, []mpi.RecvSpec{{Source: 0, Tag: 7}})
	if idx != 0 || string(m.Data) != "hello" {
		t.Fatalf("got idx=%d data=%q", idx, m.Data)
	}
	if e := s.Elapsed(); e < time.Millisecond {
		t.Fatalf("delivery at %v, want >= 1ms of virtual latency", e)
	}
}

func TestFIFOAndDuplicateSuppression(t *testing.T) {
	const n = 200
	s, w := ring(t, sim.Scenario{Seed: 42, Latency: time.Millisecond,
		Jitter: 3 * time.Millisecond, DupProb: 0.4})
	tr := w.Transport()
	go func() {
		for i := 0; i < n; i++ {
			tr.Send(1, &mpi.Message{Source: 0, Tag: 1, Data: []byte(fmt.Sprint(i))})
		}
		w.RankDone(0)
	}()
	for i := 0; i < n; i++ {
		_, m := tr.Await(1, []mpi.RecvSpec{{Source: 0, Tag: 1}})
		if got := string(m.Data); got != fmt.Sprint(i) {
			t.Fatalf("message %d arrived as %q: FIFO violated", i, got)
		}
	}
	// Let the straggling duplicate copies land: with both ranks done the
	// clock freezes, but a virtual sleeper pushes time past them.
	w.RankDone(1)
	s.Sleep(time.Second)
	st := s.Stats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates injected at DupProb=0.4")
	}
	if st.DupSuppressed != st.Duplicated {
		t.Fatalf("injected %d duplicates but suppressed %d", st.Duplicated, st.DupSuppressed)
	}
	if st.Delivered != n {
		t.Fatalf("delivered %d frames, want exactly %d", st.Delivered, n)
	}
}

func TestDropsRetransmitNeverLose(t *testing.T) {
	const n = 100
	s, w := ring(t, sim.Scenario{Seed: 7, Latency: time.Millisecond, DropProb: 0.3})
	tr := w.Transport()
	go func() {
		for i := 0; i < n; i++ {
			tr.Send(1, &mpi.Message{Source: 0, Tag: 1, Data: []byte{byte(i)}})
		}
		w.RankDone(0)
	}()
	for i := 0; i < n; i++ {
		_, m := tr.Await(1, []mpi.RecvSpec{{Source: 0, Tag: 1}})
		if m.Data[0] != byte(i) {
			t.Fatalf("message %d arrived as %d", i, m.Data[0])
		}
	}
	if st := s.Stats(); st.Retransmits == 0 {
		t.Fatal("no retransmissions at DropProb=0.3")
	}
}

func TestPartitionHoldsUntilHeal(t *testing.T) {
	heal := 50 * time.Millisecond
	s, w := ring(t, sim.Scenario{Seed: 3, Latency: time.Millisecond,
		Partitions: []sim.Partition{{From: 0, Until: heal, Ranks: []int{1}}}})
	tr := w.Transport()
	go func() {
		tr.Send(1, &mpi.Message{Source: 0, Tag: 1, Data: []byte("x")})
		w.RankDone(0)
	}()
	tr.Await(1, []mpi.RecvSpec{{Source: 0, Tag: 1}})
	if e := s.Elapsed(); e < heal {
		t.Fatalf("partitioned frame delivered at %v, before heal at %v", e, heal)
	}
	if st := s.Stats(); st.Held != 1 {
		t.Fatalf("Held = %d, want 1", st.Held)
	}
}

func TestScenarioCrashKillsAtVirtualTime(t *testing.T) {
	at := 5 * time.Millisecond
	s, w := ring(t, sim.Scenario{Seed: 1, Latency: time.Millisecond,
		Crashes: []sim.Crash{{Rank: 1, At: at}}})
	tr := w.Transport()
	w.RankDone(0) // rank 0 plays no part; time must not wait for it
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		// Rank 1 parks awaiting a message that never comes; the scenario
		// kills it at 5ms, and a later Shutdown unblocks it.
		tr.Await(1, []mpi.RecvSpec{{Source: 0, Tag: 1}})
	}()
	wait(s, at+time.Millisecond)
	if !w.Killed(1) {
		t.Fatalf("rank 1 not killed by %v (elapsed %v)", at, s.Elapsed())
	}
	// The kill does not wake the parked rank — a stopped process cannot
	// announce its own death; the detector-driven Shutdown does.
	select {
	case p := <-done:
		t.Fatalf("parked rank woke on its own kill: %v", p)
	default:
	}
	w.Shutdown()
	if p := <-done; p != mpi.ErrWorldDead {
		t.Fatalf("unwound with %v, want ErrWorldDead", p)
	}
	w.RankDone(1)
}

func TestSlowStoreDelaysInVirtualTime(t *testing.T) {
	s := newSim(t, 0, sim.Scenario{Seed: 9,
		SlowStore: &sim.SlowStore{Delay: 20 * time.Millisecond}})
	defer s.Stop()
	st := s.WrapStore(storage.NewMemory())
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if e := s.Elapsed(); e < 40*time.Millisecond {
		t.Fatalf("two slow ops advanced only %v, want >= 40ms", e)
	}
}

// TestStoreProbeSeesOnlyEarlierInstants: the rule that makes dedup probes
// replayable. Actors that touch the store at one virtual instant run in
// wall-time order, so a Put answers Has only from the next instant on —
// whoever probes a chunk at the instant it is first stored misses, in
// either order — while a blob the store already held, and one stored at an
// earlier instant, are seen.
func TestStoreProbeSeesOnlyEarlierInstants(t *testing.T) {
	s := newSim(t, 0, sim.Scenario{Seed: 9})
	defer s.Stop()
	inner := storage.NewMemory()
	if err := inner.Put("old", []byte("v")); err != nil {
		t.Fatal(err)
	}
	st := s.WrapStore(inner)
	has := func(key string) bool {
		t.Helper()
		ok, err := storage.Has(st, key)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !has("old") || has("k") {
		t.Fatalf("Has(old), Has(k) = %v, %v before any Put, want true, false", has("old"), has("k"))
	}
	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if has("k") {
		t.Fatal("a Put answered a probe at its own virtual instant")
	}
	s.Sleep(time.Microsecond)
	if !has("k") {
		t.Fatal("a Put of an earlier instant is invisible to the probe")
	}
	if err := st.Put("k", []byte("v")); err != nil { // a second writer: visible since the first
		t.Fatal(err)
	}
	if !has("k") {
		t.Fatal("a re-Put hid a blob that was already visible")
	}
	if err := st.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if has("k") {
		t.Fatal("a deleted blob still answers the probe")
	}
}

func TestScenarioRoundTripsThroughJSON(t *testing.T) {
	sc := sim.Scenario{
		Seed: 99, Latency: time.Millisecond, Jitter: 250 * time.Microsecond,
		DropProb: 0.01, DupProb: 0.02,
		Partitions: []sim.Partition{{From: time.Second, Until: 2 * time.Second, Ranks: []int{3}}},
		Crashes:    []sim.Crash{{Rank: 1, At: 3 * time.Second}},
		Skews:      map[int]sim.Skew{2: {Offset: time.Millisecond, Rate: 1.5}},
		SlowStore:  &sim.SlowStore{Delay: time.Millisecond, Prob: 0.5},
	}
	var back sim.Scenario
	if err := json.Unmarshal([]byte(sc.String()), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Fatalf("round trip changed the scenario:\n  in:  %+v\n  out: %+v", sc, back)
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []sim.Scenario{
		{Latency: -1},
		{DropProb: 1.5},
		{DupProb: -0.1},
		{Partitions: []sim.Partition{{From: 5, Until: 5}}},
		{Partitions: []sim.Partition{{From: 0, Until: 1, Ranks: []int{9}}}},
		{Crashes: []sim.Crash{{Rank: 0, At: 0}}},
		{Crashes: []sim.Crash{{Rank: 5, At: 1}}},
		{Skews: map[int]sim.Skew{7: {}}},
	}
	for i, sc := range bad {
		if _, err := sim.New(2, sc); err == nil {
			t.Errorf("scenario %d accepted, want error", i)
		}
	}
}

// TestTaskHoldsVirtualTime: a helper task started through the clock seam is
// an actor the scheduler counts. While it works in wall time virtual time
// stands still — even with every rank parked and a delivery pending — so
// what it posts is stamped at the instant it was started in; its virtual
// sleeps elapse; and a rank blocked in wait counts as blocked, not running.
func TestTaskHoldsVirtualTime(t *testing.T) {
	s, w := ring(t, sim.Scenario{Seed: 1, Latency: time.Millisecond, Partitions: []sim.Partition{
		// Rank 1 is cut off throughout: its own task's event must not care.
		{From: 0, Until: time.Hour, Ranks: []int{1}},
	}})
	w.RankDone(0)
	c := w.Comm(1)
	const tag = -40
	var posted, woke time.Duration
	waitTask := clock.Go(s.RankClock(1), func() {
		time.Sleep(20 * time.Millisecond) // wall-time work the scheduler cannot see
		posted = s.Elapsed()
		c.Notify(tag)
		s.Sleep(5 * time.Millisecond)
		woke = s.Elapsed()
	})
	// Rank 1 parks; only the task's event can wake it.
	_, m := c.Select([]mpi.RecvSpec{{Source: mpi.AnySource, Tag: tag}})
	if m.Source != mpi.Local || posted != 0 {
		t.Fatalf("event from %d, posted at %v: want mpi.Local, posted at virtual 0 (time must not pass a running task)", m.Source, posted)
	}
	if got := s.Elapsed(); got != time.Millisecond {
		t.Fatalf("the task's event arrived at %v, want the link latency (1ms) and no partition hold", got)
	}
	waitTask() // the only live rank blocks here; the task's sleep must still elapse
	if woke != 5*time.Millisecond {
		t.Fatalf("the task woke at %v, want 5ms", woke)
	}
}
