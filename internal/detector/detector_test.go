package detector

import (
	"sync/atomic"
	"testing"
	"time"

	"ccift/internal/sim"
)

// All detector tests run on the simulated virtual clock: a clock-only
// simulation free-runs through pending timers, so suspicion timeouts and
// heartbeat schedules elapse in microseconds of wall time and the tests
// contain no real sleeps at all.

func virtualClock(t *testing.T) *sim.Sim {
	t.Helper()
	s, err := sim.New(0, sim.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestCompleteness(t *testing.T) {
	// A rank that stops heartbeating is eventually suspected.
	s := virtualClock(t)
	clk := s.Clock()
	d := New(3, 20*time.Millisecond, clk)
	for len(d.Suspects()) == 0 {
		if s.Elapsed() > 2*time.Second {
			t.Fatal("silent ranks never suspected")
		}
		d.Heartbeat(0)
		d.Heartbeat(1) // rank 2 is silent
		s.Sleep(time.Millisecond)
	}
	sus := d.Suspects()
	if len(sus) != 1 || sus[0] != 2 {
		t.Fatalf("suspects = %v", sus)
	}
}

func TestAccuracy(t *testing.T) {
	// Ranks heartbeating faster than the timeout are never suspected.
	s := virtualClock(t)
	clk := s.Clock()
	d := New(2, 100*time.Millisecond, clk)
	for s.Elapsed() < 300*time.Millisecond {
		d.Heartbeat(0)
		d.Heartbeat(1)
		if len(d.Suspects()) > 0 {
			t.Fatalf("false suspicion: %v", d.Suspects())
		}
		s.Sleep(5 * time.Millisecond)
	}
}

func TestMonitorFiresOnDeath(t *testing.T) {
	s := virtualClock(t)
	clk := s.Clock()
	d := New(2, 30*time.Millisecond, clk)
	var dead atomic.Bool
	fired := make(chan []int, 1)
	stop := make(chan struct{})
	defer close(stop)

	d.Monitor(5*time.Millisecond,
		func(rank int) bool { return rank == 0 || !dead.Load() },
		func(sus []int) { fired <- sus },
		stop)

	s.Sleep(50 * time.Millisecond) // both alive: no suspicion yet
	select {
	case sus := <-fired:
		t.Fatalf("premature suspicion: %v", sus)
	default:
	}

	dead.Store(true) // rank 1's runtime stops
	select {
	case sus := <-fired:
		if len(sus) != 1 || sus[0] != 1 {
			t.Fatalf("suspects = %v", sus)
		}
	case <-time.After(10 * time.Second):
		// Wall-clock backstop only; virtually this fires ~30ms after the
		// death.
		t.Fatal("death never detected")
	}
}

func TestMonitorSuspicionLatencyIsOneTimeout(t *testing.T) {
	// Virtual time makes detection latency exactly measurable: a rank dead
	// from the start is suspected after one timeout (+ at most one period),
	// not sooner.
	s := virtualClock(t)
	clk := s.Clock()
	timeout := 200 * time.Millisecond
	d := New(2, timeout, clk)
	fired := make(chan []int, 1)
	stop := make(chan struct{})
	defer close(stop)

	var at time.Duration
	d.Monitor(timeout/4,
		func(rank int) bool { return rank == 0 },
		func(sus []int) { at = s.Elapsed(); fired <- sus },
		stop)

	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("death never detected")
	}
	if at < timeout || at > timeout+timeout/2 {
		t.Fatalf("suspected at virtual %v, want within [%v, %v]", at, timeout, timeout+timeout/2)
	}
}

func TestMonitorStops(t *testing.T) {
	s := virtualClock(t)
	clk := s.Clock()
	d := New(1, time.Millisecond, clk)
	stop := make(chan struct{})
	fired := make(chan []int, 1)
	d.Monitor(time.Millisecond, func(int) bool { return true }, func(sus []int) { fired <- sus }, stop)
	close(stop)
	s.Sleep(20 * time.Millisecond)
	select {
	case sus := <-fired:
		t.Fatalf("monitor fired after stop: %v", sus)
	default:
	}
}
