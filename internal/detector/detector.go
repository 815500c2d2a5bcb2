// Package detector simulates the distributed failure detector the paper's
// problem statement assumes ("a mechanism such as a distributed failure
// detector [8] for detecting failed processes"): each process's runtime
// emits periodic heartbeats, and a process unheard-from for longer than
// the suspicion timeout is suspected of having stopped.
//
// Under the stopping-failure model this heartbeat detector is complete (a
// stopped process stops heartbeating and is eventually suspected) and,
// once timeouts exceed the heartbeat period plus scheduling jitter,
// accurate (a live process keeps beating and is never suspected). The
// engine uses it to trigger rollback instead of relying on the failed
// process announcing its own death, which a real stopped process cannot
// do.
package detector

import (
	"sync"
	"time"

	"ccift/internal/clock"
)

// Detector tracks per-rank heartbeats and derives suspicions.
type Detector struct {
	mu      sync.Mutex
	last    []time.Time
	timeout time.Duration
	clk     clock.Clock
}

// New builds a detector for n ranks with the given suspicion timeout,
// scheduled against clk (nil selects the wall clock; the simulated
// substrate passes its virtual clock so suspicion elapses in virtual
// time). Every rank starts "just heard from", so a process that dies
// before its first heartbeat is still detected one timeout later.
func New(n int, timeout time.Duration, clk clock.Clock) *Detector {
	d := &Detector{last: make([]time.Time, n), timeout: timeout, clk: clock.Or(clk)}
	now := d.clk.Now()
	for i := range d.last {
		d.last[i] = now
	}
	return d
}

// Heartbeat records a sign of life from rank.
func (d *Detector) Heartbeat(rank int) {
	d.mu.Lock()
	d.last[rank] = d.clk.Now()
	d.mu.Unlock()
}

// Suspects returns the ranks unheard-from for longer than the timeout.
func (d *Detector) Suspects() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	cutoff := d.clk.Now().Add(-d.timeout)
	var out []int
	for r, t := range d.last {
		if t.Before(cutoff) {
			out = append(out, r)
		}
	}
	return out
}

// Monitor runs heartbeat generation and suspicion polling for a set of
// simulated process runtimes. alive reports whether a rank's process still
// exists (its runtime heartbeats independently of application progress, as
// a real MPI daemon does — a process blocked in a receive is alive, a
// stopped one is not). onSuspect fires once, with the first suspect set;
// stop ends monitoring. Monitor returns immediately; ticks are a
// re-arming timer chain on the detector's clock (no dedicated goroutine),
// so under a virtual clock a 30-second suspicion elapses in microseconds.
// The chain ends after onSuspect or once stop is closed.
func (d *Detector) Monitor(period time.Duration, alive func(rank int) bool, onSuspect func([]int), stop <-chan struct{}) {
	n := len(d.last)
	var tick func()
	tick = func() {
		select {
		case <-stop:
			return
		default:
		}
		for r := 0; r < n; r++ {
			if alive(r) {
				d.Heartbeat(r)
			}
		}
		if s := d.Suspects(); len(s) > 0 {
			onSuspect(s)
			return
		}
		d.clk.AfterFunc(period, tick)
	}
	d.clk.AfterFunc(period, tick)
}
