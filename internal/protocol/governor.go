package protocol

import (
	"sync"
	"time"

	"ccift/internal/clock"
)

// The flush bandwidth governor. An ungoverned background flusher competes
// with the rank for memory bandwidth and the store device, and the PR5
// benchmarks showed it stealing ~35% of the rank's compute throughput
// while a flush is in flight. The governor closes the loop: the rank's
// compute-iteration rate (PotentialCheckpoint calls per second, already
// counted for Stats) is measured in flush-free windows to form an idle
// baseline, each flush window's rate is compared against it, and a
// token-bucket cap on the flusher's writes is adjusted AIMD-style so the
// observed slowdown converges to the target fraction (default 10%).
//
// Two knobs feed the same bucket: the adaptive rate above (async mode
// only — a synchronous flush blocks the rank by construction, and
// throttling it would only lengthen the stall), and an optional fixed
// bytes-per-second cap (WithFlushBandwidth) honored on both paths, which
// also makes throttling deterministic under the simulated clock. Sleeps
// go through clock.After, and their total per flush is reported up
// through the flushTask into Stats.FlushThrottleNs and the
// ccift_flush_throttle_ns histogram.

// Governor tuning constants.
const (
	// govTargetSlowdown is the allowed fractional loss of rank compute
	// throughput while a flush is in flight.
	govTargetSlowdown = 0.10
	// govMinRate is the adaptive cap's floor: flushes always make
	// progress, so a commit is delayed, never starved.
	govMinRate = 1 << 20 // 1 MiB/s
	// govDecrease and govIncrease are the AIMD factors applied to the
	// adaptive cap after each flush window.
	govDecrease = 0.5
	govIncrease = 1.25
	// govBurst bounds the token bucket (and therefore the largest
	// uninterrupted write run) in seconds of the current rate.
	govBurstSeconds = 0.25
	// govMinWindow is the shortest window whose ops rate is trusted;
	// shorter windows are noise.
	govMinWindow = time.Millisecond
	// govMinSleep batches token-bucket sleeps: a deficit shorter than
	// this accrues instead of scheduling a timer, so the governor costs
	// one timer per ~millisecond of throttling, not one per Write.
	govMinSleep = time.Millisecond
)

// flushGovernor is shared between the rank goroutine (feedback updates at
// flush boundaries) and the flush task (token-bucket acquire on
// every chunk-stream write); mu guards all of it.
type flushGovernor struct {
	clk  clock.Clock
	done <-chan struct{} // the run context's; nil (never ready) without one

	mu sync.Mutex
	// fixed is the WithFlushBandwidth cap in bytes/sec; 0 = none.
	fixed float64
	// adaptive is the feedback-controlled cap in bytes/sec; 0 = not yet
	// constrained. Only consulted when adapt is true (async mode).
	adaptive float64
	adapt    bool
	// idleRate is an EMA of the rank's ops/sec with no flush in flight.
	idleRate float64
	// Token bucket: tokens available at time last.
	tokens float64
	last   time.Time
	// throttleNs accumulates sleep time until drained by the flusher.
	throttleNs int64
}

func newFlushGovernor(clk clock.Clock, done <-chan struct{}, fixedBPS float64, adapt bool) *flushGovernor {
	return &flushGovernor{clk: clk, done: done, fixed: fixedBPS, adapt: adapt, last: clk.Now()}
}

// rate returns the effective cap in bytes/sec, 0 meaning unlimited.
func (g *flushGovernor) rate() float64 {
	r := g.fixed
	if g.adapt && g.adaptive > 0 && (r == 0 || g.adaptive < r) {
		r = g.adaptive
	}
	return r
}

// observeIdle feeds one flush-free window's compute rate into the idle
// baseline EMA. Called on the rank goroutine when a flush starts.
func (g *flushGovernor) observeIdle(ops int64, window time.Duration) {
	if window < govMinWindow || ops <= 0 {
		return
	}
	r := float64(ops) / window.Seconds()
	g.mu.Lock()
	if g.idleRate == 0 {
		g.idleRate = r
	} else {
		g.idleRate = 0.7*g.idleRate + 0.3*r
	}
	g.mu.Unlock()
}

// observeFlush feeds one flush window's compute rate back into the
// adaptive cap: multiplicative decrease when the rank slowed past the
// target, gentle increase when it did not (so the cap re-probes after
// transient interference). flushBytes/flushDur describe the flush that
// just completed; its achieved bandwidth seeds the cap's scale on the
// first decrease. Called on the rank goroutine when a flush integrates.
func (g *flushGovernor) observeFlush(ops int64, window time.Duration, flushBytes int64, flushDur time.Duration) {
	if !g.adapt || window < govMinWindow {
		return
	}
	r := float64(ops) / window.Seconds()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.idleRate == 0 {
		return // no baseline yet
	}
	if r < (1-govTargetSlowdown)*g.idleRate {
		if g.adaptive == 0 {
			// First constraint: start from the bandwidth the offending
			// flush actually achieved, then back off from there.
			if flushBytes <= 0 || flushDur <= 0 {
				return
			}
			g.adaptive = float64(flushBytes) / flushDur.Seconds()
		}
		g.adaptive *= govDecrease
		if g.adaptive < govMinRate {
			g.adaptive = govMinRate
		}
	} else if g.adaptive > 0 {
		g.adaptive *= govIncrease
	}
}

// acquire charges n bytes against the token bucket and, when that leaves
// the bucket in debt, sleeps the debt off once before the write proceeds.
// The charge is unconditional: a write larger than a full bucket (256 KB
// at the floor rate) pays its whole deficit and goes ahead, where waiting
// for a capped bucket to hold n tokens would never end. The sleep also
// ends with the run's context; the writer behind it then fails on the
// same context. Runs on the writer's goroutine (the flusher in async mode,
// the rank in sync mode — where only the fixed cap applies).
func (g *flushGovernor) acquire(n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	r := g.rate()
	if r <= 0 {
		g.mu.Unlock()
		return
	}
	now := g.clk.Now()
	g.tokens += now.Sub(g.last).Seconds() * r
	g.last = now
	if burst := govBurstSeconds * r; g.tokens > burst {
		g.tokens = burst
	}
	g.tokens -= float64(n)
	d := time.Duration(-g.tokens / r * float64(time.Second))
	g.mu.Unlock()
	// A debt shorter than govMinSleep accrues instead of scheduling a
	// timer; the next acquire pays it.
	if d < govMinSleep {
		return
	}
	select {
	case <-g.clk.After(d):
		g.mu.Lock()
		g.throttleNs += d.Nanoseconds()
		g.mu.Unlock()
	case <-g.done:
	}
}

// drainThrottle returns and clears the sleep time accumulated since the
// previous drain; the flush task leaves it in its flushTask.
func (g *flushGovernor) drainThrottle() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	ns := g.throttleNs
	g.throttleNs = 0
	return ns
}
