package protocol

import (
	"time"

	"ccift/internal/clock"
)

// Flush pacing: the fixed WithFlushBandwidth cap, and nothing else. A layer
// built with a cap charges every state-stream write against a token bucket
// filled at that many bytes per second; a layer built without one — the
// default — has no pacer, and its checkpoint stream reaches the chunk
// writer unwrapped (writeState). The rate is the operator's number: nothing
// in the layer measures the rank and adjusts it.

const (
	// paceBurstSeconds bounds the bucket, and so the largest write run
	// that goes unpaced after an idle spell, in seconds of the rate.
	paceBurstSeconds = 0.25
	// paceMinSleep batches the sleeps: a debt shorter than this accrues
	// instead of scheduling a timer, so pacing costs one timer per
	// millisecond of throttling, not one per Write.
	paceMinSleep = time.Millisecond
)

// flushPacer is one layer's token bucket. Only the goroutine writing the
// checkpoint touches it — the flush task, or the rank under Policy.Sync —
// and a layer has one flush in flight at a time, each started and
// integrated by the rank, so it needs no lock.
type flushPacer struct {
	clk  clock.Clock
	done <-chan struct{} // the run context's; nil (never ready) without one
	rate float64         // bytes per second, > 0

	tokens  float64 // available at time last; negative is debt
	last    time.Time
	sleptNs int64 // total time slept: the layer's Stats.FlushThrottleNs
}

func newFlushPacer(clk clock.Clock, done <-chan struct{}, bytesPerSec float64) *flushPacer {
	return &flushPacer{clk: clk, done: done, rate: bytesPerSec, last: clk.Now()}
}

// acquire charges n bytes against the bucket and, when that leaves it in
// debt, sleeps the debt off once before the write proceeds. The charge is
// unconditional: a write larger than a full bucket pays its whole deficit
// and goes ahead, where waiting for a capped bucket to hold n tokens would
// never end. The sleep also ends with the run's context; the writer behind
// it then fails on the same context.
func (p *flushPacer) acquire(n int) {
	now := p.clk.Now()
	p.tokens = min(p.tokens+now.Sub(p.last).Seconds()*p.rate, paceBurstSeconds*p.rate)
	p.last = now
	p.tokens -= float64(n)
	d := time.Duration(-p.tokens / p.rate * float64(time.Second))
	if d < paceMinSleep {
		return // the next acquire pays it
	}
	select {
	case <-p.clk.After(d):
		p.sleptNs += d.Nanoseconds()
	case <-p.done:
	}
}
