package protocol

import (
	"sync"
	"testing"
	"time"

	"ccift/internal/clock"
)

// stepClock is a virtual clock for one goroutine's sleeps: After(d) moves
// time forward by d and fires at once, unless frozen, in which case its
// timers never fire.
type stepClock struct {
	mu     sync.Mutex
	now    time.Time
	frozen bool
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c *stepClock) AfterFunc(time.Duration, func()) clock.Timer { panic("unused") }

func (c *stepClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.frozen {
		c.now = c.now.Add(d)
		ch <- c.now
	}
	return ch
}

// TestPacerOversizedWriteProceeds: at 1 MiB/s a full bucket holds 256 KB,
// so a pacer that waited for the bucket to hold a 1 MiB write would sleep
// forever (the ROADMAP item 0c livelock). The write pays its whole deficit
// — about a second — and goes ahead, and the writes behind it are paced at
// the same rate.
func TestPacerOversizedWriteProceeds(t *testing.T) {
	const rate = 1 << 20
	clk := &stepClock{now: time.Unix(1000, 0)}
	p := newFlushPacer(clk, nil, rate)
	if burst := paceBurstSeconds * rate; burst >= 1<<20 {
		t.Fatalf("a full bucket holds %v bytes: 1 MiB is not oversized", burst)
	}
	start := clk.Now()
	p.acquire(1 << 20)
	if d := clk.Since(start); d < 990*time.Millisecond || d > 1010*time.Millisecond {
		t.Fatalf("1 MiB at 1 MiB/s took %v of virtual time, want about 1 s", d)
	}
	if p.sleptNs != clk.Since(start).Nanoseconds() {
		t.Fatalf("throttle time %d ns, slept %v", p.sleptNs, clk.Since(start))
	}
	for i := 0; i < 4; i++ {
		p.acquire(256 << 10)
	}
	if d := clk.Since(start); d < 1990*time.Millisecond || d > 2010*time.Millisecond {
		t.Fatalf("2 MiB at 1 MiB/s took %v of virtual time, want about 2 s", d)
	}
}

// TestPacerSleepEndsOnCancel: a throttled flusher must notice that the run
// is over; the chunk writer behind acquire then fails on the same context.
func TestPacerSleepEndsOnCancel(t *testing.T) {
	done := make(chan struct{})
	p := newFlushPacer(&stepClock{now: time.Unix(1000, 0), frozen: true}, done, 1<<20)
	returned := make(chan struct{})
	go func() {
		p.acquire(1 << 20)
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("acquire returned with a second of debt, no tick of the clock and no cancellation")
	case <-time.After(20 * time.Millisecond):
	}
	close(done)
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire still asleep 5 s after the context was canceled")
	}
}
