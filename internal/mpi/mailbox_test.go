package mpi

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpinGate: the gate is a pure state machine. It closes when misses
// lead hits by gateMisses, lets every gateProbe-th wait through while
// closed, and one hit reopens it — on probation: hits pay misses back one
// for one, so the next miss closes it again.
func TestSpinGate(t *testing.T) {
	type step struct {
		waits int  // consecutive waits arriving at the park point
		spins int  // how many of them the gate must let spin
		hit   bool // outcome recorded for each spin
	}
	closed := step{gateMisses, gateMisses, false} // from a fresh gate
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"open while spins pay off", []step{{100, 100, true}}},
		{"misses close it", []step{closed, {gateProbe - 1, 0, false}}},
		{"hits pay misses back one for one", []step{{gateMisses - 1, gateMisses - 1, false}, {gateMisses - 1, gateMisses - 1, true}, closed, {gateProbe - 1, 0, false}}},
		{"isolated misses among hits never close it", []step{{1, 1, false}, {1, 1, true}, {1, 1, false}, {1, 1, true}, {1, 1, false}, {1, 1, true}, {1, 1, false}, {1, 1, true}, {gateMisses - 1, gateMisses - 1, false}, {1, 1, true}}},
		{"closed, every gateProbe-th wait probes", []step{closed, {5 * gateProbe, 5, false}}},
		{"one hit reopens", []step{closed, {gateProbe, 1, true}, {gateMisses, gateMisses, true}}},
		{"reopened by one hit, the next miss closes it", []step{closed, {gateProbe, 1, true}, {1, 1, false}, {gateProbe - 1, 0, false}, {1, 1, false}}},
	} {
		var g spinGate
		for i, s := range tc.steps {
			spins := 0
			for w := 0; w < s.waits; w++ {
				if g.allow() {
					spins++
					g.record(s.hit)
				}
			}
			if spins != s.spins {
				t.Errorf("%s: step %d let %d of %d waits spin, want %d", tc.name, i, spins, s.waits, s.spins)
			}
		}
	}
}

// spinBox is rank 0's mailbox of a fresh one-rank world, with hook run
// inside the unlocked window of each spin.
func spinBox(hook func(w *World, b *mailbox)) (*World, *mailbox) {
	w := NewWorld(1, Options{})
	b := w.tr.(*inprocTransport).boxes[0]
	b.spinHook = func() { hook(w, b) }
	return w, b
}

// finish runs wait on its own goroutine and returns what it returned or
// panicked with; a wait that lost its wake-up is a failure, not a hung test
// binary.
func finish(t *testing.T, wait func() (int, *Message)) (si int, m *Message, panicked any) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		si, m = wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the wait never returned: what happened during its spin was lost")
	}
	return si, m, panicked
}

var anything = []RecvSpec{{Source: AnySource, Tag: 7}}

// TestSpinWindow places each event a waiter must not lose inside the one
// window in which it holds no lock and is not on the condition variable's
// list: between giving up the lock to spin and taking it again. A waiter
// that went from its spin to cond.Wait without re-running the whole loop
// head would sleep through every one of them.
func TestSpinWindow(t *testing.T) {
	t.Run("interrupt with stop", func(t *testing.T) {
		var stop atomic.Bool
		_, b := spinBox(func(w *World, _ *mailbox) {
			stop.Store(true)
			w.Interrupt()
		})
		si, m, p := finish(t, func() (int, *Message) { return b.wait(anything, stop.Load) })
		if si != -1 || m != nil || p != nil || b.parks != 0 {
			t.Fatalf("wait = (%d, %v), panic %v, %d parks; want (-1, nil) without a park", si, m, p, b.parks)
		}
	})
	for _, halt := range []struct {
		name string
		do   func(*World)
		want error
	}{
		{"shutdown", (*World).Shutdown, ErrWorldDead},
		{"cancel", (*World).Cancel, ErrCanceled},
	} {
		t.Run(halt.name, func(t *testing.T) {
			_, b := spinBox(func(w *World, _ *mailbox) { halt.do(w) })
			start := time.Now()
			_, _, p := finish(t, func() (int, *Message) { return b.wait(anything, nil) })
			if p != halt.want || b.parks != 0 {
				t.Fatalf("panic %v after %d parks, want %v without a park", p, b.parks, halt.want)
			}
			// The halt's interrupt ends the spin; it does not run out the budget.
			if d := time.Since(start); d > time.Second {
				t.Fatalf("the halt took %v to reach a spinning waiter", d)
			}
		})
	}
	t.Run("deliver", func(t *testing.T) {
		_, b := spinBox(func(_ *World, b *mailbox) { b.deliver(&Message{Source: 0, Tag: 7, Data: []byte("x")}) })
		si, m, p := finish(t, func() (int, *Message) { return b.wait(anything, nil) })
		if si != 0 || m == nil || string(m.Data) != "x" || p != nil || b.parks != 0 {
			t.Fatalf("wait = (%d, %v), panic %v, %d parks; want the message without a park", si, m, p, b.parks)
		}
	})
}

// TestGateFollowsWhatTheMailboxSees: a mailbox whose messages always come
// later than a spin lasts stops spinning by itself, keeps probing, and
// takes spinning up again when a probe pays off. The sender here delivers
// only once the receiver has parked, which is a miss by construction.
func TestGateFollowsWhatTheMailboxSees(t *testing.T) {
	spins, deliverInSpin := 0, false
	_, b := spinBox(func(_ *World, b *mailbox) {
		spins++
		if deliverInSpin {
			b.deliver(&Message{Source: 0, Tag: 7})
		}
	})
	lateWait := func() {
		b.mu.Lock()
		parked := b.parks
		b.mu.Unlock()
		go func() {
			for {
				b.mu.Lock()
				p := b.parks
				b.mu.Unlock()
				if p > parked {
					b.deliver(&Message{Source: 0, Tag: 7})
					return
				}
				time.Sleep(20 * time.Microsecond)
			}
		}()
		if _, m, p := finish(t, func() (int, *Message) { return b.wait(anything, nil) }); m == nil || p != nil {
			t.Fatalf("wait = %v, panic %v", m, p)
		}
	}
	const lateWaits = gateMisses + 2*gateProbe
	for i := 0; i < lateWaits; i++ {
		lateWait()
	}
	if want := gateMisses + 2; spins != want || b.parks != lateWaits {
		t.Fatalf("%d late waits: %d spins and %d parks, want %d spins (the misses that close the gate, then one probe per %d) and every wait parked", lateWaits, spins, b.parks, want, gateProbe)
	}
	// The next probe finds its message during the spin: the gate reopens and
	// every wait after it spins again.
	for i := 0; i < gateProbe-1; i++ {
		lateWait()
	}
	spins, deliverInSpin = 0, true
	for i := 0; i < 3; i++ {
		if _, m, _ := finish(t, func() (int, *Message) { return b.wait(anything, nil) }); m == nil {
			t.Fatal("no message")
		}
	}
	if spins != 3 {
		t.Fatalf("after a probe that hit, %d of 3 waits spun", spins)
	}
}

// TestRecycledBucketsMatchLikeTheQueue: the indexed mailbox, whose buckets
// and per-tag indexes are swept and reused as collective rounds move to fresh
// tags, takes what an ordered scan of the queue would — the earliest queued
// message any spec accepts, ties to the lowest spec. The queue drains between
// rounds, so master keys are handed out again from the start: a heap entry
// left pointing at a recycled bucket would be taken for that bucket's new
// head here.
func TestRecycledBucketsMatchLikeTheQueue(t *testing.T) {
	_, b := spinBox(func(*World, *mailbox) {})
	rng := rand.New(rand.NewSource(31))
	var queue []*Message
	tag := 100
	for round := 0; round < 400; round++ {
		tags := []int{1, tag, tag + 1} // a tag every round shares, and two fresh ones
		tag += 2
		for n := scanThreshold + 1 + rng.Intn(8); n > 0; n-- {
			m := &Message{Source: rng.Intn(4), Tag: tags[rng.Intn(len(tags))]}
			b.deliver(m)
			queue = append(queue, m)
		}
		for len(queue) > 0 {
			specs := make([]RecvSpec, 1+rng.Intn(2))
			for i := range specs {
				q := queue[rng.Intn(len(queue))]
				specs[i] = RecvSpec{Source: q.Source, Tag: q.Tag}
				if rng.Intn(2) == 0 {
					specs[i].Source = AnySource
				}
			}
			wantAt, wantSpec := -1, -1
			for i, q := range queue {
				for si := range specs {
					if specs[si].matches(q) {
						wantAt, wantSpec = i, si
						break
					}
				}
				if wantAt >= 0 {
					break
				}
			}
			b.mu.Lock()
			si, m := b.tryMatch(specs)
			b.mu.Unlock()
			if m != queue[wantAt] || si != wantSpec {
				t.Fatalf("round %d: specs %+v matched spec %d, message %+v; the queue's first match is spec %d, %+v",
					round, specs, si, m, wantSpec, queue[wantAt])
			}
			queue = append(queue[:wantAt], queue[wantAt+1:]...)
		}
	}
	if len(b.freeBuckets) == 0 && len(b.freeTags) == 0 {
		t.Fatal("no bucket was ever swept")
	}
}

// TestFreshTagsAllocateNoBucket: a round of messages on fresh tags — what
// every collective round is — long enough to be indexed, allocates nothing
// once the first sweep has filled the free lists.
func TestFreshTagsAllocateNoBucket(t *testing.T) {
	_, b := spinBox(func(*World, *mailbox) {})
	msgs := make([]Message, 2*scanThreshold)
	spec := make([]RecvSpec, 1)
	tag := 0
	round := func() {
		for i := range msgs {
			msgs[i] = Message{Source: i % 2, Tag: tag + i/2}
			b.deliver(&msgs[i])
		}
		for i := range msgs {
			spec[0] = RecvSpec{Source: AnySource, Tag: tag + i/2}
			b.mu.Lock()
			_, m := b.tryMatch(spec)
			b.mu.Unlock()
			if m != &msgs[i] {
				panic(fmt.Sprintf("tag %d: matched %+v, want %+v", tag+i/2, m, msgs[i]))
			}
		}
		tag += len(msgs) / 2
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a round of %d messages on fresh tags made %.0f allocations, want none", len(msgs), allocs)
	}
}

var benchSink float64

// privateWork is n steps of arithmetic nobody else waits for: the compute
// between two exchanges of a lock-step program.
func privateWork(n int) {
	x := benchSink
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1e-6
	}
	benchSink = x
}

// BenchmarkLockstepAllgather is the pattern the back-to-back probes miss:
// two ranks that compute privately for a few microseconds — alternately the
// one, then the other, a little longer — and then exchange. With no compute
// between exchanges (bench's mpi.allgather_us) one goroutine readies the
// other and parks at once, which the runtime serves as a direct hand-off on
// one P; with compute the receiver is the early one, its sender is busy on
// the other P, and what the receiver does until the message comes is the
// whole cost. parks/op is rank 0's share of waits that slept.
func BenchmarkLockstepAllgather(b *testing.B) {
	w := NewWorld(2, Options{})
	box := w.tr.(*inprocTransport).boxes[0]
	rank := func(c *Comm) {
		mine, all := make([]byte, 256), make([]byte, 512)
		for i := 0; i < b.N; i++ {
			privateWork(2000 + 2000*((i+c.Rank())%2))
			c.AllgatherInto(all, mine, 0)
		}
	}
	b.ResetTimer()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		rank(w.Comm(1))
	}()
	rank(w.Comm(0))
	if p := <-done; p != nil {
		b.Fatal(fmt.Sprint("rank 1: ", p))
	}
	b.ReportMetric(float64(box.parks)/float64(b.N), "parks/op")
}
