// Package sim is the deterministic discrete-event simulation substrate:
// a third mpi.Transport (beside the in-process mailboxes and the TCP
// mesh) whose network and clocks are simulated, so whole-cluster fault
// schedules — latency, loss, duplication, partitions, clock skew, slow
// disks, crashes — run in one process, in virtual time, reproducibly from
// a seed.
//
// # Design
//
// One goroutine (the scheduler) owns virtual time and an event heap.
// Frames in flight, timer firings, rank crashes and sleep wakeups are all
// events. Virtual time advances only at quiescence — when every live rank
// of the attached world is parked in the transport (or blocked in a
// virtual sleep) — and then jumps straight to the next event, so a
// 1000-rank minute of heartbeat traffic costs milliseconds of wall time.
// Events already due dispatch eagerly without waiting for quiescence,
// which is what makes zero-latency scenarios (the conformance suite)
// behave like an ordinary transport.
//
// What counts as running: each live rank of the attached world, and each
// helper task a rank started through its clock (clock.Go — the protocol
// layer's checkpoint flush is one). An actor stops counting while it is
// parked in the transport, in a virtual sleep (the slow store's delays), or
// — a rank — waiting for its own task.
// So a flush task hashing a chunk in wall time holds virtual time still,
// the same task waiting out a slow Put lets it run on, and whatever the
// task posts is stamped at an instant the scenario decides, not the host.
//
// Determinism: sends are stamped at the frozen virtual now; every random
// draw comes from a per-link PRNG stream keyed by (seed, src, dst), so
// concurrent goroutine interleaving can neither reorder nor perturb draws;
// and events due at the same instant dispatch in a fixed order (link
// identity, then link sequence). With Latency > 0 every delivery lands at a
// quiescence point, making the full event order — and therefore results and
// protocol counters — a pure function of (program, scenario). The scheduler
// applies the whole batch of due events before waking any rank, so a rank
// never observes a half-applied instant.
//
// That holds for a run with asynchronous helpers because a task is started
// through the clock, never with a bare go statement; it reports back with
// mpi.Comm.Notify — an event on a link of its own (source mpi.Local),
// delivered after the link latency like any frame, not a channel its rank
// polls at a wall-time-dependent moment; and it makes its store calls from
// one goroutine in a fixed order (storage.ChunkedWriter, storage.Assemble).
// Two actors touching the shared store at one virtual instant do run in
// wall-time order; the simulated store makes the outcome independent of it
// (see simStore: a Put is visible to the dedup probe from the next instant
// on), and a SlowStore draws each stall from the operation, its key and
// its instant, so its Jitter replays too.
//
// The transport decodes wire frames into the exported mpi.Mailbox, so
// matching semantics and ErrWorldDead/ErrCanceled propagation are
// inherited from the in-process substrate unchanged. Per-link latency and
// jitter are the substrate's message-order adversary: with Jitter larger
// than Latency a frame can arrive ahead of a causally earlier frame from
// another sender, while the FIFO clamp keeps each link in send order.
package sim

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"ccift/internal/clock"
	"ccift/internal/mpi"
)

// simBase is the fixed origin of virtual time: every simulation starts at
// the same instant, so absolute clock readings are reproducible too.
var simBase = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	evDeliver = iota // frame arrival at a mailbox
	evWake           // virtual-sleep wakeup
	evCrash          // scenario rank crash
	evTimer          // clock.AfterFunc firing
)

type linkKey struct{ src, dst int }

type link struct {
	rng       *prng
	seq       uint64        // next frame sequence to assign
	delivered uint64        // highest sequence delivered (dedup floor)
	lastAt    time.Duration // FIFO clamp: no frame may overtake its predecessor
}

type event struct {
	at   time.Duration
	kind int8

	// evDeliver
	tr      *transport
	dst     int
	lk      linkKey
	linkSeq uint64
	frame   []byte

	// evWake
	flag *bool

	// evTimer
	fn       func()
	canceled bool
	fired    bool

	seq uint64 // insertion order, final tiebreak
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.lk != b.lk {
		if a.lk.src != b.lk.src {
			return a.lk.src < b.lk.src
		}
		return a.lk.dst < b.lk.dst
	}
	if a.linkSeq != b.linkSeq {
		return a.linkSeq < b.linkSeq
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) peek() *event { return h[0] }

// Stats counts simulation activity; Sim.Stats returns a snapshot.
type Stats struct {
	Delivered     int64 // frames delivered into mailboxes
	Duplicated    int64 // duplicate frames injected
	DupSuppressed int64 // duplicate frames suppressed by sequence dedup
	Retransmits   int64 // transient losses masked by retransmission
	Held          int64 // frames held by a partition window
	StaleDropped  int64 // frames from a discarded incarnation dropped
	Crashes       int64 // scenario crashes applied
	TimerFirings  int64 // clock timers fired
	Sleeps        int64 // virtual sleeps completed
}

// Sim is one simulated cluster: the virtual clock, the event heap, and
// the fault model. It persists across incarnations of a run (the engine
// builds a fresh mpi.World per incarnation via NewTransport; the clock
// keeps advancing through rollbacks, as a real cluster's would).
type Sim struct {
	n  int
	sc Scenario

	mu   sync.Mutex
	cond *sync.Cond // scheduler wakeup: new events, parking changes, stop

	now      time.Duration
	events   eventHeap
	seq      uint64
	stopped  bool
	batching bool // scheduler is mid-batch: defer rank wakeups

	curTr    *transport
	parked   []bool
	done     []bool
	gen      []uint64
	rankCond []*sync.Cond
	needWake []bool
	parkedN  int
	doneN    int
	sleepers int
	tasks    int // helper tasks started through simClock.Go and not yet returned

	sleepCond *sync.Cond // virtual sleepers wait here

	links map[linkKey]*link
	st    Stats
}

// New builds a simulated cluster of n ranks. n == 0 builds a free-running
// clock-only simulation (no transport; time advances whenever a timer is
// pending) for driving clock-dependent units like the detector in tests.
// The scheduler goroutine runs until Stop.
func New(n int, sc Scenario) (*Sim, error) {
	if err := sc.Validate(n); err != nil {
		return nil, err
	}
	s := &Sim{
		n:        n,
		sc:       sc,
		parked:   make([]bool, n),
		done:     make([]bool, n),
		gen:      make([]uint64, n),
		rankCond: make([]*sync.Cond, n),
		needWake: make([]bool, n),
		links:    map[linkKey]*link{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.sleepCond = sync.NewCond(&s.mu)
	for i := range s.rankCond {
		s.rankCond[i] = sync.NewCond(&s.mu)
	}
	for _, c := range sc.Crashes {
		s.push(&event{at: c.At, kind: evCrash, dst: c.Rank})
	}
	go s.loop()
	return s, nil
}

// Stop terminates the scheduler and wakes anything blocked on the
// simulation. Idempotent.
func (s *Sim) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.sleepCond.Broadcast()
	for _, c := range s.rankCond {
		c.Broadcast()
	}
	s.mu.Unlock()
}

// Stats returns a snapshot of the simulation counters.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// Elapsed returns the current virtual time since the simulation began.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// push inserts an event (mu held) and wakes the scheduler.
func (s *Sim) push(e *event) {
	s.seq++
	e.seq = s.seq
	heap.Push(&s.events, e)
	s.cond.Broadcast()
}

// bumpGen wakes rank r out of its transport park (mu held). The wakeup
// itself is deferred to the end of the current batch so a rank never runs
// in the middle of a half-applied virtual instant; the parked flag is
// cleared here, by the waker, so quiescence accounting is exact even
// before the rank goroutine is scheduled.
func (s *Sim) bumpGen(r int) {
	s.gen[r]++
	if s.parked[r] {
		s.parked[r] = false
		s.parkedN--
	}
	s.needWake[r] = true
	if !s.batching {
		s.flushWakes()
	}
}

// flushWakes broadcasts every deferred rank wakeup (mu held).
func (s *Sim) flushWakes() {
	for r, w := range s.needWake {
		if w {
			s.needWake[r] = false
			s.rankCond[r].Broadcast()
		}
	}
}

// canAdvance reports whether virtual time may jump to the next event
// (mu held): every actor — each live rank of the attached world and each
// helper task a rank started through its clock (see simClock.Go) — must be
// parked in the transport or blocked in a virtual sleep. With no ranks
// (n == 0) the clock free-runs on pending timers.
func (s *Sim) canAdvance() bool {
	if s.n == 0 {
		return true
	}
	active := s.tasks
	if s.curTr != nil {
		active += s.n - s.doneN
	}
	blocked := s.parkedN + s.sleepers
	return blocked >= active && blocked > 0
}

// loop is the scheduler goroutine: dispatch due events, advance time at
// quiescence, otherwise wait.
func (s *Sim) loop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped {
		// Drop canceled timers so they cannot cause a spurious time jump.
		for len(s.events) > 0 && s.events.peek().canceled {
			heap.Pop(&s.events)
		}
		if len(s.events) > 0 && s.events.peek().at <= s.now {
			s.dispatchDue()
			continue
		}
		if len(s.events) > 0 && s.canAdvance() {
			s.now = s.events.peek().at
			continue
		}
		s.cond.Wait()
	}
}

// dispatchDue applies every event due at the current instant (mu held).
// Deliveries and crashes are applied first, under the lock and with rank
// wakeups deferred; timer callbacks (which may take the simulation lock
// themselves via Interrupt/Shutdown) run after, outside the lock, in
// deterministic heap order; deferred wakeups flush last.
func (s *Sim) dispatchDue() {
	s.batching = true
	var fns []func()
	for len(s.events) > 0 && s.events.peek().at <= s.now {
		e := heap.Pop(&s.events).(*event)
		switch e.kind {
		case evDeliver:
			if e.tr != s.curTr {
				s.st.StaleDropped++
				continue
			}
			l := s.links[e.lk]
			if e.linkSeq <= l.delivered {
				s.st.DupSuppressed++
				continue
			}
			l.delivered = e.linkSeq
			m, err := mpi.DecodeMessage(e.frame)
			if err != nil {
				panic(fmt.Sprintf("sim: corrupt internal frame: %v", err))
			}
			e.tr.boxes[e.dst].Deliver(m)
			s.st.Delivered++
			s.bumpGen(e.dst)
		case evWake:
			*e.flag = true
			// The waker decrements the sleeper count, exactly like bumpGen
			// clears parked: if the count lingered until the woken goroutine
			// was scheduled, the scheduler could keep advancing time through
			// unrelated events in the gap — nondeterministically far.
			s.sleepers--
			s.st.Sleeps++
			s.sleepCond.Broadcast()
		case evCrash:
			if s.curTr != nil && !s.done[e.dst] {
				s.curTr.w.Kill(e.dst)
				s.st.Crashes++
			}
		case evTimer:
			if e.canceled {
				continue
			}
			e.fired = true
			s.st.TimerFirings++
			fns = append(fns, e.fn)
		}
	}
	if len(fns) > 0 {
		s.mu.Unlock()
		for _, f := range fns {
			f()
		}
		s.mu.Lock()
	}
	s.batching = false
	s.flushWakes()
}

// Sleep blocks the calling goroutine for d of virtual time. The caller
// counts as blocked for quiescence purposes, so time advances past the
// wakeup; unlike a wall sleep this costs microseconds regardless of d.
func (s *Sim) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	woken := false
	s.push(&event{at: s.now + d, kind: evWake, flag: &woken})
	s.sleepers++
	s.cond.Broadcast()
	for !woken && !s.stopped {
		s.sleepCond.Wait()
	}
	if !woken {
		s.sleepers-- // unwound by Stop; the wake event never dispatched
	}
}

// link returns (creating on first use) the per-link state for lk; its
// PRNG stream depends only on (Seed, lk), never on traffic elsewhere. The 0
// is part of every stream's seed: without it, every seed would draw another
// schedule.
func (s *Sim) link(lk linkKey) *link {
	l := s.links[lk]
	if l == nil {
		l = &link{rng: newPRNG(mix(s.sc.Seed, 0, int64(lk.src), int64(lk.dst)))}
		s.links[lk] = l
	}
	return l
}

// prng is a tiny splitmix64 generator. Link streams are created per
// (seed, src, dst) — n² of them in an n-rank world — and
// math/rand's 607-word LFG seeding dominated 512-rank profiles; splitmix
// seeds in one word and draws in a few cycles.
type prng struct{ state uint64 }

func newPRNG(seed int64) *prng { return &prng{state: uint64(seed)} }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (p *prng) Float64() float64 { return float64(p.next()>>11) / (1 << 53) }

// Int63n returns a uniform draw in [0, n). The modulo bias at realistic
// widths (nanosecond jitter windows, far below 2^63) is immeasurable.
func (p *prng) Int63n(n int64) int64 { return int64(p.next() % uint64(n)) }

// mix folds the parts into a 64-bit seed (splitmix64 finalizer).
func mix(parts ...int64) int64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h)
}

// ---------------------------------------------------------------------------
// Clocks

// simClock is a (possibly skewed) view of the virtual clock.
type simClock struct {
	s  *Sim
	sk Skew
}

// Clock returns the unskewed virtual clock.
func (s *Sim) Clock() clock.Clock { return simClock{s: s} }

// RankClock returns rank r's (possibly skewed) view of the virtual clock.
func (s *Sim) RankClock(r int) clock.Clock {
	if sk, ok := s.sc.Skews[r]; ok {
		return simClock{s: s, sk: sk}
	}
	return simClock{s: s}
}

// DetectorClock returns the failure detector's view of the virtual clock.
func (s *Sim) DetectorClock() clock.Clock {
	if s.sc.DetectorSkew != nil {
		return simClock{s: s, sk: *s.sc.DetectorSkew}
	}
	return simClock{s: s}
}

func (c simClock) Now() time.Time {
	c.s.mu.Lock()
	now := c.s.now
	c.s.mu.Unlock()
	return simBase.Add(time.Duration(float64(now)*c.sk.rate()) + c.sk.Offset)
}

func (c simClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

func (c simClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	dv := time.Duration(float64(d) / c.sk.rate())
	if dv < 0 {
		dv = 0
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	e := &event{at: c.s.now + dv, kind: evTimer, fn: f}
	if c.s.stopped {
		// A stopped simulation fires no timers; hand back an inert handle.
		e.canceled = true
		return simTimer{s: c.s, e: e}
	}
	c.s.push(e)
	return simTimer{s: c.s, e: e}
}

// Go implements the clock.Go seam: f runs on its own goroutine as an actor
// the scheduler counts (see the package comment), from this call until f
// returns. The returned wait blocks until then, and its caller — a rank
// draining its flush — counts as blocked meanwhile, so the sleeps f is
// waiting out can elapse.
func (c simClock) Go(f func()) (wait func()) {
	s := c.s
	var done, waiting bool
	exited := make(chan struct{})
	s.mu.Lock()
	s.tasks++
	s.mu.Unlock()
	go func() {
		defer close(exited)
		f()
		s.mu.Lock()
		s.tasks--
		done = true
		if waiting {
			s.sleepers-- // the waker clears the waiter's count, as evWake does
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	return func() {
		s.mu.Lock()
		if !done {
			waiting = true
			s.sleepers++
			s.cond.Broadcast()
		}
		s.mu.Unlock()
		<-exited
	}
}

type simTimer struct {
	s *Sim
	e *event
}

func (t simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.e.fired || t.e.canceled {
		return false
	}
	t.e.canceled = true
	return true
}
