package sim

import (
	"fmt"
	"time"

	"ccift/internal/mpi"
)

// transport is the mpi.Transport for one incarnation's world. Frames are
// encoded with the shared wire codec, scheduled through the event heap
// with the scenario's latency/fault model, and decoded into per-rank
// mpi.Mailbox instances, which supply matching and world-death semantics.
type transport struct {
	s     *Sim
	w     *mpi.World
	boxes []*mpi.Mailbox
}

// NewTransport builds the transport for w and attaches it as the
// simulation's current incarnation; in-flight frames of the previous
// incarnation are dropped at dispatch (a rollback discards its world and
// everything it had in the air). Plug it into mpi.Options.NewTransport or
// engine.Config.NewTransport.
func (s *Sim) NewTransport(w *mpi.World) mpi.Transport {
	if w.Size() != s.n {
		panic(fmt.Sprintf("sim: world size %d != simulated cluster size %d", w.Size(), s.n))
	}
	t := &transport{s: s, w: w, boxes: make([]*mpi.Mailbox, s.n)}
	for i := range t.boxes {
		t.boxes[i] = mpi.NewMailbox(w)
	}
	s.mu.Lock()
	s.curTr = t
	for r := 0; r < s.n; r++ {
		s.parked[r] = false
		s.done[r] = false
		s.needWake[r] = false
		s.gen[r]++
	}
	s.parkedN, s.doneN = 0, 0
	s.cond.Broadcast()
	s.mu.Unlock()
	return t
}

// RankDone records that rank's goroutine has exited for this incarnation
// (mpi.World.RankDone forwards here); a done rank no longer holds back
// virtual time.
func (t *transport) RankDone(rank int) {
	s := t.s
	s.mu.Lock()
	if s.curTr == t && !s.done[rank] {
		s.done[rank] = true
		s.doneN++
		if s.parked[rank] {
			s.parked[rank] = false
			s.parkedN--
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Send encodes m and schedules its delivery at dst under the scenario's
// fault model. The draw order on a link is fixed (latency, losses, then
// duplication), so the schedule is a pure function of (scenario, link,
// frame index).
func (t *transport) Send(dst int, m *mpi.Message) {
	src := m.Source
	frame := mpi.AppendMessage(nil, m)
	t.w.Release(m) // the frame is what travels (and what a duplicate re-delivers)

	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.curTr != t || s.stopped {
		return
	}
	lk := linkKey{src: src, dst: dst}
	l := s.link(lk)
	l.seq++

	// Departure: a frame sent into a partition window is held by the
	// reliability layer and leaves when the partition heals (windows may
	// chain back to back). A rank's own task reporting back (mpi.Local)
	// crosses no network, so no partition holds it; it takes the link
	// latency like any frame, which is what lands it at a quiescence point.
	dep := s.now
	for changed := src != mpi.Local; changed; {
		changed = false
		for _, p := range s.sc.Partitions {
			if dep >= p.From && dep < p.Until && p.separates(src, dst) {
				dep = p.Until
				changed = true
			}
		}
	}
	if dep > s.now {
		s.st.Held++
	}

	at := dep + s.sc.Latency + draw(l.rng, s.sc.Jitter)
	// Transient loss: the reliable layer retransmits after its timeout;
	// repeated losses compound. The frame is never lost for good — the
	// paper's model assumes reliable delivery underneath.
	for i := 0; i < 64 && s.sc.DropProb > 0 && l.rng.Float64() < s.sc.DropProb; i++ {
		at += s.sc.rto()
		s.st.Retransmits++
	}
	// MPI's non-overtaking guarantee: a frame may not pass its
	// predecessor on the same link.
	if at < l.lastAt {
		at = l.lastAt
	}
	l.lastAt = at
	s.push(&event{at: at, kind: evDeliver, tr: t, dst: dst, lk: lk, linkSeq: l.seq, frame: frame})

	// Duplication: the retransmission path redelivers an already-arrived
	// frame later; sequence dedup suppresses it at dispatch.
	if s.sc.DupProb > 0 && l.rng.Float64() < s.sc.DupProb {
		dupAt := at + s.sc.Latency + draw(l.rng, s.sc.Jitter)
		s.push(&event{at: dupAt, kind: evDeliver, tr: t, dst: dst, lk: lk, linkSeq: l.seq, frame: frame})
		s.st.Duplicated++
	}
}

func draw(rng *prng, width time.Duration) time.Duration {
	if width <= 0 {
		return 0
	}
	return time.Duration(rng.Int63n(int64(width)))
}

// Await blocks rank until a message matching one of specs is queued. The
// park is visible to the scheduler (quiescence accounting), and the
// mailbox's Poll supplies matching and ErrWorldDead/ErrCanceled exactly as
// the in-process substrate does.
func (t *transport) Await(rank int, specs []mpi.RecvSpec) (int, *mpi.Message) {
	i, m := t.awaitCond(rank, specs, nil)
	return i, m
}

// AwaitCond is Await with a cancellation condition, re-evaluated whenever
// the rank is woken (delivery or Interrupt).
func (t *transport) AwaitCond(rank int, specs []mpi.RecvSpec, stop func() bool) (int, *mpi.Message) {
	if stop == nil {
		stop = func() bool { return false }
	}
	return t.awaitCond(rank, specs, stop)
}

func (t *transport) awaitCond(rank int, specs []mpi.RecvSpec, stop func() bool) (int, *mpi.Message) {
	s := t.s
	for {
		s.mu.Lock()
		g := s.gen[rank]
		s.mu.Unlock()
		// Poll outside the simulation lock (lock order: sim.mu is taken
		// before the mailbox lock on the delivery path). It panics with
		// the halt sentinel once the world is shut down or canceled.
		if i, m := t.boxes[rank].Poll(specs); m != nil {
			return i, m
		}
		if stop != nil && stop() {
			return -1, nil
		}
		s.mu.Lock()
		if s.gen[rank] != g || s.stopped {
			s.mu.Unlock()
			continue
		}
		if !s.parked[rank] {
			s.parked[rank] = true
			s.parkedN++
		}
		s.cond.Broadcast() // quiescence may have been reached
		for s.gen[rank] == g && !s.stopped {
			s.rankCond[rank].Wait()
		}
		// The waker (bumpGen) already cleared the parked flag.
		s.mu.Unlock()
	}
}

func (t *transport) Poll(rank int, specs []mpi.RecvSpec) (int, *mpi.Message) {
	return t.boxes[rank].Poll(specs)
}

func (t *transport) Probe(rank int, spec mpi.RecvSpec) (bool, *mpi.Message) {
	return t.boxes[rank].Probe(spec)
}

func (t *transport) Pending(rank int) int { return t.boxes[rank].Pending() }

func (t *transport) PendingApp(rank int, _ int64) int { return t.boxes[rank].PendingApp(0) }

// Interrupt wakes every parked rank so AwaitCond conditions and
// world-death are re-observed; mailbox waiters (none in normal sim
// operation, but Comm paths may hold them) are interrupted too.
func (t *transport) Interrupt() {
	s := t.s
	s.mu.Lock()
	for r := 0; r < s.n; r++ {
		s.bumpGen(r)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, b := range t.boxes {
		b.Interrupt()
	}
}
