package mpi

import "fmt"

// Request is the handle of a non-blocking operation (MPI_Request). The
// protocol layer wraps these in pseudo-handles so they can be reconstructed
// after a restart (Section 5.2).
type Request struct {
	comm *Comm
	// For receives: the posted spec. For sends: nil (the transport copies
	// eagerly, so a send completes at post time, like a buffered send).
	recv *RecvSpec
	done bool
	msg  *Message
}

// Spec returns the posted receive spec of an Irecv request.
func (r *Request) Spec() (source, tag int) {
	if r.recv == nil {
		panic("mpi: Spec on a send request")
	}
	return r.recv.Source, r.recv.Tag
}

// Send delivers data to dst with the given tag. Delivery is reliable and
// eager: the payload is copied into the destination mailbox before Send
// returns (the transport has unbounded buffering, as the paper's reliable
// delivery layer provides). Sends to stop-failed ranks vanish, which is
// indistinguishable from the failed process never receiving them.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.world.enter(c.members[c.myIdx])
	c.send(dst, tag, data)
}

// SendHdr is Send with an out-of-band 32-bit header word (the second
// segment of the wire format). The protocol layer packs its piggyback here
// instead of prepending it to the payload, so attaching control
// information costs no extra allocation or copy.
func (c *Comm) SendHdr(dst, tag int, header uint32, data []byte) {
	c.world.enter(c.members[c.myIdx])
	c.sendh(dst, tag, header, data)
}

// SendShared delivers data without the defensive copy: the caller hands
// the buffer over and must not modify it after the call (the receiver, and
// anyone the caller deliberately shares it with, see the same bytes). This
// is the zero-copy handoff a real transport performs when the send buffer
// is DMA-ready; SenderLog, its one caller, uses it to share one immutable
// buffer between its retained log entry and the wire. The message it
// allocates owns no payload, so World.Release ignores it.
func (c *Comm) SendShared(dst, tag int, data []byte) {
	c.world.enter(c.members[c.myIdx])
	wdst := c.worldRank(dst)
	if c.world.killed[wdst].Load() {
		return
	}
	c.world.tr.Send(wdst, &Message{Source: c.myIdx, Tag: tag, Data: data, ctx: c.ctx})
}

// send is the uncounted send core; collectives use it so that one
// collective counts as one operation for kill plans.
func (c *Comm) send(dst, tag int, data []byte) {
	c.sendh(dst, tag, 0, data)
}

func (c *Comm) sendh(dst, tag int, header uint32, data []byte) {
	wdst := c.worldRank(dst)
	if c.world.killed[wdst].Load() {
		return // stopping failure: the destination no longer receives
	}
	m := c.world.message(len(data))
	m.Source, m.Tag, m.Header, m.ctx = c.myIdx, tag, header, c.ctx
	copy(m.Data, data)
	c.world.tr.Send(wdst, m)
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(src, tag int) *Message {
	c.world.enter(c.members[c.myIdx])
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) *Message {
	_, m := c.world.tr.Await(c.members[c.myIdx], c.spec1(RecvSpec{Source: src, Tag: tag}))
	return m
}

// Isend posts a non-blocking send. Because the transport copies eagerly,
// the returned request is already complete; Wait on it returns immediately
// with a nil message, matching MPI's semantics that completion of a send
// request only means the buffer is reusable.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.world.enter(c.members[c.myIdx])
	c.send(dst, tag, data)
	return &Request{comm: c, done: true}
}

// Irecv posts a non-blocking receive. Matching is performed lazily at
// Wait/Test time, which preserves MPI's guarantee that the message is
// matched against the posted spec.
func (c *Comm) Irecv(src, tag int) *Request {
	c.world.enter(c.members[c.myIdx])
	return &Request{comm: c, recv: &RecvSpec{Source: src, Tag: tag, ctx: c.ctx}}
}

// Wait blocks until the request completes. For receives it returns the
// delivered message; for sends it returns nil.
func (c *Comm) Wait(r *Request) *Message {
	c.world.enter(c.members[c.myIdx])
	return c.wait(r)
}

func (c *Comm) wait(r *Request) *Message {
	if r.done {
		return r.msg
	}
	if r.recv == nil {
		r.done = true
		return nil
	}
	_, m := c.world.tr.Await(c.members[c.myIdx], c.spec1(*r.recv))
	r.done = true
	r.msg = m
	return m
}

// Test checks the request without blocking. ok reports completion.
func (c *Comm) Test(r *Request) (*Message, bool) {
	c.world.enter(c.members[c.myIdx])
	if r.done {
		return r.msg, true
	}
	if r.recv == nil {
		r.done = true
		return nil, true
	}
	if _, m := c.world.tr.Poll(c.members[c.myIdx], c.spec1(*r.recv)); m != nil {
		r.done = true
		r.msg = m
		return m, true
	}
	return nil, false
}

// Iprobe reports whether a message matching (src, tag) is available,
// without receiving it.
func (c *Comm) Iprobe(src, tag int) (bool, *Message) {
	c.world.enter(c.members[c.myIdx])
	return c.world.tr.Probe(c.members[c.myIdx], RecvSpec{Source: src, Tag: tag, ctx: c.ctx})
}

// Select blocks until a message matching any of the given (source, tag)
// specs is available and receives it, returning the index of the matching
// spec. The protocol layer uses this to wait for application messages and
// control messages simultaneously.
func (c *Comm) Select(specs []RecvSpec) (int, *Message) {
	c.world.enter(c.members[c.myIdx])
	return c.world.tr.Await(c.members[c.myIdx], c.stamp(specs))
}

// SelectWait is Select with a cancellation condition: it also returns
// (-1, nil) once stop() reports true. stop is re-evaluated whenever a
// message arrives or World.Interrupt runs, so a caller can park here and
// be woken by either control traffic or an external completion signal —
// the engine's finished ranks do exactly that instead of busy-polling.
func (c *Comm) SelectWait(specs []RecvSpec, stop func() bool) (int, *Message) {
	c.world.enter(c.members[c.myIdx])
	return c.world.tr.AwaitCond(c.members[c.myIdx], c.stamp(specs), stop)
}

// Local is the Source of a message that no rank sent: a rank's own helper
// task posted it with Notify.
const Local = -2

// Notify queues an empty message with the given (reserved, negative) tag in
// this rank's own mailbox, where a Select on this communicator with an
// AnySource spec for the tag receives it. It is how a task the rank started
// — the checkpoint flusher — reports back, so unlike every other method of
// a Comm it may be called from another goroutine than the rank's, and it is
// not a substrate operation: it counts no op, consults no kill plan and
// never panics. The transport orders the event like any delivery (the
// simulated one at a quiescence point), and a rank parked in Select or
// SelectWait wakes for it.
func (c *Comm) Notify(tag int) {
	c.world.tr.Send(c.members[c.myIdx], &Message{Source: Local, Tag: tag, ctx: c.ctx})
}

// PollSelect is the non-blocking variant of Select; it returns (-1, nil)
// when nothing matches.
func (c *Comm) PollSelect(specs []RecvSpec) (int, *Message) {
	c.world.enter(c.members[c.myIdx])
	return c.world.tr.Poll(c.members[c.myIdx], c.stamp(specs))
}

// stamp copies specs into the communicator's scratch buffer with this
// communicator's context filled in. The scratch is reused across calls —
// a Comm serves one rank's single-threaded program, so per-call slice
// allocations on the receive hot path would be pure overhead.
func (c *Comm) stamp(specs []RecvSpec) []RecvSpec {
	if cap(c.scratch) < len(specs) {
		c.scratch = make([]RecvSpec, len(specs))
	}
	out := c.scratch[:len(specs)]
	for i, s := range specs {
		s.ctx = c.ctx
		out[i] = s
	}
	return out
}

// spec1 stamps a single spec into the scratch buffer.
func (c *Comm) spec1(s RecvSpec) []RecvSpec {
	if cap(c.scratch) < 1 {
		c.scratch = make([]RecvSpec, 1)
	}
	s.ctx = c.ctx
	c.scratch[0] = s
	return c.scratch[:1]
}

// Pending reports the number of undelivered messages queued for this rank
// across all communicators (diagnostics).
func (c *Comm) Pending() int { return c.world.tr.Pending(c.members[c.myIdx]) }

// PendingApp reports the number of undelivered application messages
// (non-negative tags) queued for this rank on this communicator, excluding
// internal collective and reserved-tag traffic.
func (c *Comm) PendingApp() int { return c.world.tr.PendingApp(c.members[c.myIdx], c.ctx) }

func (c *Comm) String() string {
	return fmt.Sprintf("comm(ctx=%d rank=%d/%d)", c.ctx, c.myIdx, len(c.members))
}
