package mpi

// Send delivers data to dst with the given tag. Delivery is reliable and
// eager: the payload is copied into the destination mailbox before Send
// returns (the transport has unbounded buffering, as the paper's reliable
// delivery layer provides). Sends to stop-failed ranks vanish, which is
// indistinguishable from the failed process never receiving them.
func (c *Comm) Send(dst, tag int, data []byte) {
	c.world.enter(c.rank)
	c.send(dst, tag, data)
}

// SendHdr is Send with an out-of-band 32-bit header word (the second
// segment of the wire format). The protocol layer packs its piggyback here
// instead of prepending it to the payload, so attaching control
// information costs no extra allocation or copy.
func (c *Comm) SendHdr(dst, tag int, header uint32, data []byte) {
	c.world.enter(c.rank)
	c.sendh(dst, tag, header, data)
}

// send is the uncounted send core; collectives use it so that one
// collective counts as one operation for kill plans.
func (c *Comm) send(dst, tag int, data []byte) {
	c.sendh(dst, tag, 0, data)
}

func (c *Comm) sendh(dst, tag int, header uint32, data []byte) {
	c.world.checkRank(dst)
	if c.world.killed[dst].Load() {
		return // stopping failure: the destination no longer receives
	}
	m := c.world.message(len(data))
	m.Source, m.Tag, m.Header = c.rank, tag, header
	copy(m.Data, data)
	c.world.tr.Send(dst, m)
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
// src may be AnySource and tag may be AnyTag.
func (c *Comm) Recv(src, tag int) *Message {
	c.world.enter(c.rank)
	return c.recv(src, tag)
}

func (c *Comm) recv(src, tag int) *Message {
	_, m := c.world.tr.Await(c.rank, c.spec1(src, tag))
	return m
}

// Iprobe reports whether a message matching (src, tag) is available,
// without receiving it.
func (c *Comm) Iprobe(src, tag int) (bool, *Message) {
	c.world.enter(c.rank)
	return c.world.tr.Probe(c.rank, RecvSpec{Source: src, Tag: tag})
}

// Select blocks until a message matching any of the given (source, tag)
// specs is available and receives it, returning the index of the matching
// spec. The protocol layer uses this to wait for application messages and
// control messages simultaneously.
func (c *Comm) Select(specs []RecvSpec) (int, *Message) {
	c.world.enter(c.rank)
	return c.world.tr.Await(c.rank, specs)
}

// SelectWait is Select with a cancellation condition: it also returns
// (-1, nil) once stop() reports true. stop is re-evaluated whenever a
// message arrives or World.Interrupt runs, so a caller can park here and
// be woken by either control traffic or an external completion signal —
// the engine's finished ranks do exactly that instead of busy-polling.
func (c *Comm) SelectWait(specs []RecvSpec, stop func() bool) (int, *Message) {
	c.world.enter(c.rank)
	return c.world.tr.AwaitCond(c.rank, specs, stop)
}

// Local is the Source of a message that no rank sent: a rank's own helper
// task posted it with Notify.
const Local = -2

// Notify queues an empty message with the given (reserved, negative) tag and
// header word in this rank's own mailbox, where a Select with an AnySource
// spec for the tag receives it. It is how a task the rank started — the
// checkpoint flusher — reports back, so unlike every other method of a Comm
// it may be called from another goroutine than the rank's, and it is not a
// substrate operation: it counts no op, consults no kill plan and never
// panics. The transport orders the event like any delivery (the simulated
// one at a quiescence point), and a rank parked in Select or SelectWait
// wakes for it.
func (c *Comm) Notify(tag int, header uint32) {
	c.world.tr.Send(c.rank, &Message{Source: Local, Tag: tag, Header: header})
}

// PollSelect is the non-blocking variant of Select; it returns (-1, nil)
// when nothing matches.
func (c *Comm) PollSelect(specs []RecvSpec) (int, *Message) {
	c.world.enter(c.rank)
	return c.world.tr.Poll(c.rank, specs)
}

// spec1 is the one-spec list of a receive from (src, tag), held on the Comm:
// a Comm serves one rank's single-threaded program, so a per-call slice on
// the receive hot path would be pure overhead.
func (c *Comm) spec1(src, tag int) []RecvSpec {
	c.one[0] = RecvSpec{Source: src, Tag: tag}
	return c.one[:]
}

// Pending reports the number of undelivered messages queued for this rank
// (diagnostics).
func (c *Comm) Pending() int { return c.world.tr.Pending(c.rank) }
