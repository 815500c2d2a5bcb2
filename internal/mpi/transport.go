package mpi

// Transport is the wire substrate beneath a World: it moves wire messages
// between ranks and implements matched receive. The default is the
// in-process indexed-mailbox transport; alternative backends (latency
// models, cross-process shims) plug in through Options.NewTransport
// without the layers above — Comm, the protocol layer, the engine —
// changing at all.
//
// Contract every implementation must honor:
//
//   - Delivery is reliable and eager: Send completes once the message is
//     queued at the destination; the *Message (including Data) is owned by
//     the transport from that point and by the receiver after matching. A
//     transport that delivers an encoding of m, not m, may give m back with
//     World.Release once it is encoded.
//   - Per-sender order is preserved (MPI's non-overtaking guarantee);
//     cross-sender interleaving is unconstrained.
//   - Matching semantics are those of matchOrder: the queued message
//     earliest in delivery order that satisfies any spec wins, and ties
//     between specs go to the lowest spec index.
//   - Blocking calls must panic with ErrWorldDead once the world is shut
//     down (ErrCanceled once it is canceled), and re-check their condition
//     whenever Interrupt is called.
//   - A blocked call need not be asleep: Await and AwaitCond may yield-spin
//     briefly before they park (the mailbox does, see mailbox.wait), and an
//     implementation that does owes a spinning receiver what it owes a
//     parked one — Interrupt ends a spin as it ends a park, and no delivery,
//     stop condition or halt that lands while the receiver is between the
//     two is lost.
type Transport interface {
	// Send queues m at dst's mailbox. The transport takes ownership of m.
	Send(dst int, m *Message)
	// Await blocks rank until a message matching one of specs is queued,
	// removes and returns it together with the index of the matched spec.
	Await(rank int, specs []RecvSpec) (int, *Message)
	// AwaitCond is Await with a cancellation condition: it additionally
	// returns (-1, nil) once stop() reports true. stop is re-evaluated
	// under the mailbox lock whenever a message arrives or Interrupt runs,
	// and once more after a spin before the receiver parks.
	AwaitCond(rank int, specs []RecvSpec, stop func() bool) (int, *Message)
	// Poll is the non-blocking Await; (-1, nil) when nothing matches.
	Poll(rank int, specs []RecvSpec) (int, *Message)
	// Probe reports whether a message matching spec is queued for rank,
	// without removing it.
	Probe(rank int, spec RecvSpec) (bool, *Message)
	// Pending reports the number of queued messages for rank; PendingApp
	// restricts the count to application messages (Tag >= 0). PendingApp's
	// second argument names the world's communicator, whose context is
	// always 0; implementations ignore it.
	Pending(rank int) int
	PendingApp(rank int, ctx int64) int
	// Interrupt wakes every blocked receiver, spinning or parked, so
	// AwaitCond conditions and world-death are re-observed. Shutdown and
	// the engine's completion signal both route through here.
	Interrupt()
}

// inprocTransport is the default substrate: one indexed mailbox per rank
// in shared memory. It consults the World for world-death.
type inprocTransport struct {
	world *World
	boxes []*mailbox
}

func newInprocTransport(w *World) *inprocTransport {
	t := &inprocTransport{world: w, boxes: make([]*mailbox, w.size)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox(w)
	}
	return t
}

func (t *inprocTransport) Send(dst int, m *Message) { t.boxes[dst].deliver(m) }

func (t *inprocTransport) Await(rank int, specs []RecvSpec) (int, *Message) {
	return t.boxes[rank].wait(specs, nil)
}

func (t *inprocTransport) AwaitCond(rank int, specs []RecvSpec, stop func() bool) (int, *Message) {
	return t.boxes[rank].wait(specs, stop)
}

func (t *inprocTransport) Poll(rank int, specs []RecvSpec) (int, *Message) {
	return t.boxes[rank].poll(specs)
}

func (t *inprocTransport) Probe(rank int, spec RecvSpec) (bool, *Message) {
	return t.boxes[rank].probe(spec)
}

func (t *inprocTransport) Pending(rank int) int { return t.boxes[rank].pending() }

func (t *inprocTransport) PendingApp(rank int, _ int64) int { return t.boxes[rank].pendingApp() }

func (t *inprocTransport) Interrupt() {
	for _, b := range t.boxes {
		b.interrupt()
	}
}
