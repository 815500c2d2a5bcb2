package protocol

import (
	"fmt"

	"ccift/internal/mpi"
)

// Point-to-point operations. Every application call is intercepted here:
// sends get piggybacks attached (and are suppressed during recovery when
// their IDs appear in a receiver's early-ID set); receives strip and act on
// the piggyback (Figure 4's communicationEventHandler).

// Send delivers data to dst with the given tag through the protocol layer.
// The payload is copied, so the caller may reuse its buffer.
func (l *Layer) Send(dst, tag int, data []byte) {
	l.sendApp(dst, tag, data, false)
}

// SendOwned is Send for a buffer the caller hands over: no defensive copy
// is made, so data must not be modified after the call. The typed
// messaging front end encodes into a fresh buffer and sends it through
// here, making the encode the payload's only copy.
func (l *Layer) SendOwned(dst, tag int, data []byte) {
	l.sendApp(dst, tag, data, true)
}

func (l *Layer) sendApp(dst, tag int, data []byte, owned bool) {
	l.enterOp()
	if !l.active() {
		if owned {
			l.comm.SendShared(dst, tag, data)
		} else {
			l.comm.Send(dst, tag, data)
		}
		return
	}
	if tag < 0 {
		panic(fmt.Sprintf("protocol: application tags must be non-negative, got %d", tag))
	}
	pb, suppressed := l.m.appSend(dst)
	l.Stats.MessagesSent++
	l.Stats.BytesSent += int64(len(data))
	if suppressed {
		l.Stats.SuppressedSends++
		l.trace(TraceSendSuppressed, dst, tag, pb.MessageID, len(data))
		return
	}
	l.Stats.PiggybackBytes += pbBytes
	l.trace(TraceSend, dst, tag, pb.MessageID, len(data))
	// The packed piggyback travels in the wire message's header segment:
	// attaching it costs no allocation or copy of the payload.
	if owned {
		l.comm.SendSharedHdr(dst, tag, pb.Pack(), data)
	} else {
		l.comm.SendHdr(dst, tag, pb.Pack(), data)
	}
}

// Recv blocks until a message matching (src, tag) is delivered to the
// application; src may be mpi.AnySource and tag mpi.AnyTag. The payload is
// the caller's.
func (l *Layer) Recv(src, tag int) *AppMessage {
	l.enterOp()
	return l.receive(src, tag).app()
}

// RecvFunc is Recv for a caller that copies the payload out: take sees it,
// must not keep it, and once take returns the message goes back to the
// world (see WaitInto).
func (l *Layer) RecvFunc(src, tag int, take func(payload []byte)) {
	l.enterOp()
	d := l.receive(src, tag)
	take(d.data)
	l.consumed(d)
}

// delivery is an application message as the receive path hands it over:
// off the wire, with m the substrate message its payload lives in, or
// replayed from the recovery log, with m nil and the payload the log's.
type delivery struct {
	src, tag int
	data     []byte
	m        *mpi.Message
}

// app is the delivery as the allocating receives return it.
func (d delivery) app() *AppMessage {
	return &AppMessage{Source: d.src, Tag: d.tag, Data: d.data}
}

// consumed hands the delivery's substrate message back to the world once
// its payload has been copied out. A late message's log entry is the log's
// own copy (deliver), and a replayed payload belongs to the log, so nothing
// reads the message again.
func (l *Layer) consumed(d delivery) {
	if d.m != nil {
		l.comm.World().Release(d.m)
	}
}

// receive is the one receive path: a plain substrate receive outside the
// protocol, recvApp under it.
func (l *Layer) receive(src, tag int) delivery {
	if !l.active() {
		m := l.comm.Recv(src, tag)
		return delivery{src: m.Source, tag: m.Tag, data: m.Data, m: m}
	}
	return l.recvApp(src, tag)
}

// recvApp is the protocol's delivery path behind every receive. It
// consults the recovery replay first, then performs a live receive while
// servicing control traffic.
func (l *Layer) recvApp(src, tag int) delivery {
	d, ok := l.replayHead(src, tag)
	if ok {
		return d
	}
	for {
		idx, m := l.comm.Select(l.appSelectSpecs(d.src, d.tag))
		if idx == 0 {
			return l.deliver(m, src == mpi.AnySource || tag == mpi.AnyTag)
		}
		l.handleControl(idx-1, m)
	}
}

// replayHead is the recovery replay's part of every receive of (src, tag).
// ok reports one the log completes: a late message, which its sender will
// not re-send. Otherwise d holds the (src, tag) to match live, narrowed to
// the sender a logged wildcard receive resolved to (deliver consumes that
// entry once the message arrives).
func (l *Layer) replayHead(src, tag int) (d delivery, ok bool) {
	d.src, d.tag = src, tag
	if l.replay == nil {
		return d, false
	}
	seq := l.recvSeq
	if e := l.replay.Late(seq); e != nil {
		if src != mpi.AnySource && src != e.Src || tag != mpi.AnyTag && tag != e.Tag {
			panic(fmt.Sprintf("protocol: rank %d replay divergence at recv %d: logged (src=%d,tag=%d), requested (src=%d,tag=%d)",
				l.rank, seq, e.Src, e.Tag, src, tag))
		}
		l.recvSeq++
		l.Stats.ReplayedLate++
		l.trace(TraceReplayLate, e.Src, e.Tag, 0, len(e.Data))
		return delivery{src: e.Src, tag: e.Tag, data: e.Data}, true
	}
	if e := l.replay.PeekWildcard(seq); e != nil {
		d.src, d.tag = e.Src, e.Tag
	}
	return d, false
}

// appSelectSpecs builds {app spec, control specs...} in the layer's
// reusable buffer — this runs once per application receive, so a fresh
// slice per call would put an allocation on the hot path.
func (l *Layer) appSelectSpecs(src, tag int) []mpi.RecvSpec {
	l.selSpecs = l.selSpecs[:0]
	l.selSpecs = append(l.selSpecs, mpi.RecvSpec{Source: src, Tag: tag})
	l.selSpecs = append(l.selSpecs, controlSpecs...)
	return l.selSpecs
}

// deliver processes an incoming application message: strip the piggyback,
// classify, bookkeep, and hand the payload to the application.
func (l *Layer) deliver(m *mpi.Message, wasWildcard bool) delivery {
	if l.replay != nil {
		l.replay.ConsumeWildcard(l.recvSeq)
	}
	// Zero-copy detach: the piggyback rides in the header segment and the
	// payload is handed to the application as-is.
	pb, payload := UnpackPiggyback(m.Header), m.Data
	switch l.m.appReceive(m.Source, pb) {
	case Early:
		l.Stats.EarlyRecorded++
		l.trace(TraceRecvEarly, m.Source, m.Tag, pb.MessageID, len(payload))
	case Intra:
		l.act() // a log the message ended is written before the application sees it
		l.trace(TraceRecvIntra, m.Source, m.Tag, pb.MessageID, len(payload))
		if l.m.amLogging && wasWildcard {
			l.log.Add(Entry{Kind: KindWildcard, Seq: l.recvSeq, Src: m.Source, Tag: m.Tag})
		}
	case Late:
		cp := make([]byte, len(payload))
		copy(cp, payload)
		l.log.Add(Entry{Kind: KindLate, Seq: l.recvSeq, Src: m.Source, Tag: m.Tag, Data: cp})
		l.Stats.LateLogged++
		l.trace(TraceRecvLate, m.Source, m.Tag, pb.MessageID, len(payload))
	}
	l.act()
	l.recvSeq++
	return delivery{src: m.Source, tag: m.Tag, data: payload, m: m}
}

// --- Request pseudo-handles (Section 5.2, transient opaque objects) ---

// Handle is an application-visible pseudo-handle for an MPI_Request. The
// application only ever sees pseudo-handles; the real request objects live
// inside the layer and are reconstructed on recovery.
type Handle int64

// reqState is a live request behind a pseudo-handle. A completed request
// is released at once, so the only complete one in the table is a send —
// or whatever a restored request record says.
type reqState struct {
	isRecv   bool
	src, tag int
	done     bool
}

// sendDone is the state of every Isend request: the transport copies
// eagerly, so a send is complete at birth, and nothing writes to a complete
// request's state — they can all share this one.
var sendDone = &reqState{done: true}

// Isend posts a non-blocking send and returns its pseudo-handle. The
// transport copies eagerly, so the request is immediately complete: on
// recovery, Wait on a pre-checkpoint Isend handle must return immediately
// (the message is either in the receiver's checkpoint or in its log), which
// is exactly what a completed pseudo-handle does.
func (l *Layer) Isend(dst, tag int, data []byte) Handle {
	l.Send(dst, tag, data)
	return l.handles.newRequest(sendDone)
}

// Irecv posts a non-blocking receive and returns its pseudo-handle.
// Matching happens at Wait/Test time, which is also where the paper places
// the delivery event (the destination of a message arrow is where MPI_Wait
// would return, Section 2).
func (l *Layer) Irecv(src, tag int) Handle {
	l.enterOp()
	return l.handles.newRecv(src, tag)
}

// Wait blocks until the request completes; for receives it returns the
// delivered message, for sends nil. The pseudo-handle is released.
func (l *Layer) Wait(h Handle) *AppMessage {
	if d, ok := l.complete(h); ok {
		return d.app()
	}
	return nil
}

// WaitInto is Wait for a receive whose payload the caller copies into dst,
// a buffer of exactly the payload's length (anything else panics, naming
// both). Once the payload is copied the message goes back to the world's
// free list, so a receive the program repeats — a halo exchange — allocates
// nothing. A send request completes and leaves dst alone.
func (l *Layer) WaitInto(h Handle, dst []byte) {
	d, ok := l.complete(h)
	if !ok {
		return
	}
	if len(d.data) != len(dst) {
		panic(fmt.Sprintf("protocol: rank %d: WaitInto a %d-byte buffer, the message from rank %d (tag %d) carries %d bytes",
			l.rank, len(dst), d.src, d.tag, len(d.data)))
	}
	copy(dst, d.data)
	l.consumed(d)
}

// complete blocks until the request completes and releases its
// pseudo-handle; ok reports a receive, d its message.
func (l *Layer) complete(h Handle) (d delivery, ok bool) {
	st := l.handles.request(h)
	if !st.done && st.isRecv {
		d, ok = l.receive(st.src, st.tag), true
	}
	l.handles.release(h)
	return d, ok
}

// Test checks a request without blocking; ok reports completion, and a
// completed request is released.
func (l *Layer) Test(h Handle) (*AppMessage, bool) {
	l.enterOp()
	st := l.handles.request(h)
	if st.done || !st.isRecv {
		l.handles.release(h)
		return nil, true
	}
	d, ok := l.replayHead(st.src, st.tag)
	if !ok {
		l.selSpecs = append(l.selSpecs[:0], mpi.RecvSpec{Source: d.src, Tag: d.tag})
		idx, m := l.comm.PollSelect(l.selSpecs)
		if idx != 0 || m == nil {
			return nil, false
		}
		d = l.deliver(m, st.src == mpi.AnySource || st.tag == mpi.AnyTag)
	}
	l.handles.release(h)
	return d.app(), true
}

// Iprobe reports whether a message matching (src, tag) is available
// without consuming it, returning the matched source and tag (useful with
// wildcards). Control traffic is serviced first, so a probe cannot starve
// the protocol. During log replay, a pending logged late message for the
// current receive sequence also reports as available: recovery must see
// the same message availability the original execution saw.
func (l *Layer) Iprobe(src, tag int) (ok bool, msgSrc, msgTag int) {
	l.enterOp()
	if !l.active() {
		ok, m := l.comm.Iprobe(src, tag)
		if !ok {
			return false, 0, 0
		}
		return true, m.Source, m.Tag
	}
	if l.replay != nil {
		if e := l.replay.PeekLate(l.recvSeq); e != nil {
			if (src == mpi.AnySource || src == e.Src) && (tag == mpi.AnyTag || tag == e.Tag) {
				return true, e.Src, e.Tag
			}
			return false, 0, 0
		}
	}
	ok2, m := l.comm.Iprobe(src, tag)
	if !ok2 {
		return false, 0, 0
	}
	return true, m.Source, m.Tag
}
