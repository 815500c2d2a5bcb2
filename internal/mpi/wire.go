package mpi

import (
	"encoding/binary"
	"fmt"
)

// Wire encoding of one Message, used by cross-process transports. The
// layout mirrors the two-segment in-memory format: a fixed header (which
// carries the 32-bit protocol piggyback word out of band) followed by the
// payload, so decoding never re-allocates to strip control bytes.
//
//	ctx     int64   communicator context
//	source  int32   sender's rank within the communicator
//	tag     int32   application tag
//	header  uint32  out-of-band control word (protocol piggyback)
//	dlen    uint32  payload length
//	payload [dlen]byte
//
// All integers are little-endian.
const msgWireHeader = 24

// AppendMessage appends the wire encoding of m to buf and returns the
// extended slice. It is the encoder used by transports that move messages
// between address spaces; the in-process transport never pays for it.
func AppendMessage(buf []byte, m *Message) []byte {
	var h [msgWireHeader]byte
	binary.LittleEndian.PutUint64(h[0:], uint64(m.ctx))
	binary.LittleEndian.PutUint32(h[8:], uint32(int32(m.Source)))
	binary.LittleEndian.PutUint32(h[12:], uint32(int32(m.Tag)))
	binary.LittleEndian.PutUint32(h[16:], m.Header)
	binary.LittleEndian.PutUint32(h[20:], uint32(len(m.Data)))
	buf = append(buf, h[:]...)
	return append(buf, m.Data...)
}

// DecodeMessage parses exactly one encoded message from b. The returned
// Message owns a fresh copy of the payload, so the caller may reuse b — and
// the world it is delivered in may recycle it, once a receiver releases it.
func DecodeMessage(b []byte) (*Message, error) {
	if len(b) < msgWireHeader {
		return nil, fmt.Errorf("mpi: message frame too short: %d bytes", len(b))
	}
	dlen := int(binary.LittleEndian.Uint32(b[20:]))
	if len(b) != msgWireHeader+dlen {
		return nil, fmt.Errorf("mpi: message frame length %d, want %d", len(b), msgWireHeader+dlen)
	}
	m := &Message{
		Source: int(int32(binary.LittleEndian.Uint32(b[8:]))),
		Tag:    int(int32(binary.LittleEndian.Uint32(b[12:]))),
		Header: binary.LittleEndian.Uint32(b[16:]),
		ctx:    int64(binary.LittleEndian.Uint64(b[0:])),

		recyclable: true,
	}
	if dlen > 0 {
		m.Data = make([]byte, dlen)
		copy(m.Data, b[msgWireHeader:])
	}
	return m, nil
}

// Mailbox is the exported handle on the indexed mailbox, for Transport
// implementations outside this package: a cross-process transport decodes
// frames arriving on its sockets into a Mailbox and inherits matchOrder
// semantics — ordering, tie-breaking, Probe/Poll/Await behaviour, chaos
// insertion, and ErrWorldDead propagation — unchanged from the in-process
// substrate.
type Mailbox struct{ b *mailbox }

// NewMailbox builds a mailbox attached to w (for world-death checks and
// chaos insertion).
func NewMailbox(w *World) *Mailbox { return &Mailbox{b: newMailbox(w)} }

// Deliver queues m, applying the world's chaos insertion policy, and wakes
// waiting receivers.
func (mb *Mailbox) Deliver(m *Message) { mb.b.deliver(m) }

// Await blocks until a message matching one of specs is queued, removes and
// returns it with the index of the matched spec. Panics with ErrWorldDead
// once the world is shut down.
func (mb *Mailbox) Await(specs []RecvSpec) (int, *Message) { return mb.b.wait(specs, nil) }

// AwaitCond is Await with a cancellation condition; it returns (-1, nil)
// once stop() reports true, re-evaluating whenever the mailbox is woken.
func (mb *Mailbox) AwaitCond(specs []RecvSpec, stop func() bool) (int, *Message) {
	return mb.b.wait(specs, stop)
}

// Poll is the non-blocking Await.
func (mb *Mailbox) Poll(specs []RecvSpec) (int, *Message) { return mb.b.poll(specs) }

// Probe reports whether a message matching spec is queued, without removing
// it.
func (mb *Mailbox) Probe(spec RecvSpec) (bool, *Message) { return mb.b.probe(spec) }

// Pending reports the number of queued messages.
func (mb *Mailbox) Pending() int { return mb.b.pending() }

// PendingApp reports the number of queued application messages (Tag >= 0)
// on ctx.
func (mb *Mailbox) PendingApp(ctx int64) int { return mb.b.pendingApp(ctx) }

// Interrupt wakes every receiver blocked on the mailbox so AwaitCond
// conditions and world-death are re-observed.
func (mb *Mailbox) Interrupt() { mb.b.interrupt() }
