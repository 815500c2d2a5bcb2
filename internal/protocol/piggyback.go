// Package protocol implements the paper's primary contribution: a
// non-blocking, coordinated checkpointing protocol that works with
// application-level state saving (Section 4). Figure 4 is one pure state
// machine (machine.go): the epoch, logging, the counts and the initiator's
// four control phases, stepped by events without a world. Layer is its I/O
// shell between the application and the MPI library: it piggybacks the
// machine's word on messages, logs late messages and non-deterministic
// events, suppresses early-message resends during recovery, and rebuilds
// MPI library state from pseudo-handles and call replay (Section 5.2).
package protocol

import "fmt"

// Piggyback is the control information carried on every application
// message (Section 4.2). The protocol only needs the *color* of the
// sender's epoch (because at most one global checkpoint is in progress,
// epochs differ by at most one, so one bit disambiguates), the sender's
// amLogging flag, and a per-epoch unique message ID.
type Piggyback struct {
	// Color is the sender's epoch parity.
	Color bool
	// Logging is the sender's amLogging flag.
	Logging bool
	// MessageID is the sender's per-epoch message sequence number.
	MessageID uint32
}

// pbBytes is the wire size of the packed piggyback: the paper's optimized
// encoding packs everything into a single 32-bit integer (two flag bits +
// 30-bit message ID). On the live path the packed word travels in the
// wire message's out-of-band header segment (mpi.Message.Header), so
// attaching it never re-allocates or copies the payload.
const pbBytes = 4

const (
	pbColorBit   = 1 << 31
	pbLoggingBit = 1 << 30
	pbIDMask     = pbLoggingBit - 1
)

// Pack encodes the piggyback into its single-integer wire form.
func (p Piggyback) Pack() uint32 {
	v := p.MessageID & pbIDMask
	if p.Color {
		v |= pbColorBit
	}
	if p.Logging {
		v |= pbLoggingBit
	}
	return v
}

// UnpackPiggyback decodes the single-integer wire form.
func UnpackPiggyback(v uint32) Piggyback {
	return Piggyback{
		Color:     v&pbColorBit != 0,
		Logging:   v&pbLoggingBit != 0,
		MessageID: v & pbIDMask,
	}
}

// Class is the message classification of Definition 1.
type Class int

const (
	// Intra is an intra-epoch message: sender and receiver epochs agree.
	Intra Class = iota
	// Late messages were sent before the sender's checkpoint but are
	// delivered after the receiver's (they cross the recovery line
	// forward); the receiver must log them because the sender will not
	// re-send them after a rollback.
	Late
	// Early messages were sent after the sender's checkpoint but are
	// delivered before the receiver's; the receiver's checkpoint already
	// contains their effect, so their re-send must be suppressed during
	// recovery.
	Early
)

func (c Class) String() string {
	if names := [...]string{Intra: "intra-epoch", Late: "late", Early: "early"}; c >= 0 && int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify determines the class of a received message from the sender's
// piggybacked color and the receiver's local color and amLogging flag
// (Section 4.2): equal colors mean intra-epoch; with different colors, a
// logging receiver is ahead of the sender (late message) and a non-logging
// receiver is behind (early message).
//
// The disambiguation is sound because a receiver that is still logging for
// checkpoint e cannot coexist with a sender already in epoch e+1: epoch e+1
// cannot begin until checkpoint e commits, which requires every process —
// including the receiver — to have stopped logging.
func Classify(sender Piggyback, receiverColor, receiverLogging bool) Class {
	if sender.Color == receiverColor {
		return Intra
	}
	if receiverLogging {
		return Late
	}
	return Early
}
