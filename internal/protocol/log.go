package protocol

import (
	"fmt"
	"math"

	"ccift/internal/cerr"
	"ccift/internal/wire"
)

// The log a process writes between taking its local checkpoint and stopping
// logging (Section 4.1, Phase 2): every late message it receives, and the
// result of every non-deterministic decision it makes. We record four entry
// kinds:
//
//   - Late: the full payload of a late message, keyed by the receiver's
//     per-epoch receive sequence number so that recovery re-delivers it at
//     exactly the same receive operation.
//   - Wildcard: the resolved (source, tag) of a receive posted with
//     MPI_ANY_SOURCE/MPI_ANY_TAG — a non-deterministic decision; recovery
//     narrows the re-executed receive to the logged source and tag.
//   - Collective: the result of a collective communication call that
//     crosses the recovery line: executed while logging, with a participant
//     still in the old epoch, which will not re-execute it (Section 4.5).
//     Recovery returns the logged result without re-executing the call. A
//     call whose participants share one epoch has no entry: all of them
//     re-execute it.
//   - Event: an application-level non-deterministic value (random number,
//     clock reading) drawn through the protocol layer.

// EntryKind discriminates log entries.
type EntryKind byte

// Log entry kinds.
const (
	KindLate EntryKind = iota + 1
	KindWildcard
	KindCollective
	KindEvent
)

// Entry is one log record.
type Entry struct {
	Kind EntryKind
	// Seq is the per-epoch sequence number of the operation the entry
	// pins: the receive sequence for Late/Wildcard, the collective-call
	// sequence for Collective, and the event sequence for Event.
	Seq int64
	// Src and Tag are the resolved source and tag (Late, Wildcard).
	Src, Tag int
	// Data is the payload (Late), collective result (Collective), or
	// encoded value (Event).
	Data []byte
}

// Log accumulates entries during a logging phase.
type Log struct {
	entries []Entry
	bytes   int
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Add appends an entry.
func (l *Log) Add(e Entry) {
	l.entries = append(l.entries, e)
	l.bytes += len(e.Data) + 32
}

// Len reports the number of entries.
func (l *Log) Len() int { return len(l.entries) }

// Bytes reports the approximate serialized size, used by the ablation
// benchmarks comparing against sender-based message logging.
func (l *Log) Bytes() int { return l.bytes }

// code is the log's one layout: per entry its kind, sequence number, source
// and tag (+2 keeps AnySource non-negative) and payload, all uvarints.
// Decoded, a kind outside the four — which NewReplay would drop, turning a
// late message into a receive that waits forever — fails, as does a source
// or tag outside int32.
func (l *Log) code(c *wire.Codec) {
	wire.Seq(c, "entry", &l.entries, 5, func(e *Entry) {
		src, tag := uint64(int64(e.Src)+2), uint64(int64(e.Tag)+2)
		wire.Uint(c, &e.Kind)
		c.Require(e.Kind >= KindLate && e.Kind <= KindEvent, "unknown kind %d", e.Kind)
		wire.Uint(c, &e.Seq)
		wire.Uint(c, &src)
		wire.Uint(c, &tag)
		c.Require(src <= math.MaxInt32+2 && tag <= math.MaxInt32+2, "source %d or tag %d outside int32", int64(src)-2, int64(tag)-2)
		if c.Decoding() {
			e.Src, e.Tag = int(int64(src)-2), int(int64(tag)-2)
		}
		wire.Bytes(c, &e.Data)
	})
}

// Marshal serializes the log for stable storage.
func (l *Log) Marshal() []byte { return wire.Encode(nil, l.code) }

// UnmarshalLog parses a serialized log. Anything Marshal cannot have
// written is a store-category error naming the entry it is in.
func UnmarshalLog(raw []byte) (*Log, error) {
	l := NewLog()
	if err := wire.Decode(raw, l.code); err != nil {
		return nil, fmt.Errorf("protocol: %w: corrupt log %w", cerr.ErrStore, err) // "entry 3: …"
	}
	return l, nil
}

// Replay walks a recovered log. Each entry kind has its own cursor, keyed
// by the kind's per-epoch sequence number: recovery consults it at each
// operation, and the entry is consumed when the sequence numbers match.
type Replay struct {
	late, wildcard, collective, event cursor
}

// cursor is one kind's entries in log order and the next one due.
type cursor struct {
	entries []Entry
	next    int
}

// at returns the entry due at seq, or nil; take consumes it as well.
func (c *cursor) at(seq int64) *Entry {
	if c.next < len(c.entries) && c.entries[c.next].Seq == seq {
		return &c.entries[c.next]
	}
	return nil
}

func (c *cursor) take(seq int64) *Entry {
	e := c.at(seq)
	if e != nil {
		c.next++
	}
	return e
}

// NewReplay indexes a recovered log for replay.
func NewReplay(l *Log) *Replay {
	r := &Replay{}
	cursors := [...]*cursor{KindLate: &r.late, KindWildcard: &r.wildcard, KindCollective: &r.collective, KindEvent: &r.event}
	for _, e := range l.entries {
		c := cursors[e.Kind]
		c.entries = append(c.entries, e)
	}
	return r
}

// Late returns the logged late message for receive sequence seq, consuming
// it, or nil when the receive at seq was not a late message. PeekLate does
// not consume it (probe support).
func (r *Replay) Late(seq int64) *Entry     { return r.late.take(seq) }
func (r *Replay) PeekLate(seq int64) *Entry { return r.late.at(seq) }

// PeekWildcard returns the logged (source, tag) resolution for receive
// sequence seq without consuming it, or nil; ConsumeWildcard consumes it
// once the receive actually completes.
func (r *Replay) PeekWildcard(seq int64) *Entry { return r.wildcard.at(seq) }
func (r *Replay) ConsumeWildcard(seq int64)     { r.wildcard.take(seq) }

// Collective returns the logged result for collective-call sequence seq,
// consuming it, or nil when that call must be re-executed live.
func (r *Replay) Collective(seq int64) *Entry { return r.collective.take(seq) }

// Event returns the logged non-deterministic value for event sequence seq,
// consuming it, or nil.
func (r *Replay) Event(seq int64) *Entry { return r.event.take(seq) }

// Exhausted reports whether every entry has been consumed. A process may
// not take a new checkpoint while its previous log is still being replayed
// (the deferral rule; see Layer.PotentialCheckpoint).
func (r *Replay) Exhausted() bool {
	for _, c := range [...]*cursor{&r.late, &r.wildcard, &r.collective, &r.event} {
		if c.next < len(c.entries) {
			return false
		}
	}
	return true
}
