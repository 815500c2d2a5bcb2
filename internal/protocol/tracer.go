package protocol

// TraceEvent is one observable protocol action, emitted to an optional
// Tracer. The trace is how Figure 3's space-time diagram is regenerated
// from a live run (see internal/trace).
type TraceEvent struct {
	// Rank is the acting process.
	Rank int
	// Epoch is the actor's epoch at event time.
	Epoch int
	// Kind discriminates the action.
	Kind TraceKind
	// Peer is the other process (sends, receives), or -1.
	Peer int
	// Tag is the application tag (sends, receives).
	Tag int
	// ID is the per-epoch message ID (sends, receives).
	ID uint32
	// Bytes is the payload size where meaningful.
	Bytes int
}

// TraceKind enumerates protocol actions.
type TraceKind byte

// Trace kinds.
const (
	TraceSend TraceKind = iota + 1
	TraceSendSuppressed
	TraceRecvIntra
	TraceRecvLate
	TraceRecvEarly
	TraceReplayLate
	TraceCheckpoint
	TraceLogFinalized
	TraceCommit
	TraceCollective
)

func (k TraceKind) String() string {
	names := [...]string{TraceSend: "send", TraceSendSuppressed: "send-suppressed", TraceRecvIntra: "recv-intra",
		TraceRecvLate: "recv-late", TraceRecvEarly: "recv-early", TraceReplayLate: "replay-late",
		TraceCheckpoint: "checkpoint", TraceLogFinalized: "log-finalized", TraceCommit: "commit", TraceCollective: "collective"}
	if int(k) < len(names) && names[k] != "" {
		return names[k]
	}
	return "unknown"
}

// Tracer receives protocol events. Implementations must be safe for
// concurrent use: every rank's layer calls the same tracer.
type Tracer interface {
	Trace(TraceEvent)
}

// trace emits an event if a tracer is configured.
func (l *Layer) trace(kind TraceKind, peer, tag int, id uint32, bytes int) {
	if l.cfg.Tracer == nil {
		return
	}
	l.cfg.Tracer.Trace(TraceEvent{
		Rank: l.rank, Epoch: l.m.epoch, Kind: kind,
		Peer: peer, Tag: tag, ID: id, Bytes: bytes,
	})
}
