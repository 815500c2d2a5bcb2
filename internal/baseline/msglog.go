package baseline

import "ccift/internal/mpi"

// SenderLog models sender-based message logging, the simplest
// message-logging implementation of Section 1.2: "every process [saves] a
// copy of every message it sends." A restarted process is driven forward by
// replaying the messages that were sent to it, so each sender must retain
// its outgoing messages at least until the receivers' states are next made
// stable.
//
// The paper's argument against the technique for parallel programs is
// volume: "the overhead of saving or regenerating messages tends to be so
// overwhelming that the technique is not competitive in practice [...]
// parallel programs communicate more data more frequently than distributed
// programs." SenderLog's accounting quantifies that: compare PeakBytes
// against the C3 protocol's Stats.LogBytes for the same workload (the
// ablation E9 in DESIGN.md does exactly this).
type SenderLog struct {
	comm *mpi.Comm

	// retained is the current log: one entry per message sent since the
	// last truncation.
	retained []loggedSend
	bytes    int64

	// Sends and SentBytes count all traffic ever sent through the log.
	Sends     int64
	SentBytes int64
	// Peak tracks the high-water retention mark, the number that determines
	// the storage the scheme actually needs.
	PeakBytes    int64
	PeakMessages int64
}

type loggedSend struct {
	dst, tag int
	data     []byte
}

// NewSenderLog wraps a communicator with sender-based logging.
func NewSenderLog(comm *mpi.Comm) *SenderLog {
	return &SenderLog{comm: comm}
}

// Send transmits and retains a copy — the defining cost of the scheme.
func (s *SenderLog) Send(dst, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.retained = append(s.retained, loggedSend{dst: dst, tag: tag, data: cp})
	s.bytes += int64(len(cp)) + logEntryOverhead
	s.Sends++
	s.SentBytes += int64(len(cp))
	if s.bytes > s.PeakBytes {
		s.PeakBytes = s.bytes
	}
	if n := int64(len(s.retained)); n > s.PeakMessages {
		s.PeakMessages = n
	}
	s.comm.Send(dst, tag, cp)
}

// logEntryOverhead approximates the per-entry metadata (destination, tag,
// length, epoch) a real log would store; it matches the 32-byte estimate
// the protocol package uses for its own log so the comparison is fair.
const logEntryOverhead = 32

// Recv passes through; receiving needs no logging in a sender-based scheme.
func (s *SenderLog) Recv(src, tag int) *mpi.Message {
	return s.comm.Recv(src, tag)
}

// RetainedBytes reports the current log volume.
func (s *SenderLog) RetainedBytes() int64 { return s.bytes }

// RetainedMessages reports the current log length.
func (s *SenderLog) RetainedMessages() int64 { return int64(len(s.retained)) }

// Truncate discards the log, as a sender may once every receiver of the
// retained messages has committed a newer stable state. With coordinated
// checkpointing underneath, that moment is a committed global checkpoint.
func (s *SenderLog) Truncate() {
	s.retained = nil
	s.bytes = 0
}

// Replay returns the retained messages destined for dst, in send order —
// what a recovering process dst would be fed.
func (s *SenderLog) Replay(dst int) [][]byte {
	var out [][]byte
	for _, e := range s.retained {
		if e.dst == dst {
			out = append(out, e.data)
		}
	}
	return out
}
