package protocol

import (
	"fmt"

	"ccift/internal/mpi"
)

// Collective communication handling (Section 4.5).
//
// Every data collective is preceded by a one-byte-per-rank control
// allgather carrying each participant's (epoch color, amLogging) — the
// "command" collective that the paper's Neurosys measurements surface as
// overhead on tiny problem sizes. A logging participant logs the data
// result unless some participant in the *same (new) epoch* has already
// stopped logging, in which case it stops logging first and does not log
// the result (the Figure 5 call-B rule). Participants still in the old
// epoch (Figure 5 call A) do not prevent logging: on recovery they will not
// re-execute the call, and the post-checkpoint participants will read their
// logged results instead of re-executing it.
//
// MPI_Barrier gets special treatment: converting a barrier into a no-op on
// recovery would break its synchronization semantics, so all participants
// must execute it in the same epoch. The control exchange detects epoch
// disagreement and forces laggards to take their (pending) checkpoint
// before the barrier proper.

const (
	ctlColorBit   = 1 << 0
	ctlLoggingBit = 1 << 1
)

func (l *Layer) ctlByte() byte {
	var b byte
	if l.color() {
		b |= ctlColorBit
	}
	if l.amLogging {
		b |= ctlLoggingBit
	}
	return b
}

// collectiveControl performs the control allgather and applies the logging
// rules. It reports whether this rank, being in the old epoch of an
// ongoing checkpoint, must take its local checkpoint (used by Barrier).
func (l *Layer) collectiveControl() (laggard bool) {
	flags := l.comm.Allgather([]byte{l.ctlByte()})
	l.Stats.ControlCollectives++
	myColor := l.color()
	for _, f := range flags {
		color := f&ctlColorBit != 0
		logging := f&ctlLoggingBit != 0
		if l.amLogging && color == myColor && !logging {
			// Same (new) epoch, logging already stopped: its contribution
			// to the data call may depend on unlogged non-determinism.
			l.finalizeLog()
		}
		if !l.amLogging && color != myColor && logging {
			// A participant is logging in a different epoch: it is in the
			// new epoch of an ongoing checkpoint and we have not taken
			// ours yet. Note the pending request (the pleaseCheckpoint
			// control message may still be in flight) …
			if l.requestedEpoch <= l.epoch {
				l.checkpointRequested = true
				l.requestedEpoch = l.epoch + 1
			}
			laggard = true
		}
	}
	return laggard
}

// collectiveEntry is the shared prologue of data collectives: consult the
// recovery replay, otherwise run the control exchange. When it returns
// (nil, false), the caller must execute the data call and pass the result
// to collectiveExit.
func (l *Layer) collectiveEntry() (logged []byte, replayed bool) {
	seq := l.collSeq
	l.collSeq++
	if l.replay != nil {
		if e := l.replay.Collective(seq); e != nil {
			// The call originally executed while logging; some
			// participants may not re-execute it at all, so the result
			// comes from the log (Section 4.5).
			l.Stats.ReplayedResults++
			return e.Data, true
		}
	}
	l.collectiveControl()
	return nil, false
}

func (l *Layer) collectiveExit(seq int64, result []byte) {
	l.trace(TraceCollective, -1, 0, uint32(seq), len(result))
	if l.amLogging {
		cp := make([]byte, len(result))
		copy(cp, result)
		l.log.Add(Entry{Kind: KindCollective, Seq: seq, Data: cp})
	}
}

// collective runs one data collective under the protocol: the op count, the
// inactive fast path, the recovery replay or control exchange, the call
// itself, and the logging of its result. rooted marks collectives whose
// non-root result is nil, which must survive the log round trip as nil.
func (l *Layer) collective(rooted bool, call func() []byte) []byte {
	l.enterOp()
	if !l.active() {
		return call()
	}
	seq := l.collSeq
	if res, ok := l.collectiveEntry(); ok {
		if rooted {
			return unwrapMaybe(res)
		}
		return res
	}
	res := call()
	if rooted {
		l.collectiveExit(seq, wrapMaybe(res))
	} else {
		l.collectiveExit(seq, res)
	}
	return res
}

// Allreduce combines data across all ranks with op, protocol-managed.
func (l *Layer) Allreduce(data []byte, op mpi.Op) []byte {
	return l.collective(false, func() []byte { return l.comm.Allreduce(data, op) })
}

// Allgather concatenates equal-sized payloads from all ranks.
func (l *Layer) Allgather(data []byte) []byte {
	return l.collective(false, func() []byte { return l.comm.Allgather(data) })
}

// Bcast distributes root's payload to all ranks.
func (l *Layer) Bcast(root int, data []byte) []byte {
	return l.collective(false, func() []byte { return l.comm.Bcast(root, data) })
}

// Reduce combines payloads at root; non-roots receive nil.
func (l *Layer) Reduce(root int, data []byte, op mpi.Op) []byte {
	return l.collective(true, func() []byte { return l.comm.Reduce(root, data, op) })
}

// Gather concatenates payloads at root; non-roots receive nil.
func (l *Layer) Gather(root int, data []byte) []byte {
	return l.collective(true, func() []byte { return l.comm.Gather(root, data) })
}

// Scatter distributes root's payload in equal blocks.
func (l *Layer) Scatter(root int, data []byte) []byte {
	return l.collective(false, func() []byte { return l.comm.Scatter(root, data) })
}

// Alltoall exchanges equal-sized blocks between all ranks.
func (l *Layer) Alltoall(data []byte) []byte {
	return l.collective(false, func() []byte { return l.comm.Alltoall(data) })
}

// Scan computes the inclusive prefix reduction, protocol-managed.
func (l *Layer) Scan(data []byte, op mpi.Op) []byte {
	return l.collective(false, func() []byte { return l.comm.Scan(data, op) })
}

// Reducescatter combines per-rank blocks and scatters the result,
// protocol-managed.
func (l *Layer) Reducescatter(data []byte, op mpi.Op) []byte {
	return l.collective(false, func() []byte { return l.comm.Reducescatter(data, op) })
}

// Barrier synchronizes all ranks. It is treated as a loggable collective:
// a participant that executed the barrier while logging records it and, on
// recovery, skips the re-execution — the synchronization it witnessed is a
// fact of the pre-failure history, and under this library's pure
// message-passing semantics every ordering the barrier established is
// already pinned by the late-message log and early-send suppression.
//
// The paper instead forces all participants into the same epoch before the
// barrier, because a C application may use barriers to order effects the
// protocol cannot see (files, shared devices). That exact mechanism is
// available as AlignedBarrier; it requires position-stack-based resume,
// which precompiler-instrumented programs have, because the forced
// checkpoint happens at the barrier site rather than at a loop-top
// PotentialCheckpoint.
func (l *Layer) Barrier() {
	l.collective(false, func() []byte { l.comm.Barrier(); return nil })
}

// AlignedBarrier is the paper's MPI_Barrier treatment (Section 4.5): the
// control exchange detects epoch disagreement, and a participant that has
// not yet taken the in-progress checkpoint takes it right here — the
// precompiler inserts a potential checkpoint before each barrier — so that
// the barrier proper executes with every process in the same epoch.
// Callers must be able to resume at this exact program point (position
// stack instrumentation).
func (l *Layer) AlignedBarrier() {
	l.enterOp()
	if !l.active() {
		l.comm.Barrier()
		return
	}
	l.collSeq++ // consumes a collective slot; never logged
	if laggard := l.collectiveControl(); laggard {
		if l.cfg.Debug && l.replay != nil && !l.replay.Exhausted() {
			panic(fmt.Sprintf("protocol: rank %d: barrier-forced checkpoint while replay pending", l.rank))
		}
		if l.cfg.Mode == NoAppState || l.cfg.Mode == Full {
			l.takeCheckpoint()
		}
	}
	l.comm.Barrier()
}

// wrapMaybe encodes a possibly-nil byte slice so that nil (the non-root
// result of rooted collectives) survives the log round trip.
func wrapMaybe(b []byte) []byte {
	if b == nil {
		return []byte{0}
	}
	return append([]byte{1}, b...)
}

func unwrapMaybe(b []byte) []byte {
	if len(b) == 0 || b[0] == 0 {
		return nil
	}
	return b[1:]
}

// Sendrecv performs the combined send-and-receive through the protocol
// layer: the outgoing message is piggybacked (and suppressed during
// recovery if needed) and the incoming one classified, exactly as separate
// Send and Recv would be — MPI_Sendrecv is semantically that pair, made
// deadlock-safe.
func (l *Layer) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) *AppMessage {
	l.Send(dst, sendTag, data)
	return l.Recv(src, recvTag)
}
