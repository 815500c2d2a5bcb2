package protocol

import (
	"fmt"

	"ccift/internal/mpi"
)

// Collective communication handling (Section 4.5).
//
// The paper precedes every data collective with a control collective that
// tells each participant the others' (epoch color, amLogging). Here that
// information is a presence set — one bit per control state, "somebody in
// this call is in that state" — and one function, applyControl, applies the
// rules to it. A logging participant logs the data result unless some
// participant in the *same (new) epoch* has already stopped logging, in
// which case it stops logging first and does not log the result (the
// Figure 5 call-B rule). Participants still in the old epoch (Figure 5
// call A) do not prevent logging: on recovery they will not re-execute the
// call, and the post-checkpoint participants will read their logged results
// instead of re-executing it. A non-logging participant that sees a logging
// one of the other color notes the checkpoint it has yet to take. A
// logging participant's state also says whether it has reported
// readyToStopLogging: a call whose every participant is logging and ready
// has shown all of them what the initiator is still counting messages to
// learn, and they stop logging there.
//
// How the set reaches a participant depends on the collective. Allreduce,
// Allgather, Alltoall, Reducescatter and Barrier bring something from
// every participant to every participant, so each contributes its bit as
// the word mpi carries on the collective's own messages and the rules are
// applied when the data call returns: no extra round. Bcast, Reduce,
// Gather, Scatter and Scan keep an explicit exchange (a one-byte allgather)
// before the data call, because agreement is the constraint: a participant
// that logs a call skips it on recovery, one that did not re-executes it,
// and in a rooted pattern a leaf never hears the root — it would log what
// the root re-executes and the root would wait for its contribution forever.
//
// MPI_Barrier gets special treatment in the paper: converting a barrier
// into a no-op on recovery would break its synchronization semantics, so
// all participants must execute it in the same epoch. AlignedBarrier
// implements that; it needs the verdict before the barrier proper, so it
// too runs the explicit exchange.

const (
	ctlColorBit   = 1 << 0
	ctlLoggingBit = 1 << 1
	ctlReadyBit   = 1 << 2 // logging, and has reported readyToStopLogging
	ctlStateMask  = ctlColorBit | ctlLoggingBit | ctlReadyBit
)

// ctlState numbers this participant's control state: its epoch color,
// amLogging and, while logging, whether it has reported ready.
func (l *Layer) ctlState() uint32 {
	var s uint32
	if l.color() {
		s |= ctlColorBit
	}
	if l.amLogging {
		s |= ctlLoggingBit
		if l.readySent {
			s |= ctlReadyBit
		}
	}
	return s
}

// exchangeControl is the explicit control collective: it returns the
// presence set of this call's participants.
func (l *Layer) exchangeControl() (seen uint32) {
	l.ctlMine[0] = byte(l.ctlState())
	l.comm.AllgatherInto(l.ctlStates, l.ctlMine[:], 0)
	l.Stats.ControlCollectives++
	for _, s := range l.ctlStates {
		seen |= 1 << (s & ctlStateMask)
	}
	return seen
}

// applyControl applies the logging rules to the presence set of a
// collective's participants, however it was obtained. It reports whether
// this rank, being in the old epoch of an ongoing checkpoint, must take
// its local checkpoint (used by AlignedBarrier).
func (l *Layer) applyControl(seen uint32) (laggard bool) {
	mine := l.ctlState() & ctlColorBit
	if l.amLogging {
		// Same (new) epoch, logging already stopped: its contribution to
		// the data call may depend on unlogged non-determinism.
		stopped := seen&(1<<mine) != 0
		// Every participant — a Layer collective runs on the world
		// communicator, so every process — is logging in this epoch and has
		// reported ready: exactly what the initiator is counting messages
		// to learn before it tells everyone to stop, learnt here by all at
		// once. (The messages lag a program of back-to-back collectives,
		// which services control only between them, by a call or two — and
		// every call of the lag is a result in every participant's log.)
		allReady := seen == 1<<(mine|ctlLoggingBit|ctlReadyBit)
		if stopped || allReady {
			l.finalizeLog()
		}
	}
	otherLogging := mine ^ ctlColorBit | ctlLoggingBit
	if !l.amLogging && seen&(1<<otherLogging|1<<(otherLogging|ctlReadyBit)) != 0 {
		// A participant is logging in a different epoch: it is in the new
		// epoch of an ongoing checkpoint and we have not taken ours yet.
		// Note the pending request (the pleaseCheckpoint control message
		// may still be in flight) …
		if l.requestedEpoch <= l.epoch {
			l.checkpointRequested = true
			l.requestedEpoch = l.epoch + 1
		}
		laggard = true
	}
	return laggard
}

// collective runs one data collective under the protocol: the op count, the
// inactive fast path, the recovery replay, the control information (riding
// on the call when rides, exchanged before it otherwise), the call itself
// and the logging of its result. The result is dst, which call fills — nil
// where the caller gets nothing back (Barrier, a rooted collective off its
// root), which makes an empty log entry — and a replayed result is copied
// into it. call executes the collective with this rank's control word and
// returns the words it brought back.
func (l *Layer) collective(rides bool, dst []byte, call func(word uint32) uint32) {
	l.enterOp()
	if !l.active() {
		call(0)
		return
	}
	seq := l.collSeq
	l.collSeq++
	if l.replay != nil {
		if e := l.replay.Collective(seq); e != nil {
			// The call originally executed while logging; some
			// participants may not re-execute it at all, so the result
			// comes from the log (Section 4.5).
			l.Stats.ReplayedResults++
			if len(e.Data) != len(dst) {
				panic(fmt.Sprintf("protocol: rank %d: collective %d: logged result of %d bytes replayed into %d", l.rank, seq, len(e.Data), len(dst)))
			}
			copy(dst, e.Data)
			return
		}
	}
	if rides {
		l.applyControl(call(1 << l.ctlState()))
	} else {
		l.applyControl(l.exchangeControl())
		call(0)
	}
	l.trace(TraceCollective, -1, 0, uint32(seq), len(dst))
	if l.amLogging {
		l.log.Add(Entry{Kind: KindCollective, Seq: seq, Data: append([]byte(nil), dst...)})
	}
}

// atRoot is a rooted collective's result: dst at root, nothing elsewhere.
func (l *Layer) atRoot(root int, dst []byte) []byte {
	if l.rank != root {
		return nil
	}
	return dst
}

// AllreduceInto combines data across all ranks with op into dst (len(data)
// bytes).
func (l *Layer) AllreduceInto(dst, data []byte, op mpi.Op) {
	l.collective(true, dst, func(word uint32) uint32 { return l.comm.AllreduceInto(dst, data, op, word) })
}

// Allgather is AllgatherInto a fresh result.
func (l *Layer) Allgather(data []byte) []byte {
	out := make([]byte, len(data)*l.size)
	l.AllgatherInto(out, data)
	return out
}

// AllgatherInto concatenates equal-sized payloads from all ranks into dst
// (Size()·len(data) bytes).
func (l *Layer) AllgatherInto(dst, data []byte) {
	l.collective(true, dst, func(word uint32) uint32 { return l.comm.AllgatherInto(dst, data, word) })
}

// AlltoallInto exchanges equal-sized blocks between all ranks into dst
// (len(data) bytes).
func (l *Layer) AlltoallInto(dst, data []byte) {
	l.collective(true, dst, func(word uint32) uint32 { return l.comm.AlltoallInto(dst, data, word) })
}

// ReducescatterInto combines per-rank blocks and scatters the result: this
// rank's block goes to dst (len(data)/Size() bytes).
func (l *Layer) ReducescatterInto(dst, data []byte, op mpi.Op) {
	l.collective(true, dst, func(word uint32) uint32 { return l.comm.ReducescatterInto(dst, data, op, word) })
}

// BcastInto distributes root's buf into every rank's buf.
func (l *Layer) BcastInto(root int, buf []byte) {
	l.collective(false, buf, func(uint32) uint32 { l.comm.BcastInto(root, buf); return 0 })
}

// ReduceInto combines payloads with op into root's dst (len(data) bytes;
// ignored on the other ranks).
func (l *Layer) ReduceInto(root int, dst, data []byte, op mpi.Op) {
	dst = l.atRoot(root, dst)
	l.collective(false, dst, func(uint32) uint32 { l.comm.ReduceInto(root, dst, data, op); return 0 })
}

// GatherInto concatenates payloads in root's dst (Size()·len(data) bytes;
// ignored on the other ranks).
func (l *Layer) GatherInto(root int, dst, data []byte) {
	dst = l.atRoot(root, dst)
	l.collective(false, dst, func(uint32) uint32 { l.comm.GatherInto(root, dst, data); return 0 })
}

// ScatterInto distributes root's data in equal blocks, one to each rank's
// dst.
func (l *Layer) ScatterInto(root int, dst, data []byte) {
	l.collective(false, dst, func(uint32) uint32 { l.comm.ScatterInto(root, dst, data); return 0 })
}

// ScanInto computes the inclusive prefix reduction into dst (len(data)
// bytes).
func (l *Layer) ScanInto(dst, data []byte, op mpi.Op) {
	l.collective(false, dst, func(uint32) uint32 { l.comm.ScanInto(dst, data, op); return 0 })
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
func (l *Layer) Barrier() { l.collective(true, nil, l.comm.Barrier) }

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
		l.comm.Barrier(0)
		return
	}
	l.collSeq++ // consumes a collective slot; never logged
	if laggard := l.applyControl(l.exchangeControl()); laggard {
		if l.cfg.Debug && l.replay != nil && !l.replay.Exhausted() {
			panic(fmt.Sprintf("protocol: rank %d: barrier-forced checkpoint while replay pending", l.rank))
		}
		if l.cfg.Mode == NoAppState || l.cfg.Mode == Full {
			l.takeCheckpoint()
		}
	}
	l.comm.Barrier(0)
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
