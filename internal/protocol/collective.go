package protocol

import (
	"fmt"

	"ccift/internal/mpi"
)

// Collective communication handling (Section 4.5). The paper precedes every
// data collective with a control collective that tells each participant the
// others' (epoch color, amLogging). Here that is a presence set — one bit per
// control state, "somebody in this call is in that state" — and the state
// machine applies the rules to it (machine.collective). A logging
// participant logs the result only when the call crosses the recovery line:
// a participant of the old epoch executed it before its local checkpoint,
// so on recovery it does not re-execute the call, and the others read their
// logged results (Figure 5, call A). A call whose participants are all in
// the new epoch is re-executed by all of them on recovery, and nobody logs
// it; if one of them has stopped logging, the others stop first (call B).
// A non-logging participant that sees a logging one of the other color
// notes the checkpoint it has yet to take, and a call whose every
// participant is logging and has reported ready ends logging there.
//
// Allreduce, Allgather, Alltoall, Reducescatter and Barrier bring something
// from every participant to every participant, so each contributes its bit
// as the word mpi carries on the collective's own messages: no extra round.
// Bcast, Reduce, Gather, Scatter and Scan keep an explicit one-byte
// allgather before the data call, because they need agreement: one that
// logs a call skips it on recovery and one that did not re-executes it, and
// in a rooted pattern a leaf never hears the root.

const (
	ctlColorBit   = 1 << 0
	ctlLoggingBit = 1 << 1
	ctlReadyBit   = 1 << 2 // logging, and has reported readyToStopLogging
	ctlStateMask  = ctlColorBit | ctlLoggingBit | ctlReadyBit
)

// exchangeControl is the explicit control collective: it returns the
// presence set of this call's participants.
func (l *Layer) exchangeControl() (seen uint32) {
	l.ctlMine[0] = byte(l.m.ctlState())
	l.comm.AllgatherInto(l.ctlStates, l.ctlMine[:], 0)
	l.Stats.ControlCollectives++
	for _, s := range l.ctlStates {
		seen |= 1 << (s & ctlStateMask)
	}
	return seen
}

// applyControl hands the machine a data collective's presence set, however
// it was obtained, and acts on what it decides; logs as machine.collective.
func (l *Layer) applyControl(seen uint32) (logs bool) {
	logs = l.m.collective(seen)
	l.act()
	return logs
}

// collective runs one data collective under the protocol: the prologue
// (see collectivePrologue), the control information (riding on the call
// when rides, exchanged before it otherwise), the call itself and, on the
// machine's verdict, the logging of its result. The result is dst, which
// call fills — nil where the caller gets nothing back (Barrier, a rooted
// collective off its root), which makes an empty log entry. call executes
// the collective with this rank's control word and returns the words it
// brought back.
func (l *Layer) collective(rides bool, dst []byte, call func(word uint32) uint32) {
	seq, live := l.collectivePrologue(dst, call)
	if !live {
		return
	}
	var logs bool
	if rides {
		logs = l.applyControl(call(1 << l.m.ctlState()))
	} else {
		logs = l.applyControl(l.exchangeControl())
		call(0)
	}
	l.trace(TraceCollective, -1, 0, uint32(seq), len(dst))
	if logs {
		l.log.Add(Entry{Kind: KindCollective, Seq: seq, Data: append([]byte(nil), dst...)})
	}
}

// collectivePrologue is how every collective under the layer starts: the
// op count, the inactive fast path (call runs with no word), the call's
// slot in the collective sequence, and the recovery replay, which completes
// a call that crossed the recovery line by copying the logged result into
// dst — the old-epoch participants do not re-execute it at all (Section
// 4.5). A call with no entry is re-executed. live reports a call the
// protocol still has to run.
func (l *Layer) collectivePrologue(dst []byte, call func(word uint32) uint32) (seq int64, live bool) {
	l.enterOp()
	if !l.active() {
		call(0)
		return 0, false
	}
	seq = l.collSeq
	l.collSeq++
	if l.replay != nil {
		if e := l.replay.Collective(seq); e != nil {
			l.Stats.ReplayedResults++
			if len(e.Data) != len(dst) {
				panic(fmt.Sprintf("protocol: rank %d: collective %d: logged result of %d bytes replayed into %d", l.rank, seq, len(e.Data), len(dst)))
			}
			copy(dst, e.Data)
			return seq, false
		}
	}
	return seq, true
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
// a logging participant records a barrier that crosses the recovery line
// (an old-epoch participant is present) and, on recovery, skips the
// re-execution — the old-epoch participants resume after it, and the
// synchronization it witnessed is a fact of the pre-failure history. Under
// this library's pure message-passing semantics every ordering the barrier
// established is already pinned by the late-message log and early-send
// suppression. A barrier whose participants share one epoch is not logged:
// all of them re-execute it.
//
// The paper instead forces all participants into the same epoch before the
// barrier, because a C application may use barriers to order effects the
// protocol cannot see (files, shared devices). That needs a checkpoint at
// the barrier site and a resume there; no program here orders such effects,
// so it is not reproduced.
func (l *Layer) Barrier() { l.collective(true, nil, l.comm.Barrier) }

// Sendrecv performs the combined send-and-receive through the protocol
// layer: the outgoing message is piggybacked (and suppressed during
// recovery if needed) and the incoming one classified, exactly as separate
// Send and Recv would be — MPI_Sendrecv is semantically that pair, made
// deadlock-safe.
func (l *Layer) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) *AppMessage {
	l.Send(dst, sendTag, data)
	return l.Recv(src, recvTag)
}
