package protocol

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/clock"
	"ccift/internal/mpi"
)

// The checkpoint flush: one write path, on every clock.
//
// takeCheckpoint hands the captured checkpoint to a flush task — one per
// checkpoint — that serializes it and streams it into stable storage
// (writeState). Under the default policy the task is started through the
// clock seam (clock.Go) and the rank computes on: on the wall clock that
// is a goroutine, on a virtual clock an actor the simulation's scheduler
// counts, so the simulated substrate runs this very path and not a
// synchronous stand-in. Under Policy.Sync the rank runs the same task body
// itself. The clock owns the task; the layer owns nothing but its handle.
//
// The layer stays single-threaded. The task touches only the capture and
// the layer's immutable fields, leaves its outcome in the flushTask, and
// then posts tagFlushDone into the rank's own mailbox at transport level
// (mpi.Comm.Notify: no substrate operation, so no op is counted on the
// flusher's behalf and no kill fires on its goroutine). The substrate
// orders that event like any delivery: the rank meets it wherever it
// services control — at its next operation, inside a blocking receive, or
// parked in ServiceControlUntil — and integrates the outcome there
// (finishFlush), the one integration function of all three ways a flush
// ends: the event, the inline sync write, and the drain in Shutdown.
//
// Correctness under crashes hangs on one rule: a rank reports
// stoppedLogging — and therefore the initiator can write the commit
// record — only after BOTH its log write and its state flush are durable
// (maybeReportStopped). A crash mid-flush leaves the new epoch
// uncommitted, so recovery falls back to the previous committed epoch,
// exactly as a crash mid-checkpoint did on the synchronous path.

// flushTask is one checkpoint's flush. The fields below wait are written by
// the task and read by the rank only once the task is known to be over: it
// received the task's tagFlushDone, or wait returned.
type flushTask struct {
	p    *pendingCheckpoint
	wait func() // blocks until the task has returned

	total, written int64
	dur            time.Duration
	err            error
}

// startFlush starts the flush of a captured checkpoint. At most one is in
// flight per layer: the protocol admits one global checkpoint at a time,
// and the next cannot be requested until this one's commit — which waits
// for this flush.
func (l *Layer) startFlush(p *pendingCheckpoint) {
	if l.flush != nil {
		panic("protocol: checkpoint flush started while one is in flight")
	}
	t := &flushTask{p: p, wait: func() {}}
	l.flush = t
	write := func() {
		start := l.clk.Now()
		t.total, t.written, t.err = l.writeState(p)
		t.dur = l.clk.Since(start)
	}
	if !l.cfg.AsyncFlush {
		write()
		l.flushDone()
		return
	}
	t.wait = clock.Go(l.clk, func() {
		write()
		l.comm.Notify(tagFlushDone)
	})
}

// flushDone integrates the finished flush on the rank's live path — the
// completion event or the inline write — where a failed write ends the rank
// and a durable one may complete the local checkpoint.
func (l *Layer) flushDone() {
	if err := l.finishFlush(); err != nil {
		// An error value, so the engine's classifier keeps the category.
		panic(err)
	}
	l.maybeReportStopped()
}

// finishFlush applies the finished flush task's outcome to the layer —
// counters, the trace stream — and clears it. The frozen view changes hands
// here: a durable one becomes the epoch's retained copy (released when the
// ring evicts it), one whose write failed is released at once. A failed write
// comes back as the rank's error: mpi.ErrCanceled when the run's context
// ended it, a store error otherwise.
func (l *Layer) finishFlush() error {
	t := l.flush
	l.flush = nil
	if t.err != nil {
		t.p.frozen.Release()
		if errors.Is(t.err, context.Canceled) || errors.Is(t.err, context.DeadlineExceeded) {
			return mpi.ErrCanceled
		}
		return fmt.Errorf("protocol: persist state (epoch %d, rank %d): %w: %w", t.p.epoch, l.rank, cerr.ErrStore, t.err)
	}
	l.Stats.CheckpointBytes += t.total
	l.Stats.CheckpointBytesWritten += t.written
	l.Stats.CheckpointFlushNs += t.dur.Nanoseconds()
	if l.pace != nil {
		l.Stats.FlushThrottleNs = l.pace.sleptNs
	}
	if t.p.frozen != nil {
		l.ring[0].Header, l.ring[0].Frozen = t.p.hdrRaw, t.p.frozen
	}
	l.trace(TraceCheckpoint, -1, 0, 0, int(t.total))
	l.emitStats()
	return nil
}

// maybeReportStopped sends stoppedLogging once per checkpoint, and only
// when both halves of the local checkpoint are durable: the finalized log
// and the flushed state. The initiator's commit record waits on every
// rank's report, so a crash before this point recovers from the previous
// committed epoch.
func (l *Layer) maybeReportStopped() {
	if l.logDone && l.flush == nil && !l.stopSent {
		l.stopSent = true
		l.sendCtl(0, tagStoppedLogging, uint64(l.epoch))
	}
}

// Shutdown waits for a flush still in flight to finish (or abort, if the
// layer's context was canceled) and integrates it, so the run's final
// counters and retained copies include every checkpoint; it returns the
// write's error if it failed. It never panics — the engine calls it during
// both normal completion and panic unwinds — and it is idempotent.
func (l *Layer) Shutdown() error {
	if l.flush == nil {
		return nil
	}
	l.flush.wait()
	if err := l.finishFlush(); err != mpi.ErrCanceled {
		return err
	}
	return nil // the run is unwinding for cancellation already
}
