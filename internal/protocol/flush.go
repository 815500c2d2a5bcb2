package protocol

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/clock"
	"ccift/internal/mpi"
)

// The checkpoint flush: one write path, on every clock. takeCheckpoint
// hands the captured checkpoint to a flush task that streams it into
// stable storage (writeState). By default the task is
// started through clock.Go — a goroutine on the wall clock, an actor the
// simulation's scheduler counts on a virtual one — and the rank computes on;
// without Config.AsyncFlush the rank runs the same body itself.
//
// The layer stays single-threaded. The task touches only the capture and
// the layer's immutable fields, leaves its outcome in the flushTask, and
// posts a control message of kind kindFlushDone into the rank's own mailbox
// (mpi.Comm.Notify: no substrate operation, so no op is counted and no kill
// fires on its behalf). The rank meets that event wherever it services
// control and integrates the outcome there (finishFlush), as it does after
// the inline write and in Shutdown's drain. A rank reports stoppedLogging —
// so the commit record can be written — only once its log and its state are
// both durable (machine.reportStopped): a crash mid-flush recovers from the
// previous committed epoch.

// flushTask is one checkpoint's flush: what captureState copied while the
// rank was stopped, and the write's outcome. The fields below wait are
// written by the task and read by the rank only once the task is known to
// be over: it received the task's flushDone event, or wait returned.
type flushTask struct {
	epoch  int
	record []byte       // the protocol record, encoded
	frozen *ckpt.Frozen // the application state; nil outside Full mode
	wait   func()       // blocks until the task has returned

	total, written int64
	dur            time.Duration
	err            error
}

// startFlush starts the flush of a captured checkpoint. At most one is in
// flight per layer: the protocol admits one global checkpoint at a time,
// and the next cannot be requested until this one's commit — which waits
// for this flush.
func (l *Layer) startFlush(t *flushTask) {
	if l.flush != nil {
		panic("protocol: checkpoint flush started while one is in flight")
	}
	t.wait = func() {}
	l.flush = t
	write := func() {
		start := l.clk.Now()
		t.total, t.written, t.err = l.writeState(t)
		t.dur = l.clk.Since(start)
	}
	if !l.cfg.AsyncFlush {
		write()
		l.flushDone()
		return
	}
	t.wait = clock.Go(l.clk, func() {
		write()
		l.comm.Notify(tagControl, -kindFlushDone)
	})
}

// flushDone integrates the finished flush on the rank's live path — the
// completion event or the inline write — where a failed write ends the rank
// and a durable one may complete the local checkpoint (the caller acts on
// what the machine queues).
func (l *Layer) flushDone() {
	if err := l.finishFlush(); err != nil {
		// An error value, so the engine's classifier keeps the category.
		panic(err)
	}
	l.m.flushed()
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
		t.frozen.Release()
		if errors.Is(t.err, context.Canceled) || errors.Is(t.err, context.DeadlineExceeded) {
			return mpi.ErrCanceled
		}
		return fmt.Errorf("protocol: persist state (epoch %d, rank %d): %w", t.epoch, l.rank, cerr.Ensure(t.err, cerr.ErrStore))
	}
	l.Stats.CheckpointBytes += t.total
	l.Stats.CheckpointBytesWritten += t.written
	l.Stats.CheckpointFlushNs += t.dur.Nanoseconds()
	if t.frozen != nil {
		l.ring[0].Frozen = t.frozen
	}
	l.trace(TraceCheckpoint, -1, 0, 0, int(t.total))
	l.emitStats()
	return nil
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
