package engine

import (
	"context"
	"fmt"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/clock"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// rankBody is everything one rank needs to run one incarnation. Both
// drivers fill it — RunContext once per goroutine, RunWorker once per
// process incarnation — and the fields that genuinely differ between them
// are the last two groups: where the rank's recovery inputs come from, and
// how the completion of the other ranks is announced and observed.
type rankBody struct {
	ctx         context.Context
	comm        *mpi.Comm
	incarnation int

	mode      protocol.Mode
	store     *storage.CheckpointStore
	everyN    int
	interval  time.Duration
	seed      int64
	debug     bool
	sync      bool
	tracer    protocol.Tracer
	clock     clock.Clock
	statsSink func(protocol.StatsFrame)

	// recovery is this rank's slice of the driver's recovery gather (Epoch
	// -1: fresh start, do not restore); retained holds the rank's own
	// in-memory checkpoints from the previous incarnation, if it survived
	// one. The incarnation takes them over: what it did not release comes
	// back in rankOutcome.retained.
	recovery *protocol.RankRecovery
	retained []*protocol.RetainedState

	// announceDone tells the other ranks this rank's program has returned;
	// allDone reports whether every rank's has.
	announceDone func()
	allDone      func() bool
}

// rankOutcome is what a rank's incarnation leaves behind. retained is
// filled however the incarnation ends, panic unwinds included; value only
// when the program completed. (The counters leave through statsSink.)
type rankOutcome struct {
	value    any
	retained []*protocol.RetainedState
}

// runRank is the per-rank, per-incarnation body shared by both substrates'
// drivers: build the protocol layer, restore from the recovery slice, run
// the program, then keep servicing control traffic until every rank is
// done and drain the flusher. Stop failures and cancellation leave by
// panic (mpi.ErrKilled, ErrWorldDead, ErrCanceled), which the driver
// classifies; a returned error is categorized and carries no rank prefix.
func runRank(b *rankBody, prog Program, out *rankOutcome) error {
	rank := b.comm.Rank()
	frame := func(s protocol.Stats, final bool) {
		if b.statsSink != nil { // nil: a worker with no control stream to ship them on
			b.statsSink(protocol.StatsFrame{Rank: rank, Incarnation: b.incarnation, Final: final, Stats: s})
		}
	}
	layer := protocol.NewLayer(b.comm, protocol.Config{
		Mode:       b.mode,
		Store:      b.store,
		EveryN:     b.everyN,
		Interval:   b.interval,
		Debug:      b.debug,
		Tracer:     b.tracer,
		Ctx:        b.ctx,
		AsyncFlush: !b.sync,
		StatsSink:  func(s protocol.Stats) { frame(s, false) },
		Clock:      b.clock,
	})
	// Registered before the Shutdown defer below so it runs AFTER the
	// flush drains (defers are LIFO): the retained copies and the final
	// counters then include a checkpoint that was still flushing. It runs
	// on panic unwinds too, so a survivor keeps its copies across a
	// rollback and the final stats frame carries the counters of an
	// incarnation that just died.
	defer func() {
		out.retained = layer.Retained()
		frame(layer.Stats, true)
	}()
	// The flush task must not outlive this incarnation: Shutdown waits for
	// an in-flight state write, so a dying rank never leaves a task still
	// writing to the store a later incarnation reads.
	defer layer.Shutdown()

	r := newRank(layer, b.seed, b.incarnation)
	if rec := b.recovery; rec.Epoch >= 0 {
		if b.mode != protocol.Full {
			// Only Full checkpoints hold application state; a committed
			// epoch of any other mode cannot be rolled back to.
			return fmt.Errorf("%w: cannot recover from a checkpoint in mode %v", cerr.ErrWorldDead, b.mode)
		}
		if err := layer.RestoreFrom(rec, b.retained); err != nil {
			return fmt.Errorf("restore: %w", cerr.Ensure(err, cerr.ErrStore))
		}
		r.restarting = true
	} else {
		// Nothing has committed, so nothing retained can be rolled back to.
		for _, ret := range b.retained {
			ret.Frozen.Release()
		}
	}

	v, err := prog(r)
	if err != nil {
		return cerr.Ensure(err, cerr.ErrProgram)
	}
	// The initiator comes back from Finish only once the global checkpoint
	// in flight has committed (the end-of-program rule, see Layer.Finish),
	// so its announcement is what releases the others.
	layer.Finish()
	// Keep servicing protocol control traffic until every rank is done, so
	// an in-flight global checkpoint does not stall on a rank that finished
	// early. The rank parks in the transport and wakes only for control
	// messages or the completion announcement — no polling.
	b.announceDone()
	layer.ServiceControlUntil(b.allDone)
	// Drain the flush before reporting: a local checkpoint still in flight
	// at completion is finished (its bytes count) and a failed flush is
	// this rank's error.
	if err := layer.Shutdown(); err != nil {
		return err
	}
	out.value = v
	return nil
}

// rankEnd classifies how one rank left an incarnation, from the panic it
// unwound with (nil: runRank returned) and the error runRank returned. A
// stop failure is delivered by panic — ErrKilled for the rank's own death,
// ErrWorldDead when a peer's death shut the world down — and so is
// cancellation (ErrCanceled).
func rankEnd(rank int, p any, err error) Outcome {
	switch p {
	case nil:
		if err == nil {
			return Outcome{}
		}
	case mpi.ErrCanceled:
		return Outcome{Canceled: true}
	case mpi.ErrKilled, mpi.ErrWorldDead:
		return Outcome{Failed: true}
	default:
		// A panic carrying an already-categorized error (a store failure
		// raised by the flusher) keeps its category; anything else is the
		// application's fault.
		if e, ok := p.(error); ok && cerr.Category(e) != nil {
			err = e
		} else {
			err = fmt.Errorf("%w: rank panicked: %v", cerr.ErrProgram, p)
		}
	}
	return Outcome{Err: &RunError{Rank: rank, Err: err}}
}
