package engine

import (
	"context"
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Outcome is how one incarnation ended, as its runner reports it to the
// Supervisor. With no other field set it is completion: every rank's
// program returned. When ranks ended differently, Canceled dominates Err
// dominates Failed.
type Outcome struct {
	// Values holds the ranks' program return values, on completion.
	Values []any
	// Failed: a rank stop-failed and the world must roll back.
	Failed bool
	// Canceled: the run's context ended the incarnation.
	Canceled bool
	// Err is a failure no rollback recovers from. The runner sets Rank and
	// Err; the supervisor fills in Incarnation and Restarts.
	Err *RunError
}

// Supervisor is the recovery procedure of Section 4.2, once, for every
// substrate: detect a stopping failure, roll every process back to the
// last committed global checkpoint, hand senders their suppression lists,
// and re-execute. It owns what does not depend on what a rank is — the
// restart budget, the commit-record read, the single recovery gather, the
// kill plan, OnRestart, error attribution, the stats behind Result — and
// is told how to run an incarnation by the one function Run takes:
// goroutines over a fresh mpi.World (RunContext, in-process and simulated)
// or worker processes (internal/launch).
type Supervisor struct {
	cfg Config
	cs  *storage.CheckpointStore
	agg *protocol.Aggregator
}

// NewSupervisor returns the supervisor of one run. Of cfg it reads Ranks,
// Store (required), Failures, MaxRestarts, OnRestart and StatsSink.
func NewSupervisor(cfg Config) *Supervisor {
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 10
	}
	return &Supervisor{cfg: cfg, cs: storage.NewCheckpointStore(cfg.Store), agg: protocol.NewAggregator(nil)}
}

// Observe is the stats sink every rank of every incarnation reports to:
// Result.Stats and Result.PerRank are built from these frames, and each is
// forwarded to Config.StatsSink. Safe for concurrent use.
func (s *Supervisor) Observe(f protocol.StatsFrame) {
	s.agg.Observe(f)
	if s.cfg.StatsSink != nil {
		s.cfg.StatsSink(f)
	}
}

// Run drives incarnations until one completes. run executes one to its
// end: plan is the world's recovery plan (nil for a fresh start — the
// initial run, or a rollback before any commit), kill the ranks scheduled
// to die in it, by substrate operation. Result.Incarnations is the
// runner's to fill.
func (s *Supervisor) Run(ctx context.Context,
	run func(ctx context.Context, incarnation int, plan *protocol.RecoveryPlan, kill map[int]int64) Outcome) (*Result, error) {

	res := &Result{}
	for incarnation := 0; ; incarnation++ {
		fail := func(err error) (*Result, error) {
			return nil, &RunError{Rank: -1, Incarnation: incarnation, Restarts: res.Restarts, Err: err}
		}
		if cause := ctx.Err(); cause != nil {
			// Covers cancellation before the first incarnation and between
			// incarnations — i.e. during the rollback a failed incarnation
			// scheduled.
			when := "before it started"
			if incarnation > 0 {
				when = "during rollback"
			}
			return fail(fmt.Errorf("%w %s: %w", cerr.ErrCanceled, when, cause))
		}
		var plan *protocol.RecoveryPlan
		if incarnation == 0 {
			// A reused store may hold a previous job's commit record;
			// restoring it into this job would resume foreign state.
			// Checkpoints are reachable only through the commit record, so
			// clearing it is enough — this job's epochs overwrite the old
			// blobs as they go.
			if err := s.cs.ClearCommit(); err != nil {
				return fail(fmt.Errorf("%w: clear stale commit record: %w", cerr.ErrStore, err))
			}
		} else {
			epoch, haveCkpt, err := s.cs.Committed()
			if err != nil {
				return fail(fmt.Errorf("read commit record: %w", cerr.Ensure(err, cerr.ErrStore)))
			}
			rec := -1
			if haveCkpt {
				// Recovery gather, run once (Section 4.2: "the senders of
				// these early messages are informed of the messageIDs so
				// that resending these messages can be suppressed"):
				// O(world) reads of the ranks' protocol records build every
				// sender's suppression list; each rank gets its slice.
				rec = epoch
				if plan, err = protocol.GatherRecovery(s.cs, epoch, s.cfg.Ranks); err != nil {
					return fail(fmt.Errorf("gather recovery plan: %w", cerr.Ensure(err, cerr.ErrStore)))
				}
			}
			res.RecoveredEpochs = append(res.RecoveredEpochs, rec)
		}

		out := run(ctx, incarnation, plan, killPlan(s.cfg.Failures, incarnation))
		switch {
		case out.Canceled:
			cause := ctx.Err()
			if cause == nil {
				cause = mpi.ErrCanceled
			}
			return fail(fmt.Errorf("%w: %w", cerr.ErrCanceled, cause))
		case out.Err != nil:
			out.Err.Incarnation, out.Err.Restarts = incarnation, res.Restarts
			return nil, out.Err
		case out.Failed:
			if res.Restarts >= s.cfg.MaxRestarts {
				return fail(fmt.Errorf("%w (MaxRestarts = %d)", cerr.ErrMaxRestarts, s.cfg.MaxRestarts))
			}
			res.Restarts++
			if s.cfg.OnRestart != nil {
				s.cfg.OnRestart(res.Restarts)
			}
		default:
			res.Values, res.Stats, res.PerRank = out.Values, s.agg.FinalStats(), s.agg.PerRank()
			return res, nil
		}
	}
}

// killPlan slices the failure schedule for one incarnation.
func killPlan(failures []Failure, incarnation int) map[int]int64 {
	plan := map[int]int64{}
	for _, f := range failures {
		if f.Incarnation == incarnation {
			plan[f.Rank] = f.AtOp
		}
	}
	return plan
}
