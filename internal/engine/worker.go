package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// This file is the cross-process half of the engine: where Run spawns every
// rank as a goroutine in one address space, RunWorker drives exactly one
// rank inside its own OS process, with the world constructed from the
// launcher's environment (rank, size, incarnation, shared store) and the
// wire substrate supplied by a cross-process Transport. The rollback loop
// moves out of the process entirely — the launcher gathers the recovery
// plan and decides who is respawned — so everything here is one
// incarnation of one rank.

// ErrIncarnationDead reports that the incarnation aborted: a peer (or this
// rank's own kill plan, in simulated mode) stop-failed and the world was
// shut down. The launcher responds by rolling the world back to the last
// committed global checkpoint.
var ErrIncarnationDead = errors.New("engine: incarnation aborted by a stop failure")

// WorkerConfig configures one rank's process for one incarnation.
type WorkerConfig struct {
	// Rank is this process's world rank; Ranks is the world size.
	Rank, Ranks int
	// Incarnation numbers the launcher's spawn attempts, starting at 0.
	Incarnation int
	// Mode selects the protocol version; recovery requires Full.
	Mode protocol.Mode
	// Store is the stable storage shared by every rank's process (an
	// on-disk store under the launcher's shared directory). Required.
	Store storage.Stable
	// EveryN / Interval are the initiator's checkpoint triggers.
	EveryN   int
	Interval time.Duration
	// Policy is the checkpoint policy (see Config.Policy).
	Policy protocol.Policy
	// KillAtOp, when non-zero, schedules this rank's death at its
	// KillAtOp-th substrate operation. Kill performs the death; the
	// launcher's worker installs a real self-SIGKILL (which never returns),
	// while tests may leave Kill nil to fall back to the simulated
	// stop-failure panic.
	KillAtOp int64
	Kill     func()
	// Seed is the base seed for application randomness (mixed with rank and
	// incarnation exactly as the in-process engine does).
	Seed int64
	// Debug enables protocol assertions. Tracer receives protocol events.
	Debug  bool
	Tracer protocol.Tracer
	// NewTransport builds the cross-process substrate (tcptransport.Attach).
	// Required, as is Start, which brings the mesh up once the world exists.
	NewTransport func(*mpi.World) mpi.Transport
	Start        func() error
	// AnnounceDone broadcasts this rank's completion to its peers; AllDone
	// reports whether every rank has announced. Together they replace the
	// in-process engine's finished counter. Both required.
	AnnounceDone func()
	AllDone      func() bool
	// StatsSink, when non-nil, receives this rank's counter snapshots as
	// the incarnation progresses — at each completed checkpoint and once,
	// marked Final, as the worker unwinds (normal completion AND rollback
	// exit, so the launcher sees the counters of killed incarnations too).
	StatsSink func(protocol.StatsFrame)
	// Recovery is this rank's slice of the launcher-side recovery gather:
	// the launcher read the committed epoch's metadata once and shipped
	// each worker its inputs, so the worker does no store scan of its own.
	// Epoch -1 means "fresh start, do not restore". Required.
	Recovery *protocol.RankRecovery
	// Retained, when non-nil, is this process's in-memory copy of its own
	// recent checkpoints, kept across incarnations by a worker process
	// that survived a rollback; a copy matching the recovery epoch is
	// restored without store reads.
	Retained []*protocol.RetainedState
}

// WorkerResult reports one completed (or aborted) worker incarnation.
type WorkerResult struct {
	// Value is the program's return value (nil when the incarnation died).
	Value any
	// RecoveredEpoch is the epoch this incarnation restored from, or -1
	// when it started from the beginning.
	RecoveredEpoch int
	// Stats are the protocol-layer statistics of this rank.
	Stats protocol.Stats
	// Retained carries the rank's in-memory checkpoint copies out of the
	// incarnation (in Full mode, on normal AND rollback exits) — the
	// caller hands them back through WorkerConfig.Retained when it reruns
	// the rank in the same process.
	Retained []*protocol.RetainedState
}

// RunWorker executes prog as one rank-process of a distributed world. It
// restores from the epoch its recovery slice names, runs the program, and
// services control traffic until every rank announces completion. A stop
// failure anywhere in the world surfaces as ErrIncarnationDead; the caller
// rejoins the next incarnation or exits so its launcher can re-spawn it.
// Cancelling ctx aborts the incarnation and returns an error wrapping
// ctx.Err().
func RunWorker(ctx context.Context, cfg WorkerConfig, prog Program) (res WorkerResult, err error) {
	res.RecoveredEpoch = -1
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Ranks || cfg.Ranks <= 0 {
		return res, fmt.Errorf("%w: worker rank %d out of range [0,%d)", cerr.ErrSpec, cfg.Rank, cfg.Ranks)
	}
	if cfg.Store == nil || cfg.NewTransport == nil || cfg.Start == nil || cfg.AnnounceDone == nil || cfg.AllDone == nil || cfg.Recovery == nil {
		return res, fmt.Errorf("%w: worker requires Store, NewTransport, Start, AnnounceDone, AllDone, and Recovery", cerr.ErrSpec)
	}
	if cfg.Recovery.Epoch >= 0 {
		if cfg.Mode != protocol.Full {
			return res, fmt.Errorf("%w: cannot recover from a checkpoint in mode %v", cerr.ErrWorldDead, cfg.Mode)
		}
		res.RecoveredEpoch = cfg.Recovery.Epoch
	}

	opts := mpi.Options{NewTransport: cfg.NewTransport}
	if cfg.KillAtOp > 0 {
		opts.KillPlan = map[int]int64{cfg.Rank: cfg.KillAtOp}
		if cfg.Kill != nil {
			opts.OnKill = func(int) { cfg.Kill() }
		}
	}
	world := mpi.NewWorld(cfg.Ranks, opts)
	stopCancel := context.AfterFunc(ctx, world.Cancel)
	defer stopCancel()
	if err := cfg.Start(); err != nil {
		return res, fmt.Errorf("engine: start transport: %w: %w", cerr.ErrTransport, err)
	}

	// A stop failure is delivered by panic (ErrKilled for this rank's own
	// simulated death, ErrWorldDead when a peer's death shut the world
	// down); both mean the incarnation is over. ErrCanceled means the
	// caller's context ended the run — not a failure, so no re-spawn.
	defer func() {
		if p := recover(); p != nil {
			switch p {
			case mpi.ErrKilled, mpi.ErrWorldDead:
				err = ErrIncarnationDead
			case mpi.ErrCanceled:
				cause := ctx.Err()
				if cause == nil {
					cause = mpi.ErrCanceled
				}
				err = fmt.Errorf("engine: worker rank %d canceled: %w: %w", cfg.Rank, cerr.ErrCanceled, cause)
			default:
				// Keep the category of an error-valued panic (flusher store
				// failures); everything else is the application's fault.
				if e, ok := p.(error); ok && cerr.Category(e) != nil {
					err = e
				} else {
					err = fmt.Errorf("engine: worker rank %d panicked: %w: %v", cfg.Rank, cerr.ErrProgram, p)
				}
			}
		}
	}()

	var out rankOutcome
	// Registered after the recover defer, so a stop-failure unwind still
	// hands the caller the counters and the retained copies.
	defer func() { res.Stats, res.Retained = out.stats, out.retained }()
	if err := runRank(&rankBody{
		ctx: ctx, comm: world.Comm(cfg.Rank), incarnation: cfg.Incarnation,
		mode: cfg.Mode, store: storage.NewCheckpointStore(cfg.Store), everyN: cfg.EveryN, interval: cfg.Interval,
		seed: cfg.Seed, debug: cfg.Debug, tracer: cfg.Tracer, policy: cfg.Policy,
		statsSink: cfg.StatsSink,
		recovery:  cfg.Recovery, retained: cfg.Retained,
		announceDone: cfg.AnnounceDone, allDone: cfg.AllDone,
	}, prog, &out); err != nil {
		return res, fmt.Errorf("engine: rank %d: %w", cfg.Rank, err)
	}
	// In Unmodified mode the protocol layer is inert and the body's control
	// servicing returns immediately; still wait for every peer's done
	// announcement, because exiting (and closing this rank's sockets) while
	// a peer is mid-computation would read as a death on its side.
	// Fault-free overhead sweeps (fig8 -distributed) run this path; in the
	// active modes AllDone already holds and the loop is skipped.
	for !cfg.AllDone() {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("engine: worker rank %d canceled: %w: %w", cfg.Rank, cerr.ErrCanceled, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.Value = out.value
	return res, nil
}
