package engine

import (
	"context"
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
// wire substrate supplied by a cross-process Transport. The Supervisor
// runs in the launcher — it gathers the recovery plan, and the launcher
// decides who is respawned — so everything here is one incarnation of one
// rank.

// WorkerConfig configures one rank's process for one incarnation.
type WorkerConfig struct {
	// Rank is this process's world rank; Ranks is the world size.
	Rank, Ranks int
	// Incarnation numbers the launcher's spawn attempts, starting at 0.
	Incarnation int
	// Mode selects the protocol version; only Full can be rolled back to.
	Mode protocol.Mode
	// Store is the stable storage shared by every rank's process (an
	// on-disk store under the launcher's shared directory). Required.
	Store storage.Stable
	// EveryN / Interval are the initiator's checkpoint triggers.
	EveryN   int
	Interval time.Duration
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
	// Debug enables protocol assertions. Sync selects the blocking
	// checkpoint (see Config.Sync). Tracer receives protocol events.
	Debug  bool
	Sync   bool
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
	// Recovery is this rank's slice of the supervisor's recovery gather:
	// the launcher read the committed epoch's metadata once and shipped
	// each worker its inputs, so the worker does no store scan of its own.
	// Epoch -1 means "fresh start, do not restore". Required.
	Recovery *protocol.RankRecovery
	// Retained, when non-nil, is what RunWorker returned for this process's
	// previous incarnation: the frozen views of its own recent checkpoints,
	// kept by a worker process that survived a rollback. The incarnation
	// takes them over — the view of the recovery epoch is restored without
	// store reads and retained on, the rest released — so the caller keeps
	// nothing but what the next return hands it.
	Retained []*protocol.RetainedState
}

// RunWorker executes prog as one rank-process of a distributed world. It
// restores from the epoch its recovery slice names, runs the program, and
// services control traffic until every rank announces completion. How the
// rank's incarnation ended is reported in the supervisor's own terms: a
// stop failure anywhere in the world is Failed (the caller rejoins the next
// incarnation, or exits so its launcher can re-spawn it), ctx ending the
// run is Canceled, anything else that stopped this rank is Err, and
// completion carries the program's one return value. retained is the
// rank's in-memory checkpoints (in Full mode, on normal AND rollback
// exits), and replaces whatever the caller passed in: it hands them back
// through WorkerConfig.Retained when it reruns the rank in the same process.
func RunWorker(ctx context.Context, cfg WorkerConfig, prog Program) (retained []*protocol.RetainedState, end Outcome) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Rank < 0 || cfg.Rank >= cfg.Ranks || cfg.Ranks <= 0 {
		return nil, rankEnd(cfg.Rank, nil, fmt.Errorf("%w: worker rank %d out of range [0,%d)", cerr.ErrSpec, cfg.Rank, cfg.Ranks))
	}
	if cfg.Store == nil || cfg.NewTransport == nil || cfg.Start == nil || cfg.AnnounceDone == nil || cfg.AllDone == nil || cfg.Recovery == nil {
		return nil, rankEnd(cfg.Rank, nil, fmt.Errorf("%w: worker requires Store, NewTransport, Start, AnnounceDone, AllDone, and Recovery", cerr.ErrSpec))
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
		return nil, rankEnd(cfg.Rank, nil, fmt.Errorf("engine: start transport: %w", cerr.Ensure(err, cerr.ErrTransport)))
	}

	defer func() {
		if p := recover(); p != nil {
			end = rankEnd(cfg.Rank, p, nil)
		}
	}()
	var out rankOutcome
	// Registered after the recover defer, so a stop-failure unwind still
	// hands the caller the retained copies.
	defer func() { retained = out.retained }()
	if err := runRank(&rankBody{
		ctx: ctx, comm: world.Comm(cfg.Rank), incarnation: cfg.Incarnation,
		mode: cfg.Mode, store: storage.NewCheckpointStore(cfg.Store), everyN: cfg.EveryN, interval: cfg.Interval,
		seed: cfg.Seed, debug: cfg.Debug, tracer: cfg.Tracer, sync: cfg.Sync,
		statsSink: cfg.StatsSink,
		recovery:  cfg.Recovery, retained: cfg.Retained,
		announceDone: cfg.AnnounceDone, allDone: cfg.AllDone,
	}, prog, &out); err != nil {
		return nil, rankEnd(cfg.Rank, nil, err)
	}
	// Every peer has announced done by now, in Unmodified mode too (the
	// body parks on the transport until then): exiting, and closing this
	// rank's sockets, cannot read as a death on a peer still computing.
	return nil, Outcome{Values: []any{out.value}}
}
