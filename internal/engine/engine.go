// Package engine runs MPI-style programs under the checkpointing protocol.
// It holds the one rollback state machine every substrate runs (Supervisor:
// restart budget, commit-record read, recovery gather, kill plan, error
// attribution), the one per-rank body (runRank), and two of the three
// shapes an incarnation takes: one goroutine per rank over the in-process
// or simulated transport (RunContext), and one rank of a worker process
// (RunWorker). The third, a world of worker processes, is internal/launch.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/clock"
	"ccift/internal/detector"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Program is the application entry point executed by every rank. It must
// route all communication and non-determinism through the Rank, register
// its recoverable state, and call PotentialCheckpoint at checkpointable
// locations. On restart it is re-invoked with Restarting() true.
type Program func(r *Rank) (any, error)

// Failure schedules a stopping failure: the given rank dies at its AtOp-th
// substrate operation of the given incarnation (incarnation 0 is the
// initial run).
type Failure struct {
	Rank        int
	AtOp        int64
	Incarnation int
}

// Config configures a run.
type Config struct {
	// Ranks is the number of processes. Required.
	Ranks int
	// Mode selects the Figure-8 program version. Default Unmodified.
	Mode protocol.Mode
	// Store is the stable storage backing checkpoints. Default in-memory.
	Store storage.Stable
	// EveryN asks the initiator for a global checkpoint every N-th
	// PotentialCheckpoint call on rank 0; Interval does the same on a wall
	// clock (the paper used 30 s). Zero disables each trigger.
	EveryN   int
	Interval time.Duration
	// Failures is the injected failure schedule.
	Failures []Failure
	// MaxRestarts bounds rollback attempts. Default 10.
	MaxRestarts int
	// Seed is the base seed for per-rank application randomness. The
	// incarnation number is mixed in, so un-logged randomness genuinely
	// diverges across restarts (the protocol's event log is what keeps
	// recovery consistent).
	Seed int64
	// Debug enables protocol assertions.
	Debug bool
	// Sync restores the classic stop-serialize-fsync checkpoint (the Figure
	// 8 baselines): the rank blocks until its state is durable. Off, the
	// default, a checkpoint blocks the rank only for its freeze.
	Sync bool
	// Tracer, when non-nil, receives protocol events from every rank (see
	// internal/trace for a recorder that renders space-time diagrams).
	Tracer protocol.Tracer
	// DetectorTimeout, when non-zero, routes failure detection through the
	// heartbeat detector (internal/detector) instead of the default
	// fail-stop self-report: a stopped rank is noticed only when its
	// runtime's heartbeats go silent for this long, as on a real cluster.
	DetectorTimeout time.Duration
	// NewTransport, when non-nil, supplies the wire substrate for each
	// incarnation's world; nil selects the in-process indexed-mailbox
	// transport. The simulated substrate plugs in here.
	NewTransport func(*mpi.World) mpi.Transport
	// StatsSink, when non-nil, receives live per-rank counter snapshots as
	// the run progresses (each completed checkpoint and each rank's
	// finish), tagged with rank and incarnation. Called concurrently from
	// rank goroutines; the sink must synchronize (protocol.Aggregator
	// does). The public metrics endpoint is fed from here.
	StatsSink func(protocol.StatsFrame)
	// OnRestart, when non-nil, is called after each rollback-restart
	// decision with the cumulative restart count, before the next
	// incarnation spawns.
	OnRestart func(restarts int)
	// Clock is the time source for the failure detector, interval
	// triggers, and blocked/flush-time accounting; nil selects the wall
	// clock. The simulated substrate passes its virtual clock here, so a
	// 30-second heartbeat schedule elapses in microseconds.
	Clock clock.Clock
	// RankClock, when non-nil, supplies each rank's protocol-layer clock
	// (the simulated substrate's per-rank skew); nil gives every rank
	// Clock. The detector always runs on Clock — skew between the ranks
	// and the detector is exactly what clock-skew scenarios probe.
	RankClock func(rank int) clock.Clock
}

// Result reports a completed run.
type Result struct {
	// Values holds each rank's program return value. (The public Launch
	// API reuses this type for distributed runs, where only rank 0's
	// result crosses the process boundary — see ccift.Launch.)
	Values []any
	// Restarts is the number of rollback-restarts performed.
	Restarts int
	// RecoveredEpochs lists the epoch recovered from at each restart
	// (-1 when no checkpoint was available and the program restarted from
	// the beginning).
	RecoveredEpochs []int
	// Stats aggregates the protocol-layer statistics of the final
	// incarnation, per rank.
	Stats []protocol.Stats
	// PerRank is Stats with each entry tagged by rank and incarnation —
	// the shape both substrates report, so observability code written
	// against it is substrate-independent.
	PerRank []protocol.RankStats
	// Incarnations reports each distributed incarnation's worker
	// processes (empty on the in-process and simulated substrates, where
	// ranks are goroutines). A surviving rank's PID is stable across
	// entries; only dead ranks are re-execed.
	Incarnations []IncarnationInfo
}

// IncarnationInfo is the per-incarnation process view of a distributed
// run: one entry per rank.
type IncarnationInfo struct {
	// PIDs[r] is rank r's OS process ID during this incarnation.
	PIDs []int
	// Exits[r] describes how rank r's process left this incarnation
	// ("exit status 0", "signal: killed", ...); empty while it kept
	// running into the next incarnation (a survivor).
	Exits []string
	// RecoveredEpoch is the epoch the NEXT incarnation restored from (-1
	// for a restart from the beginning, or for the final incarnation).
	RecoveredEpoch int
}

// RunError is the structured failure report of a run on every substrate:
// which rank ended it (-1 when the failure is not attributable to one
// rank), in which incarnation, and how many rollback-restarts had been
// consumed. The underlying cause is reachable through Unwrap, so
// errors.Is/As work on sentinel causes (cerr.ErrMaxRestarts,
// context.Canceled, ...).
type RunError struct {
	// Rank is the rank whose program error or panic ended the run, or -1
	// when the run ended for a world-wide reason (cancellation, exhausted
	// restarts, storage failure).
	Rank int
	// Incarnation is the incarnation in which the run ended (0 is the
	// initial execution).
	Incarnation int
	// Restarts is the number of rollback-restarts performed before the end.
	Restarts int
	// Err is the underlying cause.
	Err error
}

func (e *RunError) Error() string {
	who := "run"
	if e.Rank >= 0 {
		who = fmt.Sprintf("rank %d", e.Rank)
	}
	return fmt.Sprintf("engine: %s failed in incarnation %d after %d restart(s): %v",
		who, e.Incarnation, e.Restarts, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// Validate checks a Config for the errors that previously surfaced as
// panics or hangs deep inside a run. It is called by Run/RunContext and by
// the public API's spec validation.
func (cfg Config) Validate() error {
	if cfg.Ranks <= 0 {
		return fmt.Errorf("%w: Ranks must be positive, got %d", cerr.ErrSpec, cfg.Ranks)
	}
	if cfg.MaxRestarts < 0 {
		return fmt.Errorf("%w: MaxRestarts must not be negative, got %d", cerr.ErrSpec, cfg.MaxRestarts)
	}
	if cfg.EveryN < 0 {
		return fmt.Errorf("%w: EveryN must not be negative, got %d", cerr.ErrSpec, cfg.EveryN)
	}
	if cfg.Interval < 0 {
		return fmt.Errorf("%w: Interval must not be negative, got %v", cerr.ErrSpec, cfg.Interval)
	}
	if cfg.EveryN > 0 && cfg.Interval > 0 {
		return fmt.Errorf("%w: conflicting checkpoint triggers: EveryN (%d) and Interval (%v) are mutually exclusive — pick one",
			cerr.ErrSpec, cfg.EveryN, cfg.Interval)
	}
	for i, f := range cfg.Failures {
		if f.Rank < 0 || f.Rank >= cfg.Ranks {
			return fmt.Errorf("%w: Failures[%d]: rank %d out of range [0,%d)", cerr.ErrSpec, i, f.Rank, cfg.Ranks)
		}
		if f.AtOp <= 0 {
			return fmt.Errorf("%w: Failures[%d]: AtOp must be positive, got %d", cerr.ErrSpec, i, f.AtOp)
		}
		if f.Incarnation < 0 {
			return fmt.Errorf("%w: Failures[%d]: Incarnation must not be negative, got %d", cerr.ErrSpec, i, f.Incarnation)
		}
	}
	return nil
}

// Run executes prog on cfg.Ranks ranks, rolling back and restarting from
// the last committed global checkpoint whenever a rank stop-fails, until
// the program completes on every rank.
func Run(cfg Config, prog Program) (*Result, error) {
	return RunContext(context.Background(), cfg, prog)
}

// RunContext is Run under a context: when ctx is canceled or its deadline
// expires, every rank is unblocked, the incarnation is abandoned, and the
// run returns a *RunError wrapping ctx's error — there is no way to resume
// it. Cancellation is observed at every substrate operation and whenever a
// rank is parked in the transport, so it takes effect without waiting for
// the program to reach any particular point.
func RunContext(ctx context.Context, cfg Config, prog Program) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Store == nil {
		cfg.Store = storage.NewMemory()
	}
	w := &inProcess{cfg: cfg, sup: NewSupervisor(cfg), prog: prog,
		retained: make([][]*protocol.RetainedState, cfg.Ranks)}
	return w.sup.Run(ctx, w.runIncarnation)
}

// inProcess is the goroutine-shaped world of the in-process and simulated
// substrates: what its incarnations share.
type inProcess struct {
	cfg  Config
	sup  *Supervisor
	prog Program
	// retained holds each rank's in-memory copies of its own recent
	// checkpoints, carried across incarnations so survivors of a failure
	// restore without store reads; the entry of a rank that died is dropped.
	retained [][]*protocol.RetainedState
}

// runIncarnation runs one goroutine per rank over a fresh mpi.World and
// classifies the incarnation once they have all unwound.
func (w *inProcess) runIncarnation(ctx context.Context, incarnation int, plan *protocol.RecoveryPlan, kill map[int]int64) Outcome {
	cfg, retained := w.cfg, w.retained
	world := mpi.NewWorld(cfg.Ranks, mpi.Options{
		KillPlan:     kill,
		NewTransport: cfg.NewTransport,
	})

	// Cancellation: the moment ctx is done, cancel the world so every rank
	// — blocked in the substrate or about to enter it — unwinds with
	// mpi.ErrCanceled. Stopped when the incarnation ends either way.
	stopCancel := context.AfterFunc(ctx, world.Cancel)
	defer stopCancel()

	n := cfg.Ranks
	values := make([]any, n)
	errs := make([]error, n)
	panics := make([]any, n)
	var finished atomic.Int64
	var wg sync.WaitGroup

	// Failure detection. With a timeout configured, a heartbeat detector
	// watches each rank's (simulated) runtime and declares the world dead
	// when one goes silent — the paper's assumed detection mechanism. The
	// default is immediate self-report, which is the same outcome with a
	// zero detection latency.
	useDetector := cfg.DetectorTimeout > 0
	var stopDetector chan struct{}
	if useDetector {
		stopDetector = make(chan struct{})
		defer close(stopDetector)
		d := detector.New(n, cfg.DetectorTimeout, cfg.Clock)
		d.Monitor(cfg.DetectorTimeout/4,
			func(rank int) bool { return !world.Killed(rank) },
			func([]int) { world.Shutdown() },
			stopDetector)
	}

	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Lifecycle note for transports that track rank goroutines
			// (the simulated substrate's quiescence accounting): registered
			// before the recover/shutdown defers so the rank is fully
			// unwound when it runs.
			defer world.RankDone(r)
			defer func() {
				if p := recover(); p != nil {
					panics[r] = p
					switch p {
					case mpi.ErrKilled:
						if !useDetector {
							// Default fail-stop self-report: the death is
							// announced instantly and survivors unblock. With
							// the heartbeat detector enabled, the dead rank
							// stays silent and the detector raises the alarm
							// after its timeout instead.
							world.Shutdown()
						}
					case mpi.ErrWorldDead, mpi.ErrCanceled:
						// Already a global unwind; nothing to announce.
					default:
						// An internal failure (store write, an application
						// panic) is fail-stop too: announce it so survivors
						// parked in receives unblock instead of waiting
						// forever on a rank that will never send.
						world.Shutdown()
					}
				}
			}()
			var out rankOutcome
			// Carry this rank's in-memory checkpoint copies to the next
			// incarnation, however this one ends — unless the rank itself
			// died, in which case its memory is considered lost and it must
			// restore from the store like a respawned process.
			defer func() {
				retained[r] = out.retained
				if world.Killed(r) {
					retained[r] = nil
				}
			}()
			clk := cfg.Clock
			if cfg.RankClock != nil {
				clk = cfg.RankClock(r)
			}
			errs[r] = runRank(&rankBody{
				ctx: ctx, comm: world.Comm(r), incarnation: incarnation,
				mode: cfg.Mode, store: w.sup.cs, everyN: cfg.EveryN, interval: cfg.Interval,
				seed: cfg.Seed, debug: cfg.Debug, tracer: cfg.Tracer, sync: cfg.Sync,
				clock: clk, statsSink: w.sup.Observe,
				recovery: plan.ForRank(r), retained: retained[r],
				announceDone: func() {
					if finished.Add(1) == int64(n) {
						// Last rank out: wake every finished rank parked in
						// ServiceControlUntil so they observe completion.
						world.Interrupt()
					}
				},
				allDone: func() bool { return finished.Load() >= int64(n) },
			}, w.prog, &out)
			values[r] = out.value
			if errs[r] != nil {
				// A rank whose restore, program or final flush failed will
				// never send again: fail-stop, like a panic, so survivors
				// parked in receives unblock.
				world.Shutdown()
			}
		}(r)
	}
	wg.Wait()

	// Merge the ranks' ends into the incarnation's. The supervisor reads an
	// Outcome in dominance order: cancellation first (a canceled run must
	// report ctx.Err() even if some ranks observed a concurrent injected
	// failure), then a real failure — of the lowest rank that has one —
	// before ErrKilled / ErrWorldDead, because the shutdown a failure
	// triggered to unblock the survivors is collateral, not the cause.
	out := Outcome{Values: values}
	for r := n - 1; r >= 0; r-- {
		end := rankEnd(r, panics[r], errs[r])
		out.Canceled = out.Canceled || end.Canceled
		out.Failed = out.Failed || end.Failed
		if end.Err != nil {
			out.Err = end.Err
		}
	}
	return out
}
