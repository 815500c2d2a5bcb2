package ccift

import (
	"cmp"
	"context"
	"os"
	"strings"
	"time"

	"ccift/internal/engine"
	"ccift/internal/launch"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// RunError is the structured failure report Launch returns on every
// substrate: which rank ended the run (-1 when not attributable to one
// rank), in which incarnation, and how many rollback-restarts were
// consumed. The underlying cause is reachable with errors.Is/As through
// Unwrap and always matches exactly one taxonomy sentinel (ErrCanceled, ErrSpec,
// ErrStore, ErrTransport, ErrWorldDead, ErrMaxRestarts, ErrProgram);
// context.Canceled / context.DeadlineExceeded and the program's own error
// remain in the chain alongside their category.
type RunError = engine.RunError

// Tracer receives protocol events from every rank (see internal/trace for
// a recorder that renders space-time diagrams).
type Tracer = protocol.Tracer

// TraceEvent is one observable protocol action delivered to a Tracer.
type TraceEvent = protocol.TraceEvent

// Launch executes prog on the substrate the spec selects, under ctx.
//
// With a default spec the ranks run as goroutines over the in-process
// substrate. With WithDistributed the same program runs as one OS process per
// rank over a full TCP mesh, checkpoints in a shared on-disk store, and
// failures delivered as real SIGKILLs; Launch plays the launcher role,
// re-executing the current binary for each rank. With WithSimulated the
// same program runs over a deterministic simulated network with virtual
// time and a seeded fault schedule (see Scenario).
//
// Worker role: in a distributed run each spawned worker re-enters the
// caller's own code path and reaches this same Launch call; Launch detects
// the worker environment (IsWorker), runs the single-rank worker role, and
// exits the process with the launch protocol's exit code — it never
// returns in a worker. Keep launcher-only side effects (printing, file
// writes) after the Launch call or guarded by IsWorker.
//
// Cancelling ctx (or its deadline expiring) aborts the run on either
// substrate: in-process ranks unwind at their next substrate operation,
// distributed workers are SIGKILLed; either way Launch returns a *RunError
// wrapping ctx's error. With no failures injected and no cancellation,
// Launch returns once every rank's program has completed, rolling back and
// restarting from the last committed global checkpoint as ranks die.
//
// Result shape: on the in-process substrate, Result.Values holds every
// rank's program return value. On the distributed substrate only rank 0's
// result crosses the process boundary, as a string (fmt's rendering of the
// return value), so Values is that single string — return a
// fmt.Sprint-stable value (e.g. a formatted string) from programs that run
// on both substrates. Result.Stats and Result.PerRank carry every rank's
// protocol counters on BOTH substrates: distributed workers stream their
// counters back to the launcher, which reconstructs the same per-rank view
// the in-process engine reads directly.
//
// Observability: WithMetricsAddr additionally serves the run's live
// counters in Prometheus text format for the duration of the Launch.
func Launch(ctx context.Context, spec *Spec, prog Program) (*Result, error) {
	if spec == nil {
		spec = NewSpec()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := spec.cfg
	if spec.distributed != nil && launch.IsWorker() {
		// This process is one spawned rank: run the worker role with the
		// same spec the launcher-side call site built, and never return.
		launch.WorkerMain(launch.WorkerApp{
			Prog:     prog,
			EveryN:   cfg.EveryN,
			Interval: cfg.Interval,
			Seed:     cfg.Seed,
			Debug:    cfg.Debug,
			Mode:     cfg.Mode,
			Sync:     cfg.Sync,
		})
	}
	if spec.metricsAddr != "" {
		// On the distributed substrate the launcher serves the aggregated
		// view: workers took WorkerMain above, so they never contend for
		// the address.
		mr, err := newMetricsRun(spec.metricsAddr, cfg.Ranks)
		if err != nil {
			return nil, err
		}
		defer mr.close()
		agg := protocol.NewAggregator(mr.observe)
		cfg.StatsSink = agg.Observe
		cfg.OnRestart = mr.onRestart
	}
	if spec.distributed != nil {
		return launchDistributed(ctx, cfg, spec.distributed)
	}
	if spec.sim != nil {
		s, err := sim.New(cfg.Ranks, *spec.sim)
		if err != nil {
			return nil, err // Validate vets the scenario, so this is defensive
		}
		defer s.Stop()
		cfg.NewTransport = s.NewTransport
		cfg.Clock = s.DetectorClock()
		cfg.RankClock = s.RankClock
		if cfg.Store == nil {
			cfg.Store = storage.NewMemory()
		}
		cfg.Store = s.WrapStore(cfg.Store)
		// Scenario crashes are silent stops; only the heartbeat detector
		// can observe them, and virtual timeouts are free.
		cfg.DetectorTimeout = cmp.Or(spec.sim.DetectorTimeout, 500*time.Millisecond)
	}
	return engine.RunContext(ctx, cfg, prog)
}

// IsWorker reports whether the current process was spawned as the worker
// of a distributed Launch. Binaries that launch distributed runs may use
// it to skip launcher-only side effects; calling Launch itself already
// handles the worker role.
func IsWorker() bool { return launch.IsWorker() }

// launchDistributed plays the launcher role: cfg is the spec's run
// configuration, with the metrics hooks already attached.
func launchDistributed(ctx context.Context, cfg engine.Config, d *Distributed) (*Result, error) {
	args := d.Args
	if args == nil {
		args = os.Args[1:]
	}
	lres, err := launch.RunContext(ctx, launch.Config{
		Exe:             d.Exe,
		Args:            args,
		Ranks:           cfg.Ranks,
		StoreDir:        d.StoreDir,
		WorkDir:         d.WorkDir,
		Kills:           cfg.Failures,
		MaxRestarts:     cfg.MaxRestarts,
		DetectorTimeout: d.DetectorTimeout,
		Stderr:          d.Stderr,
		Verbose:         d.Verbose,
		StatsSink:       cfg.StatsSink,
		OnRestart:       cfg.OnRestart,
	})
	if err != nil {
		return nil, err
	}
	// Only rank 0's rendered result crosses the process boundary: Values
	// holds that one string (fmt's rendering of the program's return value,
	// which the worker prints as "result: <value>"). The per-rank protocol
	// counters DO cross it, as stats frames on the workers' control streams.
	res := &lres.Result
	for _, line := range strings.Split(lres.Output, "\n") {
		if v, ok := strings.CutPrefix(line, "result: "); ok {
			res.Values = append(res.Values, v)
			break
		}
	}
	return res, nil
}
