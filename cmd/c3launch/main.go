// Command c3launch runs a benchmark application as a genuinely distributed
// job: one OS process per rank, wire messages over TCP, checkpoints in a
// shared on-disk store. A -kill flag delivers a real SIGKILL to the doomed
// rank's process; the survivors detect the death (connection reset, then
// heartbeat timeout) and roll back in place, c3launch re-spawns the dead
// rank, and the world restores itself from the last committed global
// checkpoint.
//
// Usage:
//
//	c3launch -app laplace -ranks 4 -size 64 -iters 40 -every 10
//	c3launch -app laplace -ranks 4 -kill 2@100        # rank 2's process is
//	                                                  # SIGKILLed at its op 100
//	c3launch -app cg -store /tmp/ckpts -kill 2@400 -kill 1@900
//
// c3launch is a thin wrapper over ccift.Launch with WithDistributed: the
// same binary serves as the worker, because each re-exec'd worker process
// re-enters the identical Launch call, which detects the worker
// environment and runs the single-rank role instead of launching.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"ccift"
	"ccift/internal/apps"
)

func main() {
	app := flag.String("app", "laplace", "application: cg, laplace, neurosys")
	ranks := flag.Int("ranks", 4, "number of worker processes")
	size := flag.Int("size", 0, "problem size (matrix/grid edge; neuron-grid edge for neurosys)")
	iters := flag.Int("iters", 0, "iterations")
	every := flag.Int("every", 0, "checkpoint every N PotentialCheckpoint calls on the initiator")
	interval := flag.Duration("interval", 0, "checkpoint on a wall-clock interval")
	storeDir := flag.String("store", "", "shared checkpoint directory (default: a scratch dir)")
	metricsAddr := flag.String("metrics", "", "serve live Prometheus metrics at this address (e.g. :9090) on the launcher for the duration of the run")
	detector := flag.Duration("detector", 2*time.Second, "heartbeat suspicion timeout")
	seed := flag.Int64("seed", 0, "base seed for application randomness")
	maxRestarts := flag.Int("max-restarts", 10, "bound on incarnation re-spawns")
	timeout := flag.Duration("timeout", 0, "cancel the job after this long (0: no deadline)")
	verbose := flag.Bool("v", false, "log spawn/exit events")
	syncCkpt := flag.Bool("sync", false, "blocking checkpoint writes (the Figure 8 baseline) instead of the async pipeline")
	incremental := flag.Bool("incremental", true, "dirty-region freeze (the default): copy only regions the app touched since the last checkpoint; -incremental=false re-copies the whole state every checkpoint and waives the Touch contract")
	crossCheck := flag.Bool("crosscheck", false, "freeze verifier debug mode: fail the run, naming the variable, if a mutation escaped Touch/TouchRange (costs a full state encode per checkpoint)")
	flushBW := flag.Float64("flushbw", 0, "cap checkpoint flush bandwidth at this many bytes/sec (0: no cap, the write stream is not paced)")
	var kills apps.KillFlag
	flag.Var(&kills, "kill", "rank@op real-SIGKILL failure (repeatable; i-th flag = i-th incarnation)")
	flag.Parse()

	prog, stateBytes, err := apps.Build(*app, *ranks, *size, *iters)
	if err != nil {
		apps.Fail("c3launch", fmt.Errorf("%w: %w", ccift.ErrSpec, err))
	}

	everyN, intv, err := apps.ResolveTrigger(*every, *interval)
	if err != nil {
		apps.Fail("c3launch", fmt.Errorf("%w: %w", ccift.ErrSpec, err))
	}
	opts := []ccift.Option{
		ccift.WithRanks(*ranks),
		ccift.WithMode(ccift.Full),
		ccift.WithFailures(kills...),
		ccift.WithSeed(*seed),
		ccift.WithMaxRestarts(*maxRestarts),
		ccift.WithAsyncCheckpoint(!*syncCkpt),
		ccift.WithIncrementalFreeze(*incremental),
		ccift.WithDistributed(ccift.Distributed{
			StoreDir:        *storeDir,
			DetectorTimeout: *detector,
			Verbose:         *verbose,
		}),
	}
	if *crossCheck {
		opts = append(opts, ccift.WithFreezeCrossCheck())
	}
	if *flushBW > 0 {
		opts = append(opts, ccift.WithFlushBandwidth(*flushBW))
	}
	if *metricsAddr != "" {
		opts = append(opts, ccift.WithMetricsAddr(*metricsAddr))
	}
	if intv > 0 {
		opts = append(opts, ccift.WithInterval(intv))
	} else {
		opts = append(opts, ccift.WithEveryN(everyN))
	}
	spec := ccift.NewSpec(opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if !ccift.IsWorker() {
		fmt.Printf("c3launch: %s on %d rank processes, ~%s application state per rank, %d scheduled SIGKILL(s)\n",
			*app, *ranks, apps.HumanBytes(stateBytes), len(kills))
	}
	start := time.Now()
	res, err := ccift.Launch(ctx, spec, prog) // in a worker process this call never returns
	if err != nil {
		apps.Fail("c3launch", err)
	}
	fmt.Print(apps.Summary(res.Values, res.Restarts, res.RecoveredEpochs, time.Since(start)))

	// The workers' protocol counters stream back to this launcher, so the
	// distributed substrate reports the same stats line as c3run.
	if len(res.PerRank) > 0 {
		var total ccift.Stats
		for _, pr := range res.PerRank {
			total.Add(pr.Stats)
		}
		fmt.Printf("stats: %d msgs (%s), %d local checkpoints (%s), %d late logged (%s logs), %d replayed, %d sends suppressed\n",
			total.MessagesSent, apps.HumanBytes(total.BytesSent),
			total.CheckpointsTaken, apps.HumanBytes(total.CheckpointBytes),
			total.LateLogged, apps.HumanBytes(total.LogBytes),
			total.ReplayedLate, total.SuppressedSends)
	}
}
