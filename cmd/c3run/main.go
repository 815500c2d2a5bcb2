// Command c3run runs one of the benchmark applications under the
// checkpointing system, optionally killing ranks mid-flight to demonstrate
// rollback-recovery from the last committed global checkpoint.
//
// Usage:
//
//	c3run -app laplace -ranks 8 -size 512 -iters 200 -every 50
//	c3run -app cg -kill 2@400 -kill 1@900      # rank 2 dies at its op 400; after
//	                                           # recovery, rank 1 dies at op 900
//	c3run -app neurosys -store /tmp/ckpts      # checkpoints on disk
//	c3run -app laplace -distributed -ranks 4   # one OS process per rank over
//	                                           # TCP; -kill is a real SIGKILL
//	c3run -distributed -kill 2@100 -v          # ... and log every spawn/exit
//	c3run -app cg -timeout 30s                 # cancel the run after 30s
//
// The tool prints per-incarnation progress, the recovered epoch of each
// restart, and the final protocol statistics. It is a thin wrapper over
// ccift.Launch: one spec selects the substrate, and in a -distributed run
// the re-exec'd worker processes re-enter the very same Launch call, which
// detects the worker environment and runs the single-rank role. There the
// survivors of a kill detect the death (connection reset, then heartbeat
// timeout) and roll back in place while only the dead rank is re-spawned.
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
	"ccift/internal/trace"
)

func main() {
	app := flag.String("app", "laplace", "application: cg, laplace, neurosys")
	ranks := flag.Int("ranks", 8, "number of ranks")
	size := flag.Int("size", 0, "problem size (matrix/grid edge; neuron-grid edge for neurosys)")
	iters := flag.Int("iters", 0, "iterations")
	every := flag.Int("every", 0, "checkpoint every N PotentialCheckpoint calls on the initiator")
	interval := flag.Duration("interval", 0, "checkpoint on a wall-clock interval (the paper used 30s)")
	storeDir := flag.String("store", "", "checkpoint directory (default: in memory)")
	metricsAddr := flag.String("metrics", "", "serve live Prometheus metrics at this address (e.g. :9090) for the duration of the run")
	timeout := flag.Duration("timeout", 0, "cancel the run after this long (0: no deadline)")
	traceOut := flag.Bool("trace", false, "print a space-time diagram of protocol events")
	distributed := flag.Bool("distributed", false, "run each rank as its own OS process over TCP (kills become real SIGKILLs)")
	detector := flag.Duration("detector", 0, "-distributed: the workers' heartbeat suspicion timeout (0: the 2s default)")
	verbose := flag.Bool("v", false, "-distributed: log spawn/exit events")
	seed := flag.Int64("seed", 0, "base seed for application randomness")
	maxRestarts := flag.Int("max-restarts", 10, "bound on rollbacks")
	syncCkpt := flag.Bool("sync", false, "blocking checkpoint writes (the Figure 8 baseline) instead of the async pipeline")
	debug := flag.Bool("debug", false, "protocol assertions, among them the freeze verifier: fail the run, naming the variable, if a write escaped Touch/TouchRange (costs a full state encode per checkpoint)")
	var kills apps.KillFlag
	flag.Var(&kills, "kill", "rank@op stopping failure (repeatable; i-th flag = i-th incarnation)")
	flag.Parse()

	prog, stateBytes, err := apps.Build(*app, *ranks, *size, *iters)
	if err != nil {
		apps.Fail("c3run", err)
	}

	everyN, intv, err := apps.ResolveTrigger(*every, *interval)
	if err != nil {
		apps.Fail("c3run", err)
	}
	opts := []ccift.Option{
		ccift.WithRanks(*ranks),
		ccift.WithMode(ccift.Full),
		ccift.WithFailures(kills...),
		ccift.WithSeed(*seed),
		ccift.WithMaxRestarts(*maxRestarts),
		ccift.WithAsyncCheckpoint(!*syncCkpt),
	}
	if *debug {
		opts = append(opts, ccift.WithDebug())
	}
	if *metricsAddr != "" {
		opts = append(opts, ccift.WithMetricsAddr(*metricsAddr))
	}
	if intv > 0 {
		opts = append(opts, ccift.WithInterval(intv))
	} else {
		opts = append(opts, ccift.WithEveryN(everyN))
	}

	var rec *trace.Recorder
	if *distributed {
		if *traceOut {
			fmt.Fprintln(os.Stderr, "c3run: -trace is not supported with -distributed (the recorder is in-process); ignoring")
		}
		opts = append(opts, ccift.WithDistributed(ccift.Distributed{StoreDir: *storeDir, DetectorTimeout: *detector, Verbose: *verbose}))
	} else {
		if *traceOut {
			rec = trace.New()
			opts = append(opts, ccift.WithTracer(rec))
		}
		if *storeDir != "" {
			store, err := ccift.NewDiskStore(*storeDir)
			if err != nil {
				apps.Fail("c3run", fmt.Errorf("%w: %w", ccift.ErrStore, err))
			}
			opts = append(opts, ccift.WithStore(store))
		}
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
		// Launcher side only: a -distributed worker re-executes this binary
		// and must not echo the header into the captured rank output.
		what := "ranks"
		if *distributed {
			what = "rank processes (distributed)"
		}
		fmt.Printf("c3run: %s on %d %s, ~%s application state per rank, %d injected failure(s)\n",
			*app, *ranks, what, apps.HumanBytes(stateBytes), len(kills))
	}
	start := time.Now()
	res, err := ccift.Launch(ctx, spec, prog) // in a worker process this call never returns
	if err != nil {
		apps.Fail("c3run", err)
	}
	fmt.Print(apps.Summary(res.Values, res.Restarts, res.RecoveredEpochs, time.Since(start)))

	// PerRank is populated on both substrates (distributed workers stream
	// their counters back to the launcher), so one stats path serves both.
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
		if total.CheckpointRegions > 0 {
			fmt.Printf("incremental: %s copied into frozen views (%s logical), %d/%d regions dirty across checkpoints\n",
				apps.HumanBytes(total.CheckpointBytesCopied), apps.HumanBytes(total.CheckpointBytes),
				total.CheckpointRegionsDirty, total.CheckpointRegions)
		}
	}
	if rec != nil {
		fmt.Printf("\nprotocol event summary:\n%s", rec.Summary())
		fmt.Printf("\ntimeline (last %d events):\n%s", rec.Len(), rec.Timeline(*ranks))
	}
}
