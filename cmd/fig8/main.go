// Command fig8 regenerates the paper's evaluation (Section 6, Figure 8):
// for each benchmark — dense Conjugate Gradient, the Laplace solver, and
// Neurosys — it runs all four program versions (unmodified, piggybacking
// only, protocol without application state, full checkpoints) at several
// problem sizes and prints the runtime comparison the paper charts,
// followed by the qualitative "shape" verdicts from the Section 6.2
// discussion.
//
// Usage:
//
//	fig8                    # all three charts at quick scale
//	fig8 -app cg            # one chart
//	fig8 -scale paper       # the paper's problem-size regime (slow)
//	fig8 -ranks 16 -repeats 3
//	fig8 -async             # async flush pipeline instead of blocking ckpts
//	fig8 -distributed       # each cell as real OS processes over TCP
//	fig8 -distributed -short -app laplace   # the CI smoke path
//	fig8 -sim -simseed 42   # each cell over the simulated substrate
//
// With -distributed every cell spawns one worker process per rank over a
// full TCP mesh (the launcher re-execs this binary; the -w* flags are the
// worker-side cell parameters and not meant for direct use), so the
// paper's overhead curves exist for real processes, not just goroutines.
//
// With -sim every cell runs over the deterministic simulated network
// (virtual time, seeded schedules): the sweep proves all four program
// versions compute identical checksums under simulated latency, and the
// same -simseed replays the same run bit-for-bit. Wall timings then
// measure the simulator, not the paper's overheads, so shape verdicts are
// skipped like -distributed's.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"ccift"
	"ccift/internal/apps"
	"ccift/internal/harness"
	"ccift/internal/launch"
	"ccift/internal/protocol"
)

func main() {
	app := flag.String("app", "all", "benchmark: cg, laplace, neurosys, or all")
	ranks := flag.Int("ranks", 8, "number of ranks (the paper used 16)")
	repeats := flag.Int("repeats", 3, "repetitions per cell; the best run is reported")
	scaleName := flag.String("scale", "quick", "problem scale: quick or paper")
	verdicts := flag.Bool("verdicts", true, "print Section 6.2 shape verdicts")
	async := flag.Bool("async", false, "measure the asynchronous flush pipeline instead of the paper's blocking checkpoints (see README: the default figure stays sync)")
	distributed := flag.Bool("distributed", false, "run each cell as one OS process per rank over TCP (the paper's curves on the real-process substrate)")
	simulated := flag.Bool("sim", false, "run each cell over the deterministic simulated substrate (virtual time, seeded network)")
	simSeed := flag.Int64("simseed", 1, "scenario seed for -sim; the same seed replays the same sweep")
	simLat := flag.Duration("simlat", 200*time.Microsecond, "simulated per-hop network latency for -sim")
	short := flag.Bool("short", false, "one tiny size per chart, single repeat, no verdicts: the CI smoke path")
	// Worker-side cell parameters: set by the -distributed launcher when it
	// re-execs this binary, never by hand.
	wapp := flag.String("wapp", "", "internal: worker cell application")
	wranks := flag.Int("wranks", 1, "internal: worker cell world size")
	wsize := flag.Int("wsize", 0, "internal: worker cell problem size")
	witers := flag.Int("witers", 0, "internal: worker cell iterations")
	wevery := flag.Int("wevery", 0, "internal: worker cell checkpoint trigger")
	wmode := flag.String("wmode", "", "internal: worker cell protocol mode")
	wasync := flag.Bool("wasync", false, "internal: worker cell async pipeline")
	flag.Parse()

	if launch.IsWorker() {
		workerMain(*wapp, *wranks, *wsize, *witers, *wevery, *wmode, *wasync)
	}

	var scale harness.Scale
	switch {
	case *short:
		scale = harness.Smoke
		*repeats = 1
		// Shape verdicts compare sizes; a single smoke size has none.
		*verdicts = false
	case *scaleName == "quick":
		scale = harness.Quick
	case *scaleName == "paper":
		scale = harness.Paper
	default:
		fmt.Fprintf(os.Stderr, "fig8: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	var exps []harness.Experiment
	switch *app {
	case "all":
		exps = harness.Experiments(*ranks, scale)
	case "cg":
		exps = []harness.Experiment{harness.CGExperiment(*ranks, scale)}
	case "laplace":
		exps = []harness.Experiment{harness.LaplaceExperiment(*ranks, scale)}
	case "neurosys":
		exps = []harness.Experiment{harness.NeurosysExperiment(*ranks, scale)}
	default:
		fmt.Fprintf(os.Stderr, "fig8: unknown app %q\n", *app)
		os.Exit(2)
	}

	// A sweep at -scale paper runs for minutes; ^C cancels the in-flight
	// engine run cleanly instead of leaving goroutines mid-incarnation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *distributed && *simulated {
		fmt.Fprintln(os.Stderr, "fig8: -distributed and -sim are mutually exclusive: a sweep uses one substrate")
		os.Exit(2)
	}
	if *simulated {
		fmt.Printf("fig8: simulated substrate — seed %d, %v per-hop latency, virtual time\n", *simSeed, *simLat)
		if *verdicts {
			// Under virtual time the wall clock measures the simulator's
			// event loop, not the paper's runtime overheads; only checksum
			// agreement across the four versions is meaningful.
			fmt.Println("fig8: -sim timings measure the simulator; skipping shape verdicts")
			*verdicts = false
		}
	}

	exe := ""
	if *distributed {
		var err error
		exe, err = os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig8: resolve worker binary: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("fig8: distributed substrate — %d worker processes per cell over TCP\n", *ranks)
		if *verdicts {
			// Cell timings include a near-constant launcher cost (process
			// spawn, mesh formation, store setup) that deflates the
			// overhead ratios the Section 6.2 thresholds were written
			// for; the distributed sweep is for checksum agreement and
			// absolute curves, not shape verdicts.
			fmt.Println("fig8: -distributed timings include per-cell launch cost; skipping shape verdicts")
			*verdicts = false
		}
	}

	if *async {
		fmt.Println("fig8: async pipeline — ranks overlap checkpoint flushes with compute (not the paper's figure; see README)")
	}

	failed := false
	for _, e := range exps {
		e.Repeats = *repeats
		e.Async = *async
		var table *harness.Table
		var err error
		switch {
		case *distributed:
			table, err = e.RunContextWith(ctx, distributedRunner(exe, e.App, *ranks, *async))
		case *simulated:
			table, err = e.RunContextWith(ctx, simRunner(*ranks, *simSeed, *simLat, *async))
		default:
			table, err = e.RunContext(ctx)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig8: %s: %v\n", e.App, err)
			os.Exit(1)
		}
		fmt.Println(table.Render())
		if err := table.ChecksumsAgree(); err != nil {
			fmt.Fprintf(os.Stderr, "fig8: CHECKSUM MISMATCH: %v\n", err)
			failed = true
		}
		if *verdicts {
			vs := table.Verdicts()
			fmt.Print(harness.RenderVerdicts(vs))
			for _, v := range vs {
				if !v.Pass {
					failed = true
				}
			}
			fmt.Println()
		}
	}
	if failed {
		os.Exit(1)
	}
}

// distributedRunner runs one cell as a real distributed job: this binary
// re-exec'd as one worker process per rank, full TCP mesh, shared on-disk
// store under a scratch directory the launcher cleans up. The checksum is
// rank 0's result line, so ChecksumsAgree still proves the four versions
// chart the same computation.
func distributedRunner(exe, app string, ranks int, async bool) harness.CellRunner {
	return func(ctx context.Context, size harness.Size, mode protocol.Mode) (harness.Cell, error) {
		args := cellArgs(app, ranks, size, mode, async)
		start := time.Now()
		res, err := launch.RunContext(ctx, launch.Config{
			Exe:   exe,
			Args:  args,
			Ranks: ranks,
			// Worker stderr is noise in a sweep (hundreds of clean ranks);
			// hard failures still surface through the launcher's error.
			Stderr: io.Discard,
		})
		if err != nil {
			return harness.Cell{}, fmt.Errorf("distributed cell: %w", err)
		}
		elapsed := time.Since(start).Seconds()
		checksum := ""
		for _, line := range strings.Split(res.Output, "\n") {
			if v, ok := strings.CutPrefix(line, "result: "); ok {
				checksum = v
				break
			}
		}
		if checksum == "" {
			return harness.Cell{}, fmt.Errorf("distributed cell: no result line in rank 0 output %q", res.Output)
		}
		// Workers stream their protocol counters back over the stats pipe,
		// so the checkpoint-volume columns populate exactly as in-process.
		cell := harness.Cell{Mode: mode, Seconds: elapsed, Checksum: checksum}
		for _, s := range res.Stats {
			cell.Checkpoints += s.CheckpointsTaken
			cell.CheckpointMB += float64(s.CheckpointBytes) / 1e6
			cell.LogMB += float64(s.LogBytes) / 1e6
		}
		return cell, nil
	}
}

// simRunner runs one cell through the identical public Launch call over the
// simulated substrate: same program, same checkpoint trigger, same
// checkpoint policy as the other runners (blocking unless async), but every
// message crosses the seeded discrete-event network in virtual time. The
// checksum column then proves the four versions agree under simulated
// latency too, and a repeated sweep with the same -simseed is replayable.
func simRunner(ranks int, seed int64, latency time.Duration, async bool) harness.CellRunner {
	return func(ctx context.Context, size harness.Size, mode protocol.Mode) (harness.Cell, error) {
		start := time.Now()
		res, err := ccift.Launch(ctx, ccift.NewSpec(
			ccift.WithRanks(ranks),
			ccift.WithMode(mode),
			ccift.WithEveryN(size.EveryN),
			ccift.WithInterval(size.Interval),
			ccift.WithAsyncCheckpoint(async),
			ccift.WithSimulated(ccift.Scenario{Seed: seed, Latency: latency}),
		), size.Program)
		if err != nil {
			return harness.Cell{}, fmt.Errorf("simulated cell: %w", err)
		}
		cell := harness.Cell{Mode: mode, Seconds: time.Since(start).Seconds(), Checksum: res.Values[0]}
		for _, s := range res.Stats {
			cell.Checkpoints += s.CheckpointsTaken
			cell.CheckpointMB += float64(s.CheckpointBytes) / 1e6
			cell.LogMB += float64(s.LogBytes) / 1e6
		}
		return cell, nil
	}
}

// cellArgs renders one cell's parameters as the -w* worker flags.
func cellArgs(app string, ranks int, size harness.Size, mode protocol.Mode, async bool) []string {
	args := []string{
		"-wapp", app,
		"-wranks", strconv.Itoa(ranks),
		"-wsize", strconv.Itoa(size.Arg),
		"-witers", strconv.Itoa(size.Iters),
		"-wevery", strconv.Itoa(size.EveryN),
		"-wmode", mode.String(),
	}
	if async {
		args = append(args, "-wasync")
	}
	return args
}

// workerMain is the re-exec'd worker role of a -distributed sweep: rebuild
// the cell's program from the -w* flags and hand it to the launch worker
// protocol. Never returns.
func workerMain(app string, ranks, size, iters, every int, modeName string, async bool) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "fig8 worker: %v\n", err)
		os.Exit(1)
	}
	mode, err := harness.ParseMode(modeName)
	if err != nil {
		fail(err)
	}
	prog, _, err := apps.Build(app, ranks, size, iters)
	if err != nil {
		fail(err)
	}
	launch.WorkerMain(launch.WorkerApp{
		Prog:   prog,
		EveryN: every,
		Mode:   mode,
		// The sweep measures the paper's blocking checkpoint semantics
		// unless -async flips the cell onto the async pipeline,
		// exactly like the in-process harness (see Experiment.runOnce).
		Policy: protocol.Policy{Sync: !async},
	})
}
