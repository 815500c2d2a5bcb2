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
// Every cell is one ccift.Launch, made by internal/harness; the substrate
// option is the only thing the flags change about it.
//
// With -distributed every cell spawns one worker process per rank over a
// full TCP mesh, so the paper's overhead curves exist for real processes,
// not just goroutines. The launcher re-execs this binary with the sweep's
// own flags plus -cell, which names the cell; the worker rebuilds the same
// sweep and re-enters it at that cell, whose Launch takes the worker role.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"time"

	"ccift"
	"ccift/internal/harness"
)

func main() { os.Exit(run(os.Args[1:])) }

// sweep is what one fig8 command line asks for.
type sweep struct {
	exps     []harness.Experiment
	verdicts bool
	// notes tell the reader how the sweep runs, before its tables.
	notes []string
	// cell is set on a -distributed worker: the one cell it runs.
	cell string
}

// parse turns a command line into the sweep it asks for.
func parse(args []string) (sweep, error) {
	fs := flag.NewFlagSet("fig8", flag.ExitOnError)
	app := fs.String("app", "all", "benchmark: cg, laplace, neurosys, or all")
	ranks := fs.Int("ranks", 8, "number of ranks (the paper used 16)")
	repeats := fs.Int("repeats", 3, "repetitions per cell; the best run is reported")
	scaleName := fs.String("scale", "quick", "problem scale: quick or paper")
	verdicts := fs.Bool("verdicts", true, "print Section 6.2 shape verdicts")
	async := fs.Bool("async", false, "measure the asynchronous flush pipeline instead of the paper's blocking checkpoints (see README: the default figure stays sync)")
	distributed := fs.Bool("distributed", false, "run each cell as one OS process per rank over TCP (the paper's curves on the real-process substrate)")
	simulated := fs.Bool("sim", false, "run each cell over the deterministic simulated substrate (virtual time, seeded network)")
	simSeed := fs.Int64("simseed", 1, "scenario seed for -sim; the same seed replays the same sweep")
	simLat := fs.Duration("simlat", 200*time.Microsecond, "simulated per-hop network latency for -sim")
	short := fs.Bool("short", false, "one tiny size per chart, single repeat, no verdicts: the CI smoke path")
	cell := fs.String("cell", "", "internal: the one cell a -distributed worker runs, set by the launcher when it re-execs this binary")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with 2 here

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
		return sweep{}, fmt.Errorf("unknown scale %q", *scaleName)
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
		return sweep{}, fmt.Errorf("unknown app %q", *app)
	}

	if *distributed && *simulated {
		return sweep{}, errors.New("-distributed and -sim are mutually exclusive: a sweep uses one substrate")
	}
	s := sweep{exps: exps, verdicts: *verdicts, cell: *cell}
	var substrate func(string) ccift.Option
	switch {
	case *simulated:
		s.notes = append(s.notes, fmt.Sprintf("simulated substrate — seed %d, %v per-hop latency, virtual time", *simSeed, *simLat))
		// Under virtual time the wall clock measures the simulator's event
		// loop, not the paper's runtime overheads; only checksum agreement
		// across the four versions is meaningful.
		s.skipVerdicts("-sim timings measure the simulator")
		sc := ccift.Scenario{Seed: *simSeed, Latency: *simLat}
		substrate = func(string) ccift.Option { return ccift.WithSimulated(sc) }
	case *distributed:
		s.notes = append(s.notes, fmt.Sprintf("distributed substrate — %d worker processes per cell over TCP", *ranks))
		// Cell timings include a near-constant launcher cost (process
		// spawn, mesh formation, store setup) that deflates the overhead
		// ratios the Section 6.2 thresholds were written for; the
		// distributed sweep is for checksum agreement and absolute curves,
		// not shape verdicts.
		s.skipVerdicts("-distributed timings include per-cell launch cost")
		substrate = func(cell string) ccift.Option {
			return ccift.WithDistributed(ccift.Distributed{
				Args: append(slices.Clip(args), "-cell", cell),
				// Worker stderr is noise in a sweep (hundreds of clean
				// ranks); hard failures still surface through Launch's
				// error.
				Stderr: io.Discard,
			})
		}
	}
	if *async {
		s.notes = append(s.notes, "async pipeline — ranks overlap checkpoint flushes with compute (not the paper's figure; see README)")
	}
	for i := range s.exps {
		s.exps[i].Repeats = *repeats
		s.exps[i].Async = *async
		s.exps[i].Substrate = substrate
	}
	return s, nil
}

// skipVerdicts turns the shape verdicts off, saying why, if they were on.
func (s *sweep) skipVerdicts(why string) {
	if s.verdicts {
		s.notes = append(s.notes, why+"; skipping shape verdicts")
		s.verdicts = false
	}
}

// run executes the command line and returns the exit code.
func run(args []string) int {
	s, err := parse(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fig8: %v\n", err)
		return 2
	}
	if ccift.IsWorker() {
		// The cell's Launch runs this worker's rank and exits the process.
		_, err := harness.RunCell(context.Background(), s.exps, s.cell)
		fmt.Fprintf(os.Stderr, "fig8 worker: %v\n", err)
		return 1
	}
	// A sweep at -scale paper runs for minutes; ^C cancels the in-flight
	// run cleanly instead of leaving goroutines mid-incarnation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	for _, note := range s.notes {
		fmt.Println("fig8: " + note)
	}
	failed := false
	for _, e := range s.exps {
		table, err := e.RunContext(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig8: %s: %v\n", e.App, err)
			return 1
		}
		fmt.Println(table.Render())
		if err := table.ChecksumsAgree(); err != nil {
			fmt.Fprintf(os.Stderr, "fig8: CHECKSUM MISMATCH: %v\n", err)
			failed = true
		}
		if s.verdicts {
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
		return 1
	}
	return 0
}
