package main

import (
	"context"
	"fmt"
	"os"
	"testing"

	"ccift"
	"ccift/internal/harness"
	"ccift/internal/protocol"
)

// probeEnv, when set, makes both the launcher and a re-exec'd worker run
// probe's programs instead of the cells' own.
const probeEnv = "FIG8_TEST_PROBE"

// TestMain lets the test binary serve as its own -distributed worker: the
// launcher re-execs it with the sweep's flags plus -cell, and the worker
// role runs exactly what the fig8 binary runs, the same run.
func TestMain(m *testing.M) {
	if ccift.IsWorker() {
		if os.Getenv(probeEnv) != "" {
			// A bad command line falls through to run, which reports it.
			s, _ := parse(os.Args[1:])
			harness.RunCell(context.Background(), probe(s).exps, s.cell) // never returns
		}
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// probe makes every program of the sweep report its rank's checkpoint
// policy as its result, after the real computation ran.
func probe(s sweep) sweep {
	for _, e := range s.exps {
		for i, size := range e.Sizes {
			e.Sizes[i].Program = func(r *ccift.Rank) (any, error) {
				if _, err := size.Program(r); err != nil {
					return nil, err
				}
				return fmt.Sprintf("async=%v", r.Layer().Config().AsyncFlush), nil
			}
		}
	}
	return s
}

// laplaceCell runs the smoke Laplace experiment's one size in mode, on the
// substrate the extra fig8 flags select, through the one cell function.
func laplaceCell(t *testing.T, mode protocol.Mode, extra ...string) harness.Cell {
	t.Helper()
	s, err := parse(append([]string{"-app", "laplace", "-short", "-ranks", "2"}, extra...))
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv(probeEnv) != "" {
		s = probe(s)
	}
	cell, err := harness.RunCell(context.Background(), s.exps, "laplace/"+s.exps[0].Sizes[0].Label+"/"+mode.String())
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// TestDistributedCellStats pins the fig8 -distributed stats regression:
// the per-version tables used to render with empty checkpoint-volume
// columns because worker counters never crossed the process boundary.
// A smoke-scale Full-mode cell must now report positive protocol stats
// through the very cell function the sweep uses.
func TestDistributedCellStats(t *testing.T) {
	cell := laplaceCell(t, protocol.Full, "-distributed")
	if cell.Checksum == "" {
		t.Error("cell has no checksum")
	}
	if cell.Checkpoints == 0 {
		t.Error("cell.Checkpoints = 0: worker stats did not cross the process boundary")
	}
	if cell.CheckpointMB == 0 {
		t.Error("cell.CheckpointMB = 0: checkpoint-volume column would render empty")
	}
}

// TestCellKeepsThePolicy: a cell runs the checkpoint the sweep asked for
// on every substrate — the paper's blocking checkpoint without -async, the
// pipeline with it. (The simulated runner, when each substrate had its
// own, once passed no policy, so every cell of the default -sim sweep ran
// the async pipeline while the in-process one ran blocking.) Each rank's
// program reports its layer's policy as its result, which crosses the
// process boundary on the distributed substrate too.
func TestCellKeepsThePolicy(t *testing.T) {
	t.Setenv(probeEnv, "1")
	for _, substrate := range [][]string{nil, {"-sim"}, {"-distributed"}} {
		for _, async := range []bool{false, true} {
			flags := append(substrate, fmt.Sprintf("-async=%v", async))
			t.Run(fmt.Sprint(flags), func(t *testing.T) {
				cell := laplaceCell(t, protocol.Full, flags...)
				if want := fmt.Sprintf("async=%v", async); cell.Checkpoints == 0 || cell.Checksum != want {
					t.Fatalf("%d checkpoints, rank 0 reported %v, want %s", cell.Checkpoints, cell.Checksum, want)
				}
			})
		}
	}
}

// TestDistributedSweepPerRankMessages asserts the satellite contract
// directly: every rank of a distributed sweep cell reports
// MessagesSent > 0.
func TestDistributedSweepPerRankMessages(t *testing.T) {
	const ranks = 2
	cell := laplaceCell(t, protocol.Full, "-distributed")
	if len(cell.PerRank) != ranks {
		t.Fatalf("PerRank has %d entries, want %d", len(cell.PerRank), ranks)
	}
	for _, pr := range cell.PerRank {
		if pr.Stats.MessagesSent == 0 {
			t.Errorf("rank %d: MessagesSent = 0", pr.Rank)
		}
	}
}
