package main

import (
	"context"
	"flag"
	"os"
	"sync"
	"testing"
	"time"

	"ccift/internal/engine"
	"ccift/internal/harness"
	"ccift/internal/launch"
	"ccift/internal/protocol"
)

// TestMain lets the test binary serve as its own -distributed worker: the
// launcher re-execs it with the -w* cell flags, which the real binary
// parses in main(). main() does not run under `go test`, so the worker
// role is dispatched here, before any test machinery touches os.Args.
func TestMain(m *testing.M) {
	if launch.IsWorker() {
		fs := flag.NewFlagSet("fig8-worker", flag.ExitOnError)
		wapp := fs.String("wapp", "", "")
		wranks := fs.Int("wranks", 1, "")
		wsize := fs.Int("wsize", 0, "")
		witers := fs.Int("witers", 0, "")
		wevery := fs.Int("wevery", 0, "")
		wmode := fs.String("wmode", "", "")
		wasync := fs.Bool("wasync", false, "")
		if err := fs.Parse(os.Args[1:]); err != nil {
			os.Exit(2)
		}
		workerMain(*wapp, *wranks, *wsize, *witers, *wevery, *wmode, *wasync) // never returns
	}
	os.Exit(m.Run())
}

// TestDistributedCellStats pins the fig8 -distributed stats regression:
// the per-version tables used to render with empty checkpoint-volume
// columns because worker counters never crossed the process boundary.
// A smoke-scale Full-mode cell must now report positive protocol stats,
// per rank, through the very CellRunner the sweep uses.
func TestDistributedCellStats(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 2
	e := harness.LaplaceExperiment(ranks, harness.Smoke)
	size := e.Sizes[0]

	cell, err := distributedRunner(exe, "laplace", ranks, false)(context.Background(), size, protocol.Full)
	if err != nil {
		t.Fatal(err)
	}
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

// TestSimulatedCellKeepsThePolicy: a -sim cell runs the checkpoint the
// sweep asked for, like the in-process and distributed runners — the
// paper's blocking checkpoint without -async, the pipeline with it. (The
// simulated runner once passed no policy, so every cell of the default
// sweep ran the async pipeline while the in-process one ran blocking.)
func TestSimulatedCellKeepsThePolicy(t *testing.T) {
	size := harness.LaplaceExperiment(2, harness.Smoke).Sizes[0]
	for _, async := range []bool{false, true} {
		var flushes []bool
		var mu sync.Mutex
		probe := size
		probe.Program = func(r *engine.Rank) (any, error) {
			mu.Lock()
			flushes = append(flushes, r.Layer().Config().AsyncFlush)
			mu.Unlock()
			return size.Program(r)
		}
		cell, err := simRunner(2, 1, 200*time.Microsecond, async)(context.Background(), probe, protocol.Full)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Checkpoints == 0 || len(flushes) != 2 || flushes[0] != async || flushes[1] != async {
			t.Fatalf("-async=%v: %d checkpoints, ranks ran with AsyncFlush %v", async, cell.Checkpoints, flushes)
		}
	}
}

// TestDistributedSweepPerRankMessages asserts the satellite contract
// directly: every rank of a distributed sweep cell reports
// MessagesSent > 0.
func TestDistributedSweepPerRankMessages(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 2
	size := harness.LaplaceExperiment(ranks, harness.Smoke).Sizes[0]
	res, err := launch.RunContext(context.Background(), launch.Config{
		Exe:   exe,
		Ranks: ranks,
		Args:  cellArgs("laplace", ranks, size, protocol.Full, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerRank) != ranks {
		t.Fatalf("PerRank has %d entries, want %d", len(res.PerRank), ranks)
	}
	for _, pr := range res.PerRank {
		if pr.Stats.MessagesSent == 0 {
			t.Errorf("rank %d: MessagesSent = 0", pr.Rank)
		}
	}
}
