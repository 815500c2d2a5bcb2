package ccift_test

// ccift v1 conformance: the same program, from the same Launch call site,
// must run on both substrates — in-process goroutines and one OS process
// per rank over TCP — and produce identical results, with and without
// injected failures. The test binary re-execs itself as the distributed
// worker: TestMain detects the worker environment and re-enters the very
// same Launch path a library user's binary would.

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"ccift"
	"ccift/internal/launch"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Parameters shared by the launcher-side tests and the re-exec'd workers
// (the worker rebuilds the same spec and program from these).
const (
	confRanks  = 4
	confIters  = 25
	confWidth  = 16
	confEveryN = 5

	// progEnv selects which program a spawned worker runs; the launcher
	// sets it (and the workers inherit the environment).
	progEnv = "CCIFT_TEST_PROG"
	// workerModeEnv, when set, makes a spawned worker run the conformance
	// program in the named protocol mode on the blocking write path, below
	// the public Launch (which only distributes Full).
	workerModeEnv = "CCIFT_TEST_WORKER_MODE"
)

// conformanceProg is a halo-exchange stencil written against the typed v1
// API; it returns a deterministic string so the in-process value and the
// distributed rank-0 output are directly comparable.
func conformanceProg() ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		n := r.Size()
		me := r.Rank()
		next, prev := (me+1)%n, (me-1+n)%n

		it := ccift.Reg[int](r, "it")
		x := ccift.Reg[[]float64](r, "x")
		if !r.Restarting() {
			*x = make([]float64, confWidth)
			for i := range *x {
				(*x)[i] = float64(me*confWidth + i)
			}
		}
		for ; *it < confIters; *it++ {
			r.PotentialCheckpoint()
			ccift.Send(r, next, 1, *x)
			in := ccift.Recv[float64](r, prev, 1)
			for i := range *x {
				(*x)[i] = ((*x)[i] + in[i]) / 2
			}
			norm := ccift.Allreduce(r, []float64{(*x)[0]}, ccift.SumF64)
			(*x)[0] = norm[0] / float64(n)
			r.Touch("x")
		}
		total := ccift.Allreduce(r, []float64{(*x)[0] + (*x)[confWidth-1]}, ccift.SumF64)
		return fmt.Sprintf("%.9f", total[0]), nil
	}
}

// hangProg blocks forever on a receive that can never be matched — the
// cancellation tests' victim.
func hangProg() ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		it := ccift.Reg[int](r, "it")
		for {
			r.PotentialCheckpoint()
			if r.Rank() == 0 && *it == 0 {
				// Rank 0 parks in a receive nobody answers; the other ranks
				// park in the barrier below waiting for rank 0.
				ccift.Recv[float64](r, ccift.AnySource, 99)
			}
			r.Barrier()
			*it++
		}
	}
}

// failProg iterates a few times (so checkpoints and messages flow), then
// rank 2 returns an application error — the taxonomy tests' ErrProgram
// case on both substrates.
func failProg() ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		it := ccift.Reg[int](r, "it")
		for ; *it < 5; *it++ {
			r.PotentialCheckpoint()
			r.Barrier()
		}
		if r.Rank() == 2 {
			return nil, fmt.Errorf("deliberate application failure on rank 2")
		}
		return "ok", nil
	}
}

// staleProg keeps rewriting a registered slice without ever calling Touch
// — the write-intent bug Debug's freeze verifier exists to catch. It runs
// long enough for a second checkpoint to freeze the stale view on either
// substrate (the first freeze copies everything; an iteration is one
// barrier of a few microseconds in-process, and the second checkpoint waits
// for the first one's flush task to get a core), then ends on its own.
func staleProg() ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		it := ccift.Reg[int](r, "it")
		x := ccift.Reg[[]float64](r, "x")
		if !r.Restarting() {
			*x = make([]float64, confWidth)
		}
		for ; *it < 20000; *it++ {
			r.PotentialCheckpoint()
			(*x)[0]++ // no r.Touch("x")
			r.Barrier()
		}
		return "ok", nil
	}
}

func testProg() ccift.Program {
	switch os.Getenv(progEnv) {
	case "hang":
		return hangProg()
	case "fail":
		return failProg()
	case "stale":
		return staleProg()
	}
	return conformanceProg()
}

// workerSpec is the spec a re-exec'd worker re-enters Launch with: the
// application-level fields (mode, trigger, seed) must match the
// launcher-side spec, which is why both sides build from the same consts.
func workerSpec() *ccift.Spec {
	opts := []ccift.Option{
		ccift.WithRanks(confRanks),
		ccift.WithMode(ccift.Full),
		ccift.WithEveryN(confEveryN),
		ccift.WithDistributed(ccift.Distributed{}),
	}
	if os.Getenv(progEnv) == "stale" {
		// The stale program's launcher runs it under WithDebug.
		opts = append(opts, ccift.WithDebug())
	}
	return ccift.NewSpec(opts...)
}

func TestMain(m *testing.M) {
	// Launcher and worker processes alike poison the chunk buffers a
	// finished writer gives back, so a store that kept a view of one fails
	// the next verified read (internal/storage's seam).
	storage.PoisonReleasedChunks()
	if os.Getenv("CCIFT_FREEZE_CROSSCHECK") == "1" {
		// CI's soak: every incremental freeze of every program here is
		// verified against the live state, Debug or not, in the launcher
		// and in the worker processes that inherit the variable.
		protocol.VerifyEveryFreeze()
	}
	if ccift.IsWorker() {
		if field := os.Getenv(policyEnv); field != "" {
			policyWorker(field) // never returns
		}
		if name := os.Getenv(workerModeEnv); name != "" {
			mode := protocol.Full
			if name == protocol.NoAppState.String() {
				mode = protocol.NoAppState
			}
			launch.WorkerMain(launch.WorkerApp{Prog: conformanceProg(), EveryN: confEveryN,
				Mode: mode, Policy: protocol.Policy{Sync: true}})
		}
		// This process is one rank of a distributed test run: the Launch
		// call below detects the worker role, runs it, and exits.
		_, err := ccift.Launch(context.Background(), workerSpec(), testProg())
		fmt.Fprintf(os.Stderr, "worker: Launch returned unexpectedly: %v\n", err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// launchBoth runs prog from one call site on the selected substrate: the
// only difference between the two runs is the WithDistributed option.
func launchBoth(t *testing.T, distributed bool, kills ...ccift.Failure) *ccift.Result {
	t.Helper()
	opts := []ccift.Option{
		ccift.WithRanks(confRanks),
		ccift.WithMode(ccift.Full),
		ccift.WithEveryN(confEveryN),
		ccift.WithFailures(kills...),
	}
	if distributed {
		opts = append(opts, ccift.WithDistributed(ccift.Distributed{Stderr: io.Discard}))
	}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(opts...), conformanceProg())
	if err != nil {
		t.Fatalf("Launch(distributed=%v, kills=%v): %v", distributed, kills, err)
	}
	return res
}

func TestLaunchConformanceBothSubstrates(t *testing.T) {
	ref := launchBoth(t, false)
	want := fmt.Sprint(ref.Values[0])
	for r := 1; r < confRanks; r++ {
		if fmt.Sprint(ref.Values[r]) != want {
			t.Fatalf("in-process ranks disagree: %v", ref.Values)
		}
	}

	dist := launchBoth(t, true)
	if len(dist.Values) != 1 {
		t.Fatalf("distributed Values = %v, want rank 0's single rendered result", dist.Values)
	}
	if got := fmt.Sprint(dist.Values[0]); got != want {
		t.Fatalf("TCP substrate result %q != in-process result %q", got, want)
	}
	if dist.Restarts != 0 {
		t.Fatalf("fault-free distributed run restarted %d times", dist.Restarts)
	}
}

func TestLaunchConformanceWithFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two incarnations of real processes; the fault-free conformance test covers -short")
	}
	ref := launchBoth(t, false)
	want := fmt.Sprint(ref.Values[0])

	kill := ccift.Failure{Rank: 2, AtOp: 150, Incarnation: 0}
	inproc := launchBoth(t, false, kill)
	if inproc.Restarts != 1 {
		t.Fatalf("in-process kill: %d restarts, want 1", inproc.Restarts)
	}
	if got := fmt.Sprint(inproc.Values[0]); got != want {
		t.Fatalf("in-process recovered result %q != fault-free %q", got, want)
	}

	dist := launchBoth(t, true, kill)
	if dist.Restarts != 1 {
		t.Fatalf("distributed kill: %d restarts, want 1", dist.Restarts)
	}
	if got := fmt.Sprint(dist.Values[0]); got != want {
		t.Fatalf("SIGKILL-recovered result %q != fault-free %q", got, want)
	}
}

// TestLaunchDistributedCancel pins cancellation on the TCP/process
// substrate: cancelling the context SIGKILLs the workers and Launch
// returns a *RunError wrapping context.Canceled, promptly.
func TestLaunchDistributedCancel(t *testing.T) {
	t.Setenv(progEnv, "hang")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(500 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	spec := ccift.NewSpec(
		ccift.WithRanks(confRanks),
		ccift.WithMode(ccift.Full),
		ccift.WithEveryN(confEveryN),
		ccift.WithDistributed(ccift.Distributed{Stderr: io.Discard}),
	)
	_, err := ccift.Launch(ctx, spec, hangProg())
	assertCanceled(t, err, context.Canceled)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v, want well under the detector/heartbeat budget", elapsed)
	}
}
