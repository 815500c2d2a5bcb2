package ccift_test

// Context-cancellation coverage on the in-process substrate: cancel while
// ranks are blocked mid-incarnation, cancel while the run is rolling back
// through failure after failure, and deadline expiry. Every outcome must
// be a *RunError wrapping the context's error, returned promptly. (The
// TCP/process substrate's cancellation is pinned in launch_v1_test.go.)

import (
	"context"
	"errors"
	"testing"
	"time"

	"ccift"
)

func assertCanceled(t *testing.T, err error, want error) {
	t.Helper()
	if err == nil {
		t.Fatal("run completed despite cancellation")
	}
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want a wrap of %v", err, want)
	}
	var re *ccift.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T (%v), want *ccift.RunError", err, err)
	}
	if re.Incarnation < 0 {
		t.Fatalf("RunError.Incarnation = %d: every substrate names the incarnation the run ended in", re.Incarnation)
	}
}

// launchHang starts hangProg under ctx and returns Launch's error, failing
// the test if Launch does not return within the guard window.
func launchHang(t *testing.T, ctx context.Context) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := ccift.Launch(ctx, ccift.NewSpec(
			ccift.WithRanks(3),
			ccift.WithMode(ccift.Full),
			ccift.WithEveryN(4),
		), hangProg())
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not unblock the run")
		return nil
	}
}

func TestCancelMidIncarnation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond) // let the ranks park in Recv/Barrier
		cancel()
	}()
	assertCanceled(t, launchHang(t, ctx), context.Canceled)
}

func TestDeadlineExpiry(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	assertCanceled(t, launchHang(t, ctx), context.DeadlineExceeded)
}

// TestCancelDuringRollback cancels a run that is caught in a rollback
// storm: a failure is scheduled in every incarnation, so the engine is
// either mid-incarnation or between incarnations (restoring) when the
// cancellation lands — both paths must surface ctx.Err().
func TestCancelDuringRollback(t *testing.T) {
	prog := func(r *ccift.Rank) (any, error) {
		it := ccift.Reg[int](r, "it")
		for {
			r.PotentialCheckpoint()
			r.Barrier()
			*it++
		}
	}
	var kills []ccift.Failure
	for i := 0; i < 1000; i++ {
		kills = append(kills, ccift.Failure{Rank: 1, AtOp: 30, Incarnation: i})
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := ccift.Launch(ctx, ccift.NewSpec(
			ccift.WithRanks(3),
			ccift.WithMode(ccift.Full),
			ccift.WithEveryN(3),
			ccift.WithMaxRestarts(2000),
			ccift.WithFailures(kills...),
		), prog)
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond) // dozens of incarnations deep by now
	cancel()
	select {
	case err := <-errc:
		assertCanceled(t, err, context.Canceled)
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the rollback loop")
	}
}

// TestCancelBeforeLaunch pins the degenerate case: an already-cancelled
// context never starts an incarnation.
func TestCancelBeforeLaunch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := ccift.Launch(ctx, ccift.NewSpec(ccift.WithRanks(2)), func(r *ccift.Rank) (any, error) {
		ran = true
		return nil, nil
	})
	assertCanceled(t, err, context.Canceled)
	if ran {
		t.Fatal("program ran under a pre-cancelled context")
	}
}

// TestRunErrorFields pins the structured report: a program error names the
// failing rank and the incarnation it failed in.
func TestRunErrorFields(t *testing.T) {
	boom := errors.New("boom")
	_, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(3), ccift.WithMode(ccift.Full), ccift.WithEveryN(4),
	), func(r *ccift.Rank) (any, error) {
		if r.Rank() == 2 {
			return nil, boom
		}
		return nil, nil
	})
	var re *ccift.RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T (%v), want *ccift.RunError", err, err)
	}
	if re.Rank != 2 || re.Incarnation != 0 || re.Restarts != 0 {
		t.Fatalf("RunError = {Rank:%d Incarnation:%d Restarts:%d}, want {2 0 0}", re.Rank, re.Incarnation, re.Restarts)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost: %v", err)
	}
}
