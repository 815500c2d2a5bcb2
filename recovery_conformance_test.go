package ccift_test

// Cross-substrate recovery conformance: the same program with the same
// single-death failure schedule, launched through the identical public
// Launch call, must recover to the same output on all three substrates —
// in-process goroutines, the deterministic simulation, and one OS process
// per rank over TCP. On the distributed substrate the test additionally
// pins the recovery process contract: a single death respawns only the
// dead rank (survivor PIDs are stable across incarnations).

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"ccift"
)

// launchRecovery runs conformanceProg with rank 2 killed at its op 150 on
// the named substrate. The kill schedule, trigger, and world shape are
// identical everywhere; the substrate option is the only difference.
func launchRecovery(t *testing.T, substrate string) *ccift.Result {
	t.Helper()
	opts := []ccift.Option{
		ccift.WithRanks(confRanks),
		ccift.WithMode(ccift.Full),
		ccift.WithEveryN(confEveryN),
		ccift.WithFailures(ccift.Failure{Rank: 2, AtOp: 150, Incarnation: 0}),
	}
	switch substrate {
	case "inprocess":
	case "simulated":
		opts = append(opts, ccift.WithSimulated(ccift.Scenario{
			Seed:            7,
			Latency:         time.Millisecond,
			DetectorTimeout: 25 * time.Millisecond,
		}))
	case "distributed":
		opts = append(opts, ccift.WithDistributed(ccift.Distributed{Stderr: io.Discard}))
	default:
		t.Fatalf("unknown substrate %q", substrate)
	}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(opts...), conformanceProg())
	if err != nil {
		t.Fatalf("Launch(%s): %v", substrate, err)
	}
	if res.Restarts != 1 {
		t.Fatalf("%s: %d restarts, want exactly 1 for a single death", substrate, res.Restarts)
	}
	return res
}

func TestRecoveryConformanceAcrossSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two incarnations of real processes; the fault-free conformance test covers -short")
	}
	ref := launchBoth(t, false)
	want := fmt.Sprint(ref.Values[0])

	inproc := launchRecovery(t, "inprocess")
	if got := fmt.Sprint(inproc.Values[0]); got != want {
		t.Fatalf("in-process recovered result %q != fault-free %q", got, want)
	}
	// When a committed checkpoint was
	// restored, the survivors must have served it from their in-memory
	// retained copy, not the store; the dead rank's replacement has no
	// retained copy and reads the store.
	if len(inproc.RecoveredEpochs) == 1 && inproc.RecoveredEpochs[0] >= 1 {
		for _, r := range []int{0, 1, 3} {
			if inproc.Stats[r].RecoveredFromRetained == 0 {
				t.Errorf("in-process survivor rank %d restored from the store; a survivor must use its retained copy", r)
			}
		}
		if inproc.Stats[2].RecoveredFromRetained != 0 {
			t.Errorf("restarted rank 2 claims a retained restore; a fresh rank has nothing retained")
		}
	}

	sim := launchRecovery(t, "simulated")
	if got := fmt.Sprint(sim.Values[0]); got != want {
		t.Fatalf("simulated recovered result %q != fault-free %q", got, want)
	}

	dist := launchRecovery(t, "distributed")
	if got := fmt.Sprint(dist.Values[0]); got != want {
		t.Fatalf("distributed recovered result %q != fault-free %q", got, want)
	}
	// The process contract: exactly one restart means two
	// incarnations; the survivors' worker processes carry over (stable
	// PIDs, no exit recorded in the incarnation they survived) and only
	// the killed rank is a fresh process.
	if len(dist.Incarnations) != 2 {
		t.Fatalf("distributed run reports %d incarnations, want 2", len(dist.Incarnations))
	}
	for _, r := range []int{0, 1, 3} {
		if p0, p1 := dist.Incarnations[0].PIDs[r], dist.Incarnations[1].PIDs[r]; p0 != p1 {
			t.Errorf("survivor rank %d was re-execed (pid %d -> %d); only dead ranks are restarted", r, p0, p1)
		}
		if e := dist.Incarnations[0].Exits[r]; e != "" {
			t.Errorf("survivor rank %d exited %q mid-job; survivors stay alive", r, e)
		}
	}
	if p0, p1 := dist.Incarnations[0].PIDs[2], dist.Incarnations[1].PIDs[2]; p0 == p1 {
		t.Errorf("killed rank 2 kept pid %d; a SIGKILLed rank must be re-execed", p0)
	}
}
