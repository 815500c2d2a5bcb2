package engine

// Registration-depth verification: Unregister must pop exactly what this
// Rank registered, so a missing Register (or a descriptor pushed behind
// the Rank's back) surfaces at the unbalanced call site instead of
// silently unregistering someone else's variable.

import (
	"strings"
	"testing"

	"ccift/internal/protocol"
)

func runOneRank(t *testing.T, body func(r *Rank)) error {
	t.Helper()
	_, err := Run(Config{Ranks: 1}, func(r *Rank) (any, error) {
		body(r)
		return nil, nil
	})
	return err
}

func TestUnregisterBalancedPairs(t *testing.T) {
	err := runOneRank(t, func(r *Rank) {
		var a, b int
		r.Register("a", &a)
		r.Register("b", &b)
		r.Unregister() // b
		r.Unregister() // a
		if n := r.Layer().Saver.VDS.Len(); n != 0 {
			t.Errorf("VDS holds %d descriptors after balanced pops", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnregisterWithoutRegisterPanics(t *testing.T) {
	err := runOneRank(t, func(r *Rank) {
		var a int
		// The descriptor below is pushed directly on the VDS, not through
		// the Rank: the old Unregister would silently pop it.
		if err := r.Layer().Saver.VDS.Push("smuggled", &a); err != nil {
			t.Fatal(err)
		}
		r.Unregister()
	})
	if err == nil || !strings.Contains(err.Error(), "Unregister without a matching Register") {
		t.Fatalf("err = %v, want the unmatched-Unregister panic", err)
	}
}

func TestUnregisterMismatchNamesBothVariables(t *testing.T) {
	err := runOneRank(t, func(r *Rank) {
		var a, b int
		r.Register("mine", &a)
		// A descriptor pushed behind the Rank's back now sits on top; the
		// verified pop must refuse and name both variables.
		if err := r.Layer().Saver.VDS.Push("smuggled", &b); err != nil {
			t.Fatal(err)
		}
		r.Unregister()
	})
	if err == nil {
		t.Fatal("mismatched Unregister did not panic")
	}
	for _, want := range []string{"mine", "smuggled", "mismatched register/unregister pairing"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to mention %q", err, want)
		}
	}
}

// TestUnregisterRebindPairsWithOriginal pins the rebind rule: registering
// a live name rebinds the existing descriptor in place, so it consumes no
// extra Unregister.
func TestUnregisterRebindPairsWithOriginal(t *testing.T) {
	err := runOneRank(t, func(r *Rank) {
		var a1, a2, b int
		r.Register("a", &a1)
		r.Register("b", &b)
		r.Register("a", &a2) // rebind: "a" now restores through a2
		r.Unregister()       // pops b (the only fresh push above "a")
		r.Unregister()       // pops a
		if n := r.Layer().Saver.VDS.Len(); n != 0 {
			t.Errorf("VDS holds %d descriptors after rebind-aware pops", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerConfigStillValidates keeps the non-rank plumbing honest after
// the context threading: a worker with a missing transport hook must error
// out, not panic.
func TestWorkerConfigStillValidates(t *testing.T) {
	_, end := RunWorker(nil, WorkerConfig{Rank: 0, Ranks: 2, Mode: protocol.Full}, func(r *Rank) (any, error) {
		return nil, nil
	})
	if end.Err == nil || !strings.Contains(end.Err.Error(), "requires Store") {
		t.Fatalf("end = %+v, want the missing-dependencies error", end)
	}
}
