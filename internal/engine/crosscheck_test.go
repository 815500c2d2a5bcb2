package engine

import (
	"errors"
	"strings"
	"testing"

	"ccift/internal/cerr"
	"ccift/internal/protocol"
)

// Debug's freeze verifier guards the incremental-by-default era: after
// every freeze it re-reads live state and fails the run loudly if a
// mutation was not followed by Touch — instead of letting the staleness
// surface as silently wrong recovered values.

// forgetfulProg mutates a registered vector; touch selects whether it
// honors the write-intent contract.
func forgetfulProg(touch bool) Program {
	return func(r *Rank) (any, error) {
		var it int
		x := make([]float64, 128)
		r.Register("it", &it)
		r.Register("x", &x)
		for ; it < 9; it++ {
			r.PotentialCheckpoint()
			x[it%len(x)] += float64(it + 1)
			if touch {
				r.Touch("x")
			}
			r.Barrier()
		}
		return x[0] + x[1], nil
	}
}

func TestFreezeCrossCheckCatchesMissingTouch(t *testing.T) {
	// Simulated: the verifier can only object to the second freeze (the
	// first copies everything), and the run takes a second one only if the
	// first checkpoint commits in time — which a scenario decides, not the
	// flusher's speed.
	_, err := Run(onSim(t, Config{
		Ranks: 2, Mode: protocol.Full, EveryN: 3, Debug: true,
	}), forgetfulProg(false))
	if err == nil {
		t.Fatal("Debug accepted a program that mutates without Touch")
	}
	if !errors.Is(err, cerr.ErrProgram) {
		t.Fatalf("cross-check violation should be ErrProgram, got %v", err)
	}
	if !strings.Contains(err.Error(), `"x"`) || !strings.Contains(err.Error(), "Touch") {
		t.Fatalf("cross-check error should name the stale variable and the missing Touch, got: %v", err)
	}
}

func TestFreezeCrossCheckPassesHonestProgram(t *testing.T) {
	res, err := Run(Config{
		Ranks: 2, Mode: protocol.Full, EveryN: 3, Debug: true,
		Failures: []Failure{{Rank: 1, AtOp: 20, Incarnation: 0}},
	}, forgetfulProg(true))
	if err != nil {
		t.Fatalf("cross-check rejected a contract-honoring program: %v", err)
	}
	ref := runRef(t, Config{Ranks: 2, Mode: protocol.Unmodified}, forgetfulProg(true))
	if len(res.Values) != 2 || res.Values[0] != ref[0] {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
}
