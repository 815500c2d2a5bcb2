package laplace

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccift/internal/engine"
	"ccift/internal/precompiler"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

func run(t *testing.T, cfg engine.Config, p Params) []any {
	t.Helper()
	res, err := engine.Run(cfg, Program(p))
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

func TestLaplaceRanksAgree(t *testing.T) {
	p := Params{N: 32, Iters: 30}
	vals := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("rank %d checksum %v != %v", i, v, vals[0])
		}
	}
}

func TestLaplaceRankCountInvariance(t *testing.T) {
	p := Params{N: 32, Iters: 25}
	a := run(t, engine.Config{Ranks: 1, Mode: protocol.Unmodified}, p)[0]
	b := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)[0]
	if a != b {
		t.Fatalf("checksum differs across rank counts: %v vs %v", a, b)
	}
}

func TestLaplaceHeatPropagates(t *testing.T) {
	// With the hot top edge, the checksum should move as iterations grow:
	// the solver is actually doing something.
	p1 := run(t, engine.Config{Ranks: 2, Mode: protocol.Unmodified}, Params{N: 16, Iters: 5})[0]
	p2 := run(t, engine.Config{Ranks: 2, Mode: protocol.Unmodified}, Params{N: 16, Iters: 50})[0]
	if p1 == p2 {
		t.Fatalf("checksum did not change between 5 and 50 iterations (%v)", p1)
	}
}

func TestLaplaceModesAgree(t *testing.T) {
	p := Params{N: 32, Iters: 20}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for _, mode := range []protocol.Mode{protocol.PiggybackOnly, protocol.NoAppState, protocol.Full} {
		got := run(t, engine.Config{Ranks: 4, Mode: mode, EveryN: 6}, p)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%v: %v != %v", mode, got, ref)
		}
	}
}

// TestLaplaceRecoversOnTheSimulator: kills at several ops of a simulated
// world whose jitter reorders frames across senders, under the protocol's
// Debug assertions. Which commit a kill follows, and which call it lands
// in, are functions of the seed, so each row names the epoch it restores:
// five of the six take the restart path (solve resumed at its checkpoint,
// next not restored), and five die inside the halo exchange, between an
// Irecv/Isend post and its Wait. Every run ends with the fault-free
// checksum.
func TestLaplaceRecoversOnTheSimulator(t *testing.T) {
	p := Params{N: 32, Iters: 24}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for _, k := range []struct {
		seed, atOp int64
		want       int
	}{
		{1, 40, -1}, // in the first checkpoint's control send
		{2, 150, 1}, // in an Isend, with an Irecv posted
		{3, 140, 2}, // in an Isend, with an Irecv posted
		{4, 190, 2}, // in the Wait on a halo row
		{5, 170, 1}, // in the Wait on a halo row
		{6, 130, 1}, // in the Wait on a halo row
	} {
		s, err := sim.New(4, sim.Scenario{Seed: k.seed, Latency: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Run(engine.Config{
			Ranks: 4, Mode: protocol.Full, EveryN: 5, Debug: true,
			Failures:     []engine.Failure{{Rank: int(k.seed % 4), AtOp: k.atOp}},
			NewTransport: s.NewTransport, Clock: s.DetectorClock(), RankClock: s.RankClock,
			Store: s.WrapStore(storage.NewMemory()),
		}, Program(p))
		s.Stop()
		if err != nil {
			t.Fatalf("seed=%d atOp=%d: %v", k.seed, k.atOp, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("seed=%d atOp=%d: %v != %v", k.seed, k.atOp, res.Values, ref)
		}
		if !reflect.DeepEqual(res.RecoveredEpochs, []int{k.want}) {
			t.Fatalf("seed=%d atOp=%d: recovered from %v, want [%d]", k.seed, k.atOp, res.RecoveredEpochs, k.want)
		}
	}
}

// TestLaplaceIsThePrecompilersOutput holds laplace.go to what the ccift
// precompiler emits for laplace.go.in, a source that registers and touches
// nothing itself, and the sweep's target to the variables the analysis
// leaves out of every checkpoint.
func TestLaplaceIsThePrecompilersOutput(t *testing.T) {
	src, err := os.ReadFile("laplace.go.in")
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []string{"Register", "Unregister", "Touch", "PS()"} {
		if strings.Contains(string(src), "r."+call) {
			t.Errorf("laplace.go.in calls r.%s; only the precompiler may", call)
		}
	}
	res, err := precompiler.Transform([]precompiler.File{{Name: "laplace.go.in", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("laplace.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Files[0]) != string(want) {
		t.Fatal("laplace.go is not the precompiler's output for laplace.go.in; regenerate with\n\tgo generate ./internal/apps/laplace")
	}
	if !reflect.DeepEqual(res.Dead, []string{"solve.next"}) || len(res.Mixed) != 0 {
		t.Fatalf("dead %v, mixed %v; want next dead and nothing mixed", res.Dead, res.Mixed)
	}
}
