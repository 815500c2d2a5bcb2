package neurosys

import (
	"reflect"
	"sync/atomic"
	"testing"

	"ccift/internal/engine"
	"ccift/internal/protocol"
)

func run(t *testing.T, cfg engine.Config, p Params) []any {
	t.Helper()
	res, err := engine.Run(cfg, Program(p))
	if err != nil {
		t.Fatal(err)
	}
	return res.Values
}

func TestNeurosysRanksAgree(t *testing.T) {
	p := Params{K: 8, Iters: 20}
	vals := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("rank %d checksum %v != %v", i, v, vals[0])
		}
	}
}

func TestNeurosysRankCountInvariance(t *testing.T) {
	p := Params{K: 8, Iters: 15}
	a := run(t, engine.Config{Ranks: 1, Mode: protocol.Unmodified}, p)[0]
	b := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)[0]
	if a != b {
		t.Fatalf("checksum differs across rank counts: %v vs %v", a, b)
	}
}

func TestNeurosysDynamicsEvolve(t *testing.T) {
	a := run(t, engine.Config{Ranks: 2, Mode: protocol.Unmodified}, Params{K: 4, Iters: 1})[0]
	b := run(t, engine.Config{Ranks: 2, Mode: protocol.Unmodified}, Params{K: 4, Iters: 40})[0]
	if a == b {
		t.Fatal("network state did not evolve")
	}
}

func TestNeurosysModesAgree(t *testing.T) {
	p := Params{K: 8, Iters: 12}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for _, mode := range []protocol.Mode{protocol.PiggybackOnly, protocol.NoAppState, protocol.Full} {
		got := run(t, engine.Config{Ranks: 4, Mode: mode, EveryN: 4}, p)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%v: %v != %v", mode, got, ref)
		}
	}
}

func TestNeurosysRecovery(t *testing.T) {
	// Six collectives per iteration: failures land inside the collective
	// replay machinery.
	p := Params{K: 8, Iters: 12}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for _, atOp := range []int64{10, 23, 37, 52, 71} {
		cfg := engine.Config{
			Ranks: 4, Mode: protocol.Full, EveryN: 3, Debug: true,
			Failures: []engine.Failure{{Rank: int(atOp % 4), AtOp: atOp, Incarnation: 0}},
		}
		got := run(t, cfg, p)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("atOp=%d: %v != %v", atOp, got, ref)
		}
	}
}

// collectiveCounter counts the data collectives each rank executes.
type collectiveCounter struct{ perRank []atomic.Int64 }

func (c *collectiveCounter) Trace(e protocol.TraceEvent) {
	if e.Kind == protocol.TraceCollective {
		c.perRank[e.Rank].Add(1)
	}
}

func TestCommunicationPattern(t *testing.T) {
	// The paper counts 5 allgathers and 1 gather per iteration. The data
	// collectives themselves are the TraceCollective events: six per step
	// plus the final checksum allreduce. Of those only the gather — a
	// rooted collective, whose leaves never hear the root — is preceded by
	// an explicit control exchange; the allgathers and the allreduce carry
	// their control word on their own messages.
	const iters, ranks = 7, 2
	count := &collectiveCounter{perRank: make([]atomic.Int64, ranks)}
	res, err := engine.Run(engine.Config{Ranks: ranks, Mode: protocol.PiggybackOnly, Tracer: count},
		Program(Params{K: 4, Iters: iters}))
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range res.Stats {
		if got, want := count.perRank[r].Load(), int64(iters*(5+1)+1); got != want {
			t.Fatalf("rank %d: %d data collectives, want %d (5 allgathers + 1 gather per step, 1 allreduce)", r, got, want)
		}
		if s.ControlCollectives != iters {
			t.Fatalf("rank %d: %d explicit control exchanges, want %d (one per gather)", r, s.ControlCollectives, iters)
		}
	}
}
