package cg

import (
	"math"
	"reflect"
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

func TestCGConverges(t *testing.T) {
	p := Params{N: 64, Iters: 40}
	vals := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	ck := vals[0].(Checksum)
	// Diagonally dominant SPD system with b=1: CG should have driven the
	// residual far down after 40 iterations on a 64×64 system.
	if ck.Residual > 1e-6 {
		t.Fatalf("residual %v did not converge", ck.Residual)
	}
	// All ranks agree on the checksum.
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("rank %d checksum %v != %v", i, v, vals[0])
		}
	}
}

func TestCGRankCountInvariance(t *testing.T) {
	// The answer (solution checksum) must not depend on the number of
	// ranks beyond benign rounding, since the math is the same.
	p := Params{N: 32, Iters: 24}
	a := run(t, engine.Config{Ranks: 1, Mode: protocol.Unmodified}, p)[0].(Checksum)
	b := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)[0].(Checksum)
	if a.Sum != b.Sum {
		t.Fatalf("sum differs across rank counts: %v vs %v", a.Sum, b.Sum)
	}
}

func TestCGModesAgree(t *testing.T) {
	p := Params{N: 32, Iters: 20}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for _, mode := range []protocol.Mode{protocol.PiggybackOnly, protocol.NoAppState, protocol.Full} {
		got := run(t, engine.Config{Ranks: 4, Mode: mode, EveryN: 5}, p)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%v: %v != %v", mode, got, ref)
		}
	}
}

func TestCGRecovery(t *testing.T) {
	p := Params{N: 32, Iters: 20}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)
	for _, atOp := range []int64{9, 25, 41, 57} {
		cfg := engine.Config{
			Ranks: 4, Mode: protocol.Full, EveryN: 4, Debug: true,
			Failures: []engine.Failure{{Rank: int(atOp % 4), AtOp: atOp, Incarnation: 0}},
		}
		got := run(t, cfg, p)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("atOp=%d: %v != %v", atOp, got, ref)
		}
	}
}

// TestCGChecksumFiniteAtAnyLength: CG reaches rs == 0 exactly long before a
// benchmark-length run ends, and the iterations after that must hold the
// solution, not turn it into 0/0 — an output oracle of NaNs agrees with
// anything as text and with nothing as numbers. A run killed after the
// fixed point recovers to the same numbers.
func TestCGChecksumFiniteAtAnyLength(t *testing.T) {
	var ref Checksum
	for _, iters := range []int{50, 200, 2000} {
		ck := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, Params{N: 32, Iters: iters})[0].(Checksum)
		for _, v := range []float64{ck.Sum, ck.Norm2, ck.Residual} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Iters=%d: checksum %+v is not finite", iters, ck)
			}
		}
		if iters == 200 {
			ref = ck
		}
	}
	cfg := engine.Config{
		Ranks: 4, Mode: protocol.Full, EveryN: 20,
		Failures: []engine.Failure{{Rank: 2, AtOp: 1000}},
	}
	res, err := engine.Run(cfg, Program(Params{N: 32, Iters: 200}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("%d restarts, want the one injected kill to land", res.Restarts)
	}
	for rank, v := range res.Values {
		if v.(Checksum) != ref {
			t.Fatalf("rank %d recovered to %+v, fault-free run gives %+v", rank, v, ref)
		}
	}
}

func TestStateBytesEstimate(t *testing.T) {
	p := Params{N: 64, Iters: 1}
	est := p.StateBytesPerRank(4)
	if est < 8*64*16 {
		t.Fatalf("estimate %d too small", est)
	}
}

func TestMatEntrySymmetric(t *testing.T) {
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if matEntry(i, j) != matEntry(j, i) {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
			if v := matEntry(i, j); v < 0 || v >= 0.25 {
				t.Fatalf("entry (%d,%d)=%v out of range", i, j, v)
			}
		}
	}
}

// TestComputedStateRecovery: with ExcludeMatrix, the read-only matrix
// block is registered as recomputable (Section 7's recomputation
// checkpointing): results survive failures identically, and checkpoints
// shrink by more than an order of magnitude.
func TestComputedStateRecovery(t *testing.T) {
	p := Params{N: 256, Iters: 20}
	ref := run(t, engine.Config{Ranks: 4, Mode: protocol.Unmodified}, p)

	sizes := map[bool]int64{}
	for _, exclude := range []bool{false, true} {
		p.ExcludeMatrix = exclude
		cfg := engine.Config{
			Ranks: 4, Mode: protocol.Full, EveryN: 6, Debug: true,
			Failures: []engine.Failure{{Rank: 1, AtOp: 160, Incarnation: 0}},
		}
		res, err := engine.Run(cfg, Program(p))
		if err != nil {
			t.Fatalf("exclude=%v: %v", exclude, err)
		}
		if res.Restarts != 1 {
			t.Fatalf("exclude=%v: restarts = %d", exclude, res.Restarts)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("exclude=%v: values %v != ref %v", exclude, res.Values, ref)
		}
		for _, s := range res.Stats {
			sizes[exclude] += s.CheckpointBytes
		}
	}
	// The matrix block dominates CG's state; excluding it must shrink
	// checkpoints by at least an order of magnitude.
	if sizes[true]*10 >= sizes[false] {
		t.Fatalf("excluded checkpoints (%d B) should be <10%% of full (%d B)", sizes[true], sizes[false])
	}
}
