package engine

import (
	"fmt"
	"reflect"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

// scanProg exercises Scan, Reducescatter, and Sendrecv through checkpoints
// and recovery: the new operations must be logged and replayed like every
// other collective.
func scanProg(iters int) Program {
	return func(r *Rank) (any, error) {
		n := r.Size()
		me := r.Rank()
		var it int
		var acc float64
		r.Register("it", &it)
		r.Register("acc", &acc)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()

			// Prefix sums over rank contributions.
			pre := make([]byte, 8)
			r.ScanInto(pre, mpi.F64Bytes([]float64{float64(me + it)}), mpi.SumF64)
			acc += mpi.BytesF64(pre)[0]

			// Reduce-scatter of per-rank blocks.
			blocks := make([]float64, n)
			for i := range blocks {
				blocks[i] = float64(me) + float64(i)*0.25
			}
			own := make([]byte, 8)
			r.ReducescatterInto(own, mpi.F64Bytes(blocks), mpi.SumF64)
			acc += mpi.BytesF64(own)[0] * 0.01

			// Ring rotation via the combined call.
			m := r.Sendrecv((me+1)%n, 1, mpi.F64Bytes([]float64{acc}), (me-1+n)%n, 1)
			acc = acc*0.75 + mpi.BytesF64(m.Data)[0]*0.25
		}
		total := r.AllreduceF64([]float64{acc}, mpi.SumF64)
		return fmt.Sprintf("%.9f", total[0]), nil
	}
}

func TestNewCollectivesModesAgree(t *testing.T) {
	prog := scanProg(12)
	ref := runRef(t, Config{Ranks: 4, Mode: protocol.Unmodified}, prog)
	for _, mode := range []protocol.Mode{protocol.PiggybackOnly, protocol.NoAppState, protocol.Full} {
		res, err := Run(Config{Ranks: 4, Mode: mode, EveryN: 4}, prog)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("%v: values %v != ref %v", mode, res.Values, ref)
		}
	}
}

func TestNewCollectivesSurviveRecovery(t *testing.T) {
	prog := scanProg(15)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	for _, atOp := range []int64{15, 40, 70, 100, 130} {
		cfg := Config{
			Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
			Failures: []Failure{{Rank: int(atOp) % 3, AtOp: atOp, Incarnation: 0}},
		}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("atOp=%d: %v", atOp, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("atOp=%d: values %v != ref %v", atOp, res.Values, ref)
		}
	}
}

func TestNewCollectivesUnderChaos(t *testing.T) {
	prog := scanProg(10)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{
			Ranks: 3, Mode: protocol.Full, EveryN: 3, Debug: true, ChaosSeed: seed,
			Failures: []Failure{{Rank: 1, AtOp: 50, Incarnation: 0}},
		}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("seed=%d: values %v != ref %v", seed, res.Values, ref)
		}
	}
}
