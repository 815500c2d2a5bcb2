package ccift_test

// Typed messaging and state: round trips for every element type, wire
// compatibility with the v0 F64 helpers, the mismatched-element-size
// diagnostic, and Reg-based state surviving a rollback.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ccift"
)

// launch2 runs prog on two ranks with the protocol fully active.
func launch2(t *testing.T, prog ccift.Program) *ccift.Result {
	t.Helper()
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(3),
	), prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func roundTrip[T ccift.Element](t *testing.T, in []T) {
	t.Helper()
	res := launch2(t, func(r *ccift.Rank) (any, error) {
		if r.Rank() == 0 {
			ccift.Send(r, 1, 7, in)
			return nil, nil
		}
		return ccift.Recv[T](r, 0, 7), nil
	})
	if !reflect.DeepEqual(res.Values[1], in) {
		t.Fatalf("round trip %v -> %v", in, res.Values[1])
	}
}

func TestTypedRoundTrips(t *testing.T) {
	roundTrip(t, []byte{0, 1, 254, 255})
	roundTrip(t, []int16{-32768, -1, 0, 32767})
	roundTrip(t, []uint16{0, 1, 65535})
	roundTrip(t, []int32{-1 << 31, -7, 0, 1<<31 - 1})
	roundTrip(t, []uint32{0, 7, 1<<32 - 1})
	roundTrip(t, []int64{math.MinInt64, -1, 0, math.MaxInt64})
	roundTrip(t, []uint64{0, 1, math.MaxUint64})
	roundTrip(t, []float32{-1.5, 0, float32(math.Inf(1)), math.MaxFloat32})
	roundTrip(t, []float64{1.5, -2.25, 1e300, 0})
	roundTrip(t, []float64{}) // empty payloads must survive too
}

// TestTypedWireCompatibility pins that Send[float64] and a byte-level send
// of F64Bytes put the identical wire format on the wire, in both
// directions: each is decoded by the other side's receive.
func TestTypedWireCompatibility(t *testing.T) {
	xs := []float64{3.5, -0.25, 1e-300}
	res := launch2(t, func(r *ccift.Rank) (any, error) {
		if r.Rank() == 0 {
			ccift.Send(r, 1, 1, xs)          // typed send ...
			r.Send(1, 2, ccift.F64Bytes(xs)) // ... and byte-level send
			return nil, nil
		}
		a := ccift.BytesF64(r.Recv(0, 1).Data) // ... received byte-level
		b := ccift.Recv[float64](r, 0, 2)      // ... and by the typed front end
		return [2][]float64{a, b}, nil
	})
	got := res.Values[1].([2][]float64)
	if !reflect.DeepEqual(got[0], xs) || !reflect.DeepEqual(got[1], xs) {
		t.Fatalf("cross-decoding mismatch: %v / %v, want %v", got[0], got[1], xs)
	}
}

// TestTypedSizeMismatchPanics pins the diagnostic for decoding a payload
// with the wrong element type.
func TestTypedSizeMismatchPanics(t *testing.T) {
	_, err := ccift.Launch(context.Background(), ccift.NewSpec(ccift.WithRanks(2)),
		func(r *ccift.Rank) (any, error) {
			if r.Rank() == 0 {
				ccift.Send(r, 1, 1, []byte{1, 2, 3}) // 3 bytes: not a float64 vector
				return nil, nil
			}
			ccift.Recv[float64](r, 0, 1)
			return nil, nil
		})
	if err == nil || !strings.Contains(err.Error(), "payload length mismatch: 3 bytes vs 0 whole float64 elements of 8 bytes") {
		t.Fatalf("err = %v, want the payload-length diagnostic", err)
	}
}

// TestRegSurvivesRollback pins the typed state path end to end: values
// held through Reg pointers must be restored from the checkpoint exactly
// like Register'd variables (they share the VDS machinery).
func TestRegSurvivesRollback(t *testing.T) {
	prog := func(r *ccift.Rank) (any, error) {
		it := ccift.Reg[int](r, "it")
		acc := ccift.Reg[float64](r, "acc")
		hist := ccift.Reg[[]int64](r, "hist")
		for ; *it < 12; *it++ {
			r.PotentialCheckpoint()
			part := ccift.Allreduce(r, []float64{float64(r.Rank() + 1)}, ccift.SumF64)
			*acc += part[0]
			*hist = append(*hist, int64(*it))
			r.Touch("hist") // append rebinds/mutates: write intent for incremental freeze
		}
		return fmt.Sprintf("%v/%v", *acc, *hist), nil
	}
	ref, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(4)), prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(4),
		ccift.WithFailures(ccift.Failure{Rank: 1, AtOp: 40})), prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref.Values) {
		t.Fatalf("recovered values %v != fault-free %v", res.Values, ref.Values)
	}
}
