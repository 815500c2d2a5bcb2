package ccift_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"ccift"
)

// stencil is a small neighbour-averaging program used to exercise the
// public API exactly as a downstream user would.
func stencil(iters, width int) ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		n := r.Size()
		me := r.Rank()
		next, prev := (me+1)%n, (me-1+n)%n

		var it int
		x := make([]float64, width)
		r.Register("it", &it)
		r.Register("x", &x)
		if !r.Restarting() {
			for i := range x {
				x[i] = float64(me*width + i)
			}
		}
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			ccift.Send(r, next, 1, x)
			in := ccift.Recv[float64](r, prev, 1)
			for i := range x {
				x[i] = (x[i] + in[i]) / 2
			}
			norm := r.AllreduceF64([]float64{x[0]}, ccift.SumF64)
			x[0] = norm[0] / float64(n)
			r.Touch("x")
		}
		total := r.AllreduceF64([]float64{x[0] + x[width-1]}, ccift.SumF64)
		return fmt.Sprintf("%.9f", total[0]), nil
	}
}

// launchInProc runs prog in-process under the given options, for at most a
// minute: a recovery that deadlocks fails the test instead of hanging the
// package.
func launchInProc(t *testing.T, prog ccift.Program, opts ...ccift.Option) *ccift.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := ccift.Launch(ctx, ccift.NewSpec(opts...), prog)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPublicAPIRoundTrip(t *testing.T) {
	res := launchInProc(t, stencil(15, 8), ccift.WithRanks(4), ccift.WithMode(ccift.Full), ccift.WithEveryN(5))
	if len(res.Values) != 4 {
		t.Fatalf("values = %v", res.Values)
	}
	for r := 1; r < 4; r++ {
		if res.Values[r] != res.Values[0] {
			t.Fatalf("ranks disagree: %v", res.Values)
		}
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	prog := stencil(20, 8)
	ref := launchInProc(t, prog, ccift.WithRanks(3))
	res := launchInProc(t, prog, ccift.WithRanks(3), ccift.WithMode(ccift.Full), ccift.WithEveryN(4),
		ccift.WithStore(ccift.NewMemoryStore()),
		ccift.WithFailures(ccift.Failure{Rank: 1, AtOp: 120, Incarnation: 0}))
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref.Values) {
		t.Fatalf("recovered values %v != ref %v", res.Values, ref.Values)
	}
}

func TestPublicAPIDiskStore(t *testing.T) {
	store, err := ccift.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	prog := stencil(12, 4)
	ref := launchInProc(t, prog, ccift.WithRanks(2))
	res := launchInProc(t, prog, ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(3),
		ccift.WithStore(store),
		ccift.WithFailures(ccift.Failure{Rank: 0, AtOp: 80, Incarnation: 0}))
	if !reflect.DeepEqual(res.Values, ref.Values) {
		t.Fatalf("disk-backed recovery diverged: %v != %v", res.Values, ref.Values)
	}
}

func TestPackUnpackHelpers(t *testing.T) {
	xs := []float64{1.5, -2.25, 1e300, 0}
	got := ccift.BytesF64(ccift.F64Bytes(xs))
	if !reflect.DeepEqual(got, xs) {
		t.Fatalf("round trip %v != %v", got, xs)
	}
}

// ExampleLaunch demonstrates the quickstart flow on two ranks.
func ExampleLaunch() {
	prog := func(r *ccift.Rank) (any, error) {
		var it int
		var sum float64
		r.Register("it", &it)
		r.Register("sum", &sum)
		for ; it < 4; it++ {
			r.PotentialCheckpoint()
			part := r.AllreduceF64([]float64{float64(r.Rank() + 1)}, ccift.SumF64)
			sum += part[0]
		}
		return sum, nil
	}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(2)), prog)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Values[0])
	// Output: 12
}
