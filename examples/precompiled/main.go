// This is the precompiler INPUT: a plain program whose only
// fault-tolerance provision is its PotentialCheckpoint calls, exactly as
// the paper prescribes ("almost unmodified single-threaded C/MPI source").
// The committed main.go next to this file is the CCIFT output; regenerate
// it with:
//
//	go run ./cmd/ccift -o examples/precompiled/main.go examples/precompiled/main.go.in
//
// Note what the programmer did NOT write: no state registration, no resume
// dispatch, no position bookkeeping, no Touch. The checkpoint sits
// mid-iteration — after the sends and receives — and a second one hides
// inside relax(); the precompiler's Position Stack instrumentation is what
// makes resuming at those points possible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"ccift"
)

func main() {
	flag.Bool("short", false, "accepted for CI symmetry; the demo is already small")
	flag.Parse()
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(4),
		ccift.WithMode(ccift.Full),
		ccift.WithEveryN(6),
		ccift.WithFailures(ccift.Failure{Rank: 2, AtOp: 160}),
	), func(r *ccift.Rank) (any, error) {
		return worker(r, 30), nil
	})
	if err != nil {
		// errors.Is against the ccift.Err* sentinels, never the message.
		if errors.Is(err, ccift.ErrProgram) {
			fmt.Fprintln(os.Stderr, "precompiled: application error:", err)
		} else {
			fmt.Fprintln(os.Stderr, "precompiled:", err)
		}
		os.Exit(ccift.ExitCode(err))
	}
	fmt.Printf("values: %v (restarts: %d, recovered epochs: %v)\n",
		res.Values, res.Restarts, res.RecoveredEpochs)
}

func worker(r *ccift.Rank, iters int) float64 {
	var it int
	var acc float64
	var in []float64
	var next int
	var prev int
	r.Register("worker.iters", &iters)
	defer r.Unregister()
	r.Register("worker.it", &it)
	defer r.Unregister()
	r.Register("worker.acc", &acc)
	defer r.Unregister()
	r.Register("worker.in", &in)
	defer r.Unregister()
	r.Register("worker.next", &next)
	defer r.Unregister()
	r.Register("worker.prev", &prev)
	defer r.Unregister()
	var ccift_target int
	if r.PS().Resuming() {
		ccift_target = r.PS().Resume()
	}
	switch ccift_target {
	case 1, 2:
		goto ccift_c1
	}
	next = (r.Rank() + 1) % r.Size()
	prev = (r.Rank() - 1 + r.Size()) % r.Size()
	acc = float64(r.Rank() + 1)
ccift_c1:
	for ; it < iters; it++ {
		switch ccift_target {
		case 1:
			ccift_target = 0
			goto ccift_l1
		case 2:
			ccift_target = 0
			goto ccift_l2
		}
		ccift.Send(r, next, 1, []float64{acc})
		in = ccift.Recv[float64](r, prev, 1)
		acc = acc*0.75 + in[0]*0.25
		r.Touch("worker.in")
		r.PS().Push(1)
		r.PotentialCheckpoint()
	ccift_l1:
		r.PS().Pop()
		r.Touch("worker.in")
		r.PS().Push(2)
	ccift_l2:
		acc = relax(r, acc)
		r.PS().Pop()
	}

	out := r.AllreduceF64([]float64{acc}, ccift.SumF64)
	return out[0]
}

func relax(r *ccift.Rank, x float64) float64 {
	var y float64
	r.Register("relax.x", &x)
	defer r.Unregister()
	r.Register("relax.y", &y)
	defer r.Unregister()
	var ccift_target int
	if r.PS().Resuming() {
		ccift_target = r.PS().Resume()
	}
	switch ccift_target {
	case 1:
		ccift_target = 0
		goto ccift_l1
	}
	y = x*0.5 + 1
	r.PS().Push(1)
	r.PotentialCheckpoint()
ccift_l1:
	r.PS().Pop()
	return y + 0.125
}
