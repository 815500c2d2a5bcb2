// Conjugate Gradient under checkpointing: the paper's first benchmark,
// written against the ccift v1 API. A dense symmetric positive-definite
// system is solved with block-row distribution; the main loop's allreduce
// and allgather run through the protocol layer, and the full matrix block
// is part of every checkpoint (the paper's system saves everything too —
// state exclusion is its future work).
//
//	go run ./examples/cg -n 1024 -iters 120 -kill 3@500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"ccift"
)

func main() {
	n := flag.Int("n", 1024, "matrix dimension")
	iters := flag.Int("iters", 120, "CG iterations")
	ranks := flag.Int("ranks", 8, "ranks")
	every := flag.Int("every", 30, "checkpoint every N iterations")
	killRank := flag.Int("kill", -1, "rank to stop-fail (-1: none)")
	killOp := flag.Int64("killop", 400, "operation index of the failure")
	short := flag.Bool("short", false, "run a reduced problem (CI)")
	flag.Parse()
	if *short {
		*n, *iters, *every = 256, 30, 10
	}

	opts := []ccift.Option{
		ccift.WithRanks(*ranks),
		ccift.WithMode(ccift.Full),
		ccift.WithEveryN(*every),
	}
	if *killRank >= 0 {
		opts = append(opts, ccift.WithFailures(ccift.Failure{Rank: *killRank, AtOp: *killOp}))
	}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(opts...), cgProgram(*n, *iters))
	if err != nil {
		// errors.Is against the ccift.Err* sentinels, never the message.
		switch {
		case errors.Is(err, ccift.ErrMaxRestarts):
			fmt.Fprintln(os.Stderr, "cg: restart budget exhausted:", err)
		case errors.Is(err, ccift.ErrProgram):
			fmt.Fprintln(os.Stderr, "cg: application error:", err)
		default:
			fmt.Fprintln(os.Stderr, "cg:", err)
		}
		os.Exit(ccift.ExitCode(err))
	}
	fmt.Printf("solution checksum: %v (restarts: %d)\n", res.Values[0], res.Restarts)
	var ckpts, bytes int64
	for _, pr := range res.PerRank {
		ckpts += pr.Stats.CheckpointsTaken
		bytes += pr.Stats.CheckpointBytes
	}
	fmt.Printf("checkpoints: %d local, %.1f MB written\n", ckpts, float64(bytes)/1e6)
}

// cgProgram solves A·x = 1 for a deterministic SPD matrix.
func cgProgram(n, iters int) ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		ranks := r.Size()
		if n%ranks != 0 {
			return nil, fmt.Errorf("n=%d not divisible by %d ranks", n, ranks)
		}
		rows := n / ranks
		lo := r.Rank() * rows

		it := ccift.Reg[int](r, "it")
		a := ccift.Reg[[]float64](r, "a")
		x := ccift.Reg[[]float64](r, "x")
		res := ccift.Reg[[]float64](r, "res")
		dir := ccift.Reg[[]float64](r, "dir")
		rs := ccift.Reg[float64](r, "rs")

		if !r.Restarting() {
			*a = make([]float64, rows*n)
			*x = make([]float64, rows)
			*res = make([]float64, rows)
			*dir = make([]float64, rows)
			for li := 0; li < rows; li++ {
				gi := lo + li
				sum := 0.0
				for j := 0; j < n; j++ {
					if j != gi {
						v := entry(gi, j)
						(*a)[li*n+j] = v
						sum += v
					}
				}
				(*a)[li*n+gi] = sum + 1
			}
			for i := range *res {
				(*res)[i], (*dir)[i] = 1, 1
			}
		}

		// Scratch the loop keeps: the collectives' into-forms fill p and
		// total in place, so an iteration allocates nothing. Every iteration
		// rewrites them before it reads them — nothing to Register.
		p := make([]float64, n)
		q := make([]float64, rows)
		part, total := make([]float64, 1), make([]float64, 1)
		allDot := func(a, b []float64) float64 {
			part[0] = dot(a, b)
			r.AllreduceF64Into(total, part, ccift.SumF64)
			return total[0]
		}
		if !r.Restarting() {
			*rs = allDot(*res, *res)
		}

		for ; *it < iters; *it++ {
			r.PotentialCheckpoint()
			r.AllgatherF64Into(p, *dir)
			for li := 0; li < rows; li++ {
				row := (*a)[li*n : (li+1)*n]
				s := 0.0
				for j, pv := range p {
					s += row[j] * pv
				}
				q[li] = s
			}
			alpha := *rs / allDot(*dir, q)
			for i := range *x {
				(*x)[i] += alpha * (*dir)[i]
				(*res)[i] -= alpha * q[i]
			}
			rsNew := allDot(*res, *res)
			beta := rsNew / *rs
			*rs = rsNew
			for i := range *dir {
				(*dir)[i] = (*res)[i] + beta*(*dir)[i]
			}
			// Write intent for the incremental freeze: the
			// iteration rewrote these vectors; a is read-only and rs/it are
			// scalars, which never need a Touch.
			r.Touch("x", "res", "dir")
		}
		norm := allDot(*x, *x)
		return fmt.Sprintf("‖x‖=%.9f residual=%.3g", math.Sqrt(norm), math.Sqrt(*rs)), nil
	}
}

// entry is a deterministic pseudo-random symmetric off-diagonal generator.
func entry(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	h := uint64(i)*0x9E37 + uint64(j)*0x79B9 + 12345
	h ^= h >> 13
	h *= 0x2545F4914F6CDD1D
	h ^= h >> 35
	return float64(h%1000) / 4000.0
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
