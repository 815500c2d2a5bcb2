// Laplace solver under wall-clock checkpointing: the paper's second
// benchmark. An n×n plate is relaxed by neighbour averaging, block rows
// per rank, border rows exchanged each iteration — the halo messages are
// where the protocol's piggybacked control information rides. Checkpoints
// fire on a wall-clock interval, as in the paper's 30-second setting, and
// the halo exchange uses the typed ccift.Send/ccift.Recv front end (one
// payload copy instead of SendF64's two).
//
//	go run ./examples/laplace -n 512 -iters 2000 -interval 500ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ccift"
)

const (
	tagUp   = 1
	tagDown = 2
)

func main() {
	n := flag.Int("n", 512, "grid edge")
	iters := flag.Int("iters", 2000, "iterations")
	ranks := flag.Int("ranks", 8, "ranks")
	interval := flag.Duration("interval", 500*time.Millisecond, "checkpoint interval (paper: 30s)")
	short := flag.Bool("short", false, "run a reduced problem (CI)")
	flag.Parse()
	if *short {
		*n, *iters, *interval = 64, 120, 20*time.Millisecond
	}

	start := time.Now()
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(*ranks),
		ccift.WithMode(ccift.Full),
		ccift.WithInterval(*interval),
	), laplaceProgram(*n, *iters))
	if err != nil {
		// errors.Is against the ccift.Err* sentinels, never the message.
		if errors.Is(err, ccift.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "laplace: canceled:", err)
		} else {
			fmt.Fprintln(os.Stderr, "laplace:", err)
		}
		os.Exit(ccift.ExitCode(err))
	}
	var ckpts int64
	var mb float64
	for _, pr := range res.PerRank {
		ckpts += pr.Stats.CheckpointsTaken
		mb += float64(pr.Stats.CheckpointBytes) / 1e6
	}
	fmt.Printf("heat checksum: %v\n", res.Values[0])
	fmt.Printf("%.2fs elapsed, %d local checkpoints (%.1f MB) at a %v interval\n",
		time.Since(start).Seconds(), ckpts, mb, *interval)
}

func laplaceProgram(n, iters int) ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		ranks := r.Size()
		if n%ranks != 0 {
			return nil, fmt.Errorf("n=%d not divisible by %d ranks", n, ranks)
		}
		rows := n / ranks
		me := r.Rank()

		// grid holds a ghost row, the owned block, and another ghost row.
		it := ccift.Reg[int](r, "it")
		grid := ccift.Reg[[]float64](r, "grid")
		next := ccift.Reg[[]float64](r, "next")
		if !r.Restarting() {
			*grid = make([]float64, (rows+2)*n)
			*next = make([]float64, (rows+2)*n)
			if me == 0 {
				for j := 0; j < n; j++ {
					(*grid)[1*n+j] = 1 // hot top edge
				}
			}
		}

		for ; *it < iters; *it++ {
			r.PotentialCheckpoint()
			g, nx := *grid, *next

			// Halo exchange with the ranks above and below.
			if me > 0 {
				ccift.Send(r, me-1, tagUp, g[1*n:2*n])
			}
			if me < ranks-1 {
				ccift.Send(r, me+1, tagDown, g[rows*n:(rows+1)*n])
			}
			if me < ranks-1 {
				copy(g[(rows+1)*n:], ccift.Recv[float64](r, me+1, tagUp))
			}
			if me > 0 {
				copy(g[0:n], ccift.Recv[float64](r, me-1, tagDown))
			}

			for li := 1; li <= rows; li++ {
				gi := me*rows + li - 1
				for j := 0; j < n; j++ {
					if gi == 0 {
						nx[li*n+j] = g[li*n+j] // fixed boundary row
						continue
					}
					up := g[(li-1)*n+j]
					down := g[(li+1)*n+j]
					left, right := 0.0, 0.0
					if j > 0 {
						left = g[li*n+j-1]
					}
					if j < n-1 {
						right = g[li*n+j+1]
					}
					nx[li*n+j] = (up + down + left + right) / 4
				}
			}
			*grid, *next = nx, g
			// Write intent for the incremental freeze: the sweep
			// rewrote the interior and the swap rebound both slices.
			r.Touch("grid", "next")
		}

		local := 0.0
		for li := 1; li <= rows; li++ {
			for j := 0; j < n; j++ {
				local += (*grid)[li*n+j]
			}
		}
		total := ccift.Allreduce(r, []float64{local}, ccift.SumF64)
		return fmt.Sprintf("%.6f", total[0]), nil
	}
}
