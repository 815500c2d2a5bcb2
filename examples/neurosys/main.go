// Neurosys under checkpointing: the paper's third benchmark, a neuron
// network integrated with RK4 where every time step performs five
// allgathers and a gather. With tiny per-neuron state, what the protocol
// adds to a collective is the visible cost. The allgathers carry their
// control information on their own messages; the gather, whose leaves never
// hear the root, is preceded by an explicit control exchange, which is what
// this example counts. It runs the same problem in all four Figure-8 modes
// and prints the overhead breakdown the paper discusses.
//
//	go run ./examples/neurosys -k 32 -iters 400
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"ccift"
)

func main() {
	k := flag.Int("k", 32, "neuron-grid edge (the network has k*k neurons)")
	iters := flag.Int("iters", 400, "RK4 time steps")
	ranks := flag.Int("ranks", 8, "ranks")
	every := flag.Int("every", 100, "checkpoint every N steps")
	short := flag.Bool("short", false, "run a reduced problem (CI)")
	flag.Parse()
	if *short {
		*k, *iters, *every = 16, 60, 20
	}

	modes := []ccift.Mode{ccift.Unmodified, ccift.PiggybackOnly, ccift.NoAppState, ccift.Full}
	base := 0.0
	for _, mode := range modes {
		spec := ccift.NewSpec(
			ccift.WithRanks(*ranks),
			ccift.WithMode(mode),
			ccift.WithEveryN(*every),
		)
		start := time.Now()
		res, err := ccift.Launch(context.Background(), spec, neurosysProgram(*k, *iters))
		if err != nil {
			// errors.Is against the ccift.Err* sentinels, never the message.
			if errors.Is(err, ccift.ErrSpec) {
				fmt.Fprintln(os.Stderr, "neurosys: invalid spec:", err)
			} else {
				fmt.Fprintln(os.Stderr, "neurosys:", err)
			}
			os.Exit(ccift.ExitCode(err))
		}
		elapsed := time.Since(start).Seconds()
		if mode == ccift.Unmodified {
			base = elapsed
		}
		var ctl int64
		for _, pr := range res.PerRank {
			ctl += pr.Stats.ControlCollectives
		}
		fmt.Printf("%-15v %.3fs  (%+.1f%%)  explicit control exchanges (one per gather per rank): %d  checksum: %v\n",
			mode, elapsed, (elapsed/base-1)*100, ctl, res.Values[0])
	}
}

// neurosysProgram integrates a k*k excitatory/inhibitory neuron network.
func neurosysProgram(k, iters int) ccift.Program {
	return func(r *ccift.Rank) (any, error) {
		n := k * k
		ranks := r.Size()
		if n%ranks != 0 {
			return nil, fmt.Errorf("%d neurons not divisible by %d ranks", n, ranks)
		}
		local := n / ranks
		lo := r.Rank() * local
		const dt = 0.01

		it := ccift.Reg[int](r, "it")
		v := ccift.Reg[[]float64](r, "v")
		drive := ccift.Reg[[]float64](r, "drive")

		if !r.Restarting() {
			*v = make([]float64, local)
			*drive = make([]float64, local)
			for i := range *v {
				gi := lo + i
				(*v)[i] = 0.5 * math.Sin(float64(gi)*0.7)
				(*drive)[i] = 0.1 + 0.05*math.Cos(float64(gi)*0.3)
			}
		}

		deriv := func(all []float64, i int, vi float64) float64 {
			gi := lo + i
			// Four grid neighbours excite; the diagonal inhibits.
			row, col := gi/k, gi%k
			in := 0.0
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nr, nc := row+d[0], col+d[1]
				if nr >= 0 && nr < k && nc >= 0 && nc < k {
					in += 0.25 * all[nr*k+nc]
				}
			}
			inh := all[((row+col)%k)*k+col]
			return -vi + math.Tanh(in-0.3*inh+(*drive)[i])
		}

		// Scratch the loop keeps: the collectives' into-forms fill all (and,
		// at the root, observed) in place, so a step allocates nothing. Every
		// step rewrites them before it reads them — nothing to Register.
		all := make([]float64, n)
		stage := make([]float64, local)
		k1, k2, k3, k4 := make([]float64, local), make([]float64, local), make([]float64, local), make([]float64, local)
		var observed []float64
		if r.Rank() == 0 {
			observed = make([]float64, n)
		}

		for ; *it < iters; *it++ {
			r.PotentialCheckpoint()
			vs := *v

			// RK4: each sub-stage needs the full network state — the five
			// allgathers of the paper's description (four stages plus the
			// final assembly below).
			r.AllgatherF64Into(all, vs)
			for i := range k1 {
				k1[i] = deriv(all, i, vs[i])
			}
			r.AllgatherF64Into(all, stageState(stage, vs, k1, dt/2))
			for i := range k2 {
				k2[i] = deriv(all, i, vs[i]+dt/2*k1[i])
			}
			r.AllgatherF64Into(all, stageState(stage, vs, k2, dt/2))
			for i := range k3 {
				k3[i] = deriv(all, i, vs[i]+dt/2*k2[i])
			}
			r.AllgatherF64Into(all, stageState(stage, vs, k3, dt))
			for i := range k4 {
				k4[i] = deriv(all, i, vs[i]+dt*k3[i])
			}
			for i := range vs {
				vs[i] += dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
			}
			// Write intent for the incremental freeze: only the
			// membrane block changes per step; drive is read-only after
			// initialization and it is a scalar.
			r.Touch("v")
			r.AllgatherF64Into(all, vs) // network state published for monitoring
			if *it%50 == 0 {
				r.GatherF64Into(0, observed, vs) // periodic observation at the root
			}
		}

		local0 := 0.0
		for _, x := range *v {
			local0 += x
		}
		sum := ccift.Allreduce(r, []float64{local0}, ccift.SumF64)
		return fmt.Sprintf("%.9f", sum[0]), nil
	}
}

// stageState fills out with v + h·k and returns it.
func stageState(out, v, k []float64, h float64) []float64 {
	for i := range v {
		out[i] = v[i] + h*k[i]
	}
	return out
}
