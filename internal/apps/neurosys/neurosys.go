// Package neurosys implements the Neurosys benchmark of the paper's
// evaluation (Section 6.1): a neuron-network simulator in which neurons
// excite and inhibit each other via their connections, integrated with the
// Runge-Kutta method; the program is parallelized by assigning each
// processor a block of neurons, and communication consists of 5
// MPI_Allgathers and 1 MPI_Gather per loop iteration — the pattern that
// makes what the protocol adds to a collective visible at small problem
// sizes.
package neurosys

import (
	"fmt"
	"math"

	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/mpi"
)

// Params selects the problem.
type Params struct {
	// K is the neuron-grid edge; the network has K×K neurons (the paper
	// ran 16×16 through 128×128).
	K int
	// Iters is the number of RK4 time steps (the paper ran 3000).
	Iters int
	// Dt is the integration step.
	Dt float64
}

// StateBytesPerRank estimates per-process application state.
func (p Params) StateBytesPerRank(ranks int) int {
	n := p.K * p.K
	return 8 * (n / ranks) * 6
}

// Program builds the simulator. Every rank returns the same checksum of
// the final membrane potentials.
func Program(p Params) engine.Program {
	if p.Dt == 0 {
		p.Dt = 0.01
	}
	return func(r *engine.Rank) (any, error) {
		n := p.K * p.K
		ranks := r.Size()
		if n%ranks != 0 {
			return nil, fmt.Errorf("%w: neurosys: %d neurons not divisible by %d ranks", cerr.ErrProgram, n, ranks)
		}
		local := n / ranks
		lo := r.Rank() * local

		var it int
		v := make([]float64, local)     // membrane potentials (owned block)
		drive := make([]float64, local) // external drive current
		r.Register("it", &it)
		r.Register("v", &v)
		r.Register("drive", &drive)

		if !r.Restarting() {
			for i := range v {
				gi := lo + i
				v[i] = 0.5 * math.Sin(float64(gi)*0.7)
				drive[i] = 0.2 + 0.1*math.Cos(float64(gi)*1.3)
			}
		}

		// dv/dt for the owned block given the full network state: each
		// neuron couples to its four grid neighbours, excited by even
		// neighbours and inhibited by odd ones.
		deriv := func(full []float64, vLoc, out []float64) {
			for i := range vLoc {
				gi := lo + i
				x, y := gi%p.K, gi/p.K
				syn := 0.0
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= p.K || ny < 0 || ny >= p.K {
						continue
					}
					ni := ny*p.K + nx
					w := 0.3
					if ni%2 == 1 {
						w = -0.2
					}
					syn += w * math.Tanh(full[ni])
				}
				out[i] = -vLoc[i] + syn + drive[i]
			}
		}

		k1 := make([]float64, local)
		k2 := make([]float64, local)
		k3 := make([]float64, local)
		k4 := make([]float64, local)
		tmp := make([]float64, local)
		// What the collectives fill: scratch that every step rewrites before
		// it reads it, so it is kept across steps and not registered.
		full := make([]float64, n) // the whole network's state
		act := make([]float64, 1)  // this block's activity
		var acts []float64         // every block's, at the root
		if r.Rank() == 0 {
			acts = make([]float64, ranks)
		}

		axpy := func(dst, a []float64, h float64, b []float64) {
			for i := range dst {
				dst[i] = a[i] + h*b[i]
			}
		}

		for ; it < p.Iters; it++ {
			r.PotentialCheckpoint()

			// RK4: each stage gathers the full network state (4
			// allgathers) …
			r.AllgatherF64Into(full, v)
			deriv(full, v, k1)
			axpy(tmp, v, p.Dt/2, k1)
			r.AllgatherF64Into(full, tmp)
			deriv(full, tmp, k2)
			axpy(tmp, v, p.Dt/2, k2)
			r.AllgatherF64Into(full, tmp)
			deriv(full, tmp, k3)
			axpy(tmp, v, p.Dt, k3)
			r.AllgatherF64Into(full, tmp)
			deriv(full, tmp, k4)
			for i := range v {
				v[i] += p.Dt / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
			}
			// Write intent for incremental freeze: only the membrane block
			// changes per step (drive is read-only after initialization).
			r.Touch("v")
			// … a fifth allgather publishes the updated state, and the
			// root gathers per-block activity statistics.
			r.AllgatherF64Into(full, v)
			act[0] = 0
			for _, x := range full[lo : lo+local] {
				act[0] += math.Abs(x)
			}
			r.GatherF64Into(0, acts, act)
		}

		sum := 0.0
		norm := 0.0
		for _, x := range v {
			sum += x
			norm += x * x
		}
		g := r.AllreduceF64([]float64{sum, norm}, mpi.SumF64)
		return fmt.Sprintf("%.9f/%.9f", g[0], g[1]), nil
	}
}
