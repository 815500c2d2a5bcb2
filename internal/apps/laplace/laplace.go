// Package laplace implements the Laplace-solver benchmark of the paper's
// evaluation (Section 6.1): an n×n grid distributed by block rows; each
// iteration replaces every interior cell by the average of its four
// neighbours, and each processor exchanges border rows with the processor
// "above" and "below" it.
package laplace

import (
	"fmt"
	"math"

	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

// Params selects the problem.
type Params struct {
	// N is the grid edge (the paper ran 512–2048).
	N int
	// Iters is the iteration count (the paper ran 40000; the harness uses
	// fewer, scaled to the checkpoint interval).
	Iters int
}

// StateBytesPerRank estimates per-process application state.
func (p Params) StateBytesPerRank(ranks int) int {
	return 8 * 2 * (p.N/ranks + 2) * p.N
}

const (
	tagUp   = 1 // border row travelling to the rank above
	tagDown = 2 // border row travelling to the rank below
)

// Program builds the Laplace solver. Every rank returns the same global
// checksum.
func Program(p Params) engine.Program {
	return func(r *engine.Rank) (any, error) {
		ranks := r.Size()
		if p.N%ranks != 0 {
			return nil, fmt.Errorf("laplace: N=%d not divisible by %d ranks", p.N, ranks)
		}
		rows := p.N / ranks
		me := r.Rank()
		up, down := me-1, me+1 // neighbours (grid is not periodic)

		// grid and next hold rows+2 rows of n cells: ghost row, owned
		// rows, ghost row.
		var it int
		grid := make([]float64, (rows+2)*p.N)
		next := make([]float64, (rows+2)*p.N)
		r.Register("it", &it)
		r.Register("grid", &grid)
		r.Register("next", &next)

		if !r.Restarting() {
			// Boundary condition: the global top edge is hot (1.0), all
			// else cold; interior seeded with a deterministic ripple.
			for li := 1; li <= rows; li++ {
				gi := me*rows + li - 1
				for j := 0; j < p.N; j++ {
					if gi == 0 {
						grid[li*p.N+j] = 1
					} else {
						grid[li*p.N+j] = 0.01 * math.Sin(float64(gi*31+j*17))
					}
				}
			}
		}

		row := func(g []float64, i int) []float64 { return g[i*p.N : (i+1)*p.N] }

		for ; it < p.Iters; it++ {
			r.PotentialCheckpoint()

			// Halo exchange with Irecv/Isend/Wait, as a real MPI code
			// would write it, every request completed. A border row is
			// sent from the grid's own memory (Isend copies eagerly) and
			// decoded straight into the ghost row, after which its message
			// is recycled: the exchange allocates nothing, and no request
			// outlives the iteration.
			var hUp, hDown, sUp, sDown protocol.Handle
			hasUp, hasDown := up >= 0, down < ranks
			if hasUp {
				hUp = r.Irecv(up, tagDown)
				sUp = r.Isend(up, tagUp, mpi.Wire(row(grid, 1)))
			}
			if hasDown {
				hDown = r.Irecv(down, tagUp)
				sDown = r.Isend(down, tagDown, mpi.Wire(row(grid, rows)))
			}
			if hasUp {
				r.WaitF64Into(hUp, row(grid, 0))
				r.Wait(sUp)
			}
			if hasDown {
				r.WaitF64Into(hDown, row(grid, rows+1))
				r.Wait(sDown)
			}

			for li := 1; li <= rows; li++ {
				gi := me*rows + li - 1
				for j := 0; j < p.N; j++ {
					if gi == 0 || gi == p.N-1 || j == 0 || j == p.N-1 {
						next[li*p.N+j] = grid[li*p.N+j] // fixed boundary
						continue
					}
					next[li*p.N+j] = 0.25 * (grid[(li-1)*p.N+j] + grid[(li+1)*p.N+j] +
						grid[li*p.N+j-1] + grid[li*p.N+j+1])
				}
			}
			// The VDS holds pointers to the slice variables themselves, so
			// the buffer swap is checkpointed transparently.
			grid, next = next, grid
			// Write intent for incremental freeze: both buffers changed
			// this iteration (ghost rows into one, the sweep into the
			// other, then the swap). Harmless when dirty tracking is off.
			r.Touch("grid", "next")
		}

		local := 0.0
		for li := 1; li <= rows; li++ {
			gi := me*rows + li - 1
			for j := 0; j < p.N; j++ {
				local += grid[li*p.N+j] * float64(1+(gi+j)%7)
			}
		}
		global := r.AllreduceF64([]float64{local}, mpi.SumF64)
		return math.Round(global[0]*1e9) / 1e9, nil
	}
}
