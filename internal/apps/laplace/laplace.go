// Package laplace implements the Laplace-solver benchmark of the paper's
// evaluation (Section 6.1): an n×n grid distributed by block rows; each
// iteration replaces every interior cell by the average of its four
// neighbours, and each processor exchanges border rows with the processor
// "above" and "below" it.
//
// The solver is written as the paper's programmer writes it: plain source
// in laplace.go.in whose only fault-tolerance provision is a
// PotentialCheckpoint call. laplace.go is what the ccift precompiler emits
// for it; edit laplace.go.in and regenerate with
//
//	go generate ./internal/apps/laplace
//
// TestLaplaceIsThePrecompilersOutput fails while the two disagree.
package laplace

//go:generate go run ccift/cmd/ccift -o laplace.go laplace.go.in

import (
	"fmt"
	"math"

	"ccift/internal/cerr"
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

// StateBytesPerRank estimates the per-process state a checkpoint saves:
// the owned rows of the grid and the two ghost rows. The sweep's target
// buffer is rewritten in full before it is read, so no checkpoint holds it.
func (p Params) StateBytesPerRank(ranks int) int {
	return 8 * (p.N/ranks + 2) * p.N
}

const (
	tagUp   = 1 // border row travelling to the rank above
	tagDown = 2 // border row travelling to the rank below
)

// Program builds the Laplace solver. Every rank returns the same global
// checksum.
func Program(p Params) engine.Program {
	return func(r *engine.Rank) (any, error) {
		if p.N%r.Size() != 0 {
			return nil, fmt.Errorf("%w: laplace: N=%d not divisible by %d ranks", cerr.ErrProgram, p.N, r.Size())
		}
		return solve(r, p.N, p.Iters), nil
	}
}

// solve runs iters sweeps over this rank's rows of an n×n grid and returns
// the global checksum.
func solve(r *engine.Rank, n, iters int) float64 {
	var it int
	var me int = r.Rank()
	var ranks int = r.Size()
	var rows int = n / ranks
	// grid holds the owned rows, top and bot the neighbours' border rows
	// (ghost rows). Each sweep writes all of next before it reads any of
	// it, so no checkpoint needs to save it.
	var grid = make([]float64, rows*n)
	var next = make([]float64, rows*n)
	var top = make([]float64, n)
	var bot = make([]float64, n)
	r.Register("solve.n", &n)
	defer r.Unregister()
	r.Register("solve.iters", &iters)
	defer r.Unregister()
	r.Register("solve.it", &it)
	defer r.Unregister()
	r.Register("solve.me", &me)
	defer r.Unregister()
	r.Register("solve.ranks", &ranks)
	defer r.Unregister()
	r.Register("solve.rows", &rows)
	defer r.Unregister()
	r.Register("solve.grid", &grid)
	defer r.Unregister()
	r.Register("solve.top", &top)
	defer r.Unregister()
	r.Register("solve.bot", &bot)
	defer r.Unregister()
	var ccift_target int
	if r.PS().Resuming() {
		ccift_target = r.PS().Resume()
	}
	switch ccift_target {
	case 1:
		goto ccift_c1
	}

	// Boundary condition: the global top edge is hot (1.0), all else cold;
	// interior seeded with a deterministic ripple.
	for li := 0; li < rows; li++ {
		gi := me*rows + li
		for j := 0; j < n; j++ {
			if gi == 0 {
				grid[li*n+j] = 1
			} else {
				grid[li*n+j] = 0.01 * math.Sin(float64(gi*31+j*17))
			}
		}
	}

ccift_c1:
	for ; it < iters; it++ {
		switch ccift_target {
		case 1:
			ccift_target = 0
			goto ccift_l1
		}
		r.Touch("solve.grid", "solve.top", "solve.bot")
		r.PS().Push(1)
		r.PotentialCheckpoint()
	ccift_l1:
		r.PS().Pop()
		halo(r, grid, top, bot, me-1, me+1, n)
		for li := 0; li < rows; li++ {
			gi := me*rows + li
			above, below := top, bot
			if li > 0 {
				above = row(grid, n, li-1)
			}
			if li < rows-1 {
				below = row(grid, n, li+1)
			}
			for j := 0; j < n; j++ {
				if gi == 0 || gi == n-1 || j == 0 || j == n-1 {
					next[li*n+j] = grid[li*n+j] // fixed boundary
				} else {
					next[li*n+j] = 0.25 * (above[j] + below[j] +
						grid[li*n+j-1] + grid[li*n+j+1])
				}
			}
		}
		// The VDS holds pointers to the slice variables themselves, so the
		// buffer swap is checkpointed transparently.
		grid, next = next, grid
	}

	local := 0.0
	for li := 0; li < rows; li++ {
		gi := me*rows + li
		for j := 0; j < n; j++ {
			local += grid[li*n+j] * float64(1+(gi+j)%7)
		}
	}
	global := r.AllreduceF64([]float64{local}, mpi.SumF64)
	return math.Round(global[0]*1e9) / 1e9
}

// halo exchanges border rows with the ranks up and down (the grid is not
// periodic: an edge rank has one neighbour) with Irecv/Isend/Wait, as a
// real MPI code would write it, every request completed. A border row is
// sent from the grid's own memory (Isend copies eagerly) and decoded
// straight into the ghost row, after which its message is recycled: the
// exchange allocates nothing, and no request outlives the iteration.
func halo(r *engine.Rank, grid, top, bot []float64, up, down, n int) {
	var hUp, hDown, sUp, sDown protocol.Handle
	hasUp, hasDown := up >= 0, down < r.Size()
	rows := len(grid) / n
	if hasUp {
		hUp = r.Irecv(up, tagDown)
		sUp = r.Isend(up, tagUp, mpi.Wire(row(grid, n, 0)))
	}
	if hasDown {
		hDown = r.Irecv(down, tagUp)
		sDown = r.Isend(down, tagDown, mpi.Wire(row(grid, n, rows-1)))
	}
	if hasUp {
		r.WaitF64Into(hUp, top)
		r.Wait(sUp)
	}
	if hasDown {
		r.WaitF64Into(hDown, bot)
		r.Wait(sDown)
	}
}

// row returns row i of a grid of n-cell rows.
func row(g []float64, n, i int) []float64 { return g[i*n : (i+1)*n] }
