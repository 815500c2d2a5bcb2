package mpi

import "fmt"

// Comm is one rank's handle on the world communicator, the only one there
// is: its ranks are the world's ranks (World.Comm).
type Comm struct {
	world *World
	rank  int
	// collSeq numbers collective calls on this communicator. Collectives
	// must be called in the same order by all ranks (an MPI requirement),
	// so the per-rank counters agree without communication.
	collSeq int64
	// one is the spec of this rank's single-threaded one-spec receives (see
	// Comm.spec1), kept so that a receive allocates none.
	one [1]RecvSpec
	// acc is the accumulator of a reduction whose caller brought none (an
	// interior rank of the tree, ReducescatterInto's root): kept, so a
	// steady-state reduction allocates nothing.
	acc []byte
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// World returns the underlying world (used by supervisors and tests).
func (c *Comm) World() *World { return c.world }

func (c *Comm) String() string {
	return fmt.Sprintf("comm(rank=%d/%d)", c.rank, c.world.size)
}
