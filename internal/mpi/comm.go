package mpi

import "fmt"

// Comm is one rank's handle on a communicator: a context id plus an ordered
// group of world ranks. Messages sent on one communicator are invisible to
// receives on another, as in MPI. A world hands out its world communicator
// only (World.Comm, context 0); nothing creates another.
type Comm struct {
	world   *World
	ctx     int64
	members []int // comm rank -> world rank
	myIdx   int   // this process's comm rank
	// collSeq numbers collective calls on this communicator. Collectives
	// must be called in the same order by all members (an MPI requirement),
	// so the per-rank counters agree without communication.
	collSeq int64
	// scratch is the reusable receive-spec buffer for this rank's
	// single-threaded matched receives (see Comm.stamp).
	scratch []RecvSpec
	// acc is the accumulator of a reduction whose caller brought none (an
	// interior rank of the tree, ReducescatterInto's root): kept, so a
	// steady-state reduction allocates nothing.
	acc []byte
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.myIdx }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// World returns the underlying world (used by supervisors and tests).
func (c *Comm) World() *World { return c.world }

func (c *Comm) worldRank(commRank int) int {
	if commRank < 0 || commRank >= len(c.members) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", commRank, len(c.members)))
	}
	return c.members[commRank]
}
