package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Comm is one rank's handle on a communicator: a context id plus an ordered
// group of world ranks. Messages sent on one communicator are invisible to
// receives on another, as in MPI.
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

// Dup creates a duplicate communicator with the same group but a new
// context. All members must call Dup collectively and will agree on the
// context id because it is derived from a collectively-agreed counter.
//
// Dup is one of the "persistent opaque object" creation calls whose replay
// reconstructs MPI library state on recovery (Section 5.2).
func (c *Comm) Dup() *Comm {
	ctx := c.agreeContext()
	return &Comm{world: c.world, ctx: ctx, members: append([]int(nil), c.members...), myIdx: c.myIdx}
}

// Split partitions the communicator by color; within each color, ranks are
// ordered by key (ties broken by parent rank). Every member must call Split
// collectively. A negative color yields a nil communicator for that rank.
func (c *Comm) Split(color, key int) *Comm {
	ctx := c.agreeContext()
	// Gather (color, key) from everyone over the parent communicator.
	mine := make([]byte, 16)
	putI64(mine, 0, int64(color))
	putI64(mine, 8, int64(key))
	all := c.Allgather(mine)
	type ck struct{ color, key, rank int }
	var group []ck
	for r := 0; r < c.Size(); r++ {
		col := int(getI64(all, r*16))
		k := int(getI64(all, r*16+8))
		if col == color {
			group = append(group, ck{col, k, r})
		}
	}
	if color < 0 {
		return nil
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	members := make([]int, len(group))
	myIdx := -1
	for i, g := range group {
		members[i] = c.members[g.rank]
		if g.rank == c.myIdx {
			myIdx = i
		}
	}
	// Offset the agreed context by color so sibling sub-communicators do
	// not share a context.
	return &Comm{world: c.world, ctx: ctx + int64(color) + 1, members: members, myIdx: myIdx}
}

// agreeContext has all members agree on a fresh context id: rank 0 of the
// communicator allocates it and broadcasts.
func (c *Comm) agreeContext() int64 {
	var ctx int64
	if c.myIdx == 0 {
		// Context ids are spaced out so Split can offset by color.
		ctx = c.world.ctxCounter.Add(1) << 20
	}
	b := make([]byte, 8)
	putI64(b, 0, ctx)
	c.BcastInto(0, b)
	return getI64(b, 0)
}

func putI64(b []byte, off int, v int64) { binary.LittleEndian.PutUint64(b[off:], uint64(v)) }

func getI64(b []byte, off int) int64 { return int64(binary.LittleEndian.Uint64(b[off:])) }
