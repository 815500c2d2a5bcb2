package mpi

import "fmt"

// Collective operations. As in the paper's benchmark codes (whose allReduce
// and allGather are "implemented in terms of point-to-point messages along
// a butterfly tree"), every collective here decomposes into point-to-point
// messages on reserved internal tags. The checkpointing protocol layer sits
// *above* this interface and never sees the internal messages — the
// property Section 4.5 calls out as the reason collective handling stays
// simple.
//
// Each collective has one form, the one that writes into a result the
// caller provides. As with MPI's count arguments, every participant knows
// how long its result is and passes a buffer of that length; a result only
// the root gets (ReduceInto, GatherInto) is ignored on the other ranks. The
// collectives whose message pattern brings something from every participant
// to every participant — Allreduce, Allgather, Alltoall, Reducescatter,
// Barrier — also carry a 32-bit word: each participant contributes one, it
// travels in Message.Header of the collective's own messages, OR-ed with
// whatever the sender has heard so far, and every participant gets back the
// OR of all of them. The word is opaque here. The protocol layer uses it for
// the control information Section 4.5 sends in a collective of its own, so
// that a data collective costs the rounds the unmodified program pays.
//
// A collective's internal messages never leave this file, so it also ends
// their lifetime: every receive below copies or combines the payload into
// the caller's buffer (or the rank's accumulator) and hands the message
// back (World.Release).

// Op combines two equally-sized payloads for reductions: dst = dst ⊕ src.
type Op interface {
	Combine(dst, src []byte)
}

// internal collective tag space; far below any control tags the protocol
// layer reserves.
const collTagBase = -(1 << 30)

func (c *Comm) collTag(seq int64, phase int) int {
	return collTagBase - int(seq%65536)*64 - phase
}

// nextColl advances the per-communicator collective sequence number. All
// ranks call collectives in the same order (an MPI requirement), so the
// sequence numbers agree without communication.
func (c *Comm) nextColl() int64 {
	c.collSeq++
	return c.collSeq
}

// checkLen panics when a collective meets a payload or a result buffer of
// the wrong size: the participants disagree about the call.
func checkLen(coll string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("mpi: %s length mismatch: %d vs %d", coll, got, want))
	}
}

// Barrier blocks until every rank in the communicator has entered it, and
// returns the OR of the participants' words (dissemination algorithm,
// ⌈log2 n⌉ rounds; each round forwards everything heard so far, so the last
// one completes every participant's OR).
func (c *Comm) Barrier(word uint32) uint32 {
	c.world.enter(c.rank)
	seq := c.nextColl()
	n := c.Size()
	me := c.rank
	for k, round := 1, 0; k < n; k, round = k*2, round+1 {
		dst := (me + k) % n
		src := (me - k + n) % n
		c.sendh(dst, c.collTag(seq, round), word, nil)
		m := c.recvInternal(src, c.collTag(seq, round))
		word |= m.Header
		c.world.Release(m)
	}
	return word
}

// BcastInto distributes root's buf into every other rank's buf, which is as
// long (binomial tree).
func (c *Comm) BcastInto(root int, buf []byte) {
	c.world.enter(c.rank)
	c.bcast(root, buf, 0)
}

// bcast copies root's buf into everyone else's and returns root's word
// OR-ed with the caller's.
func (c *Comm) bcast(root int, buf []byte, word uint32) uint32 {
	seq := c.nextColl()
	n := c.Size()
	// Work in a rotated space where root is rank 0 (MPICH-style binomial).
	vrank := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % n
			m := c.recvInternal(parent, c.collTag(seq, 0))
			checkLen("Bcast", len(m.Data), len(buf))
			copy(buf, m.Data)
			word |= m.Header
			c.world.Release(m)
			break
		}
		mask <<= 1
	}
	// mask is now the lowest set bit of vrank (or >= n for the root);
	// relay to children at decreasing offsets.
	mask >>= 1
	for mask > 0 {
		if vrank+mask < n {
			dst := (vrank + mask + root) % n
			c.sendh(dst, c.collTag(seq, 0), word, buf)
		}
		mask >>= 1
	}
	return word
}

// ReduceInto combines every rank's data with op into root's dst (len(data)
// bytes; ignored on the other ranks), over a binomial tree.
func (c *Comm) ReduceInto(root int, dst, data []byte, op Op) {
	c.world.enter(c.rank)
	if c.rank == root {
		checkLen("Reduce", len(dst), len(data))
	} else {
		dst = nil
	}
	c.reduce(root, dst, data, op, 0)
}

// reduce leaves the combination of every rank's data in root's accumulator
// and returns that: acc (len(data) bytes) when the caller brought one, the
// communicator's own otherwise. Only a rank with something to combine
// touches an accumulator — the root, and the interior ranks of the tree for
// their subtree; a leaf forwards data as it is. Root also gets back the OR
// of every word, the others that of their subtree.
func (c *Comm) reduce(root int, acc, data []byte, op Op, word uint32) ([]byte, uint32) {
	seq := c.nextColl()
	n := c.Size()
	vrank := (c.rank - root + n) % n
	combined := false // acc holds this rank's data and its children's so far
	start := func() {
		if acc == nil {
			if cap(c.acc) < len(data) {
				c.acc = make([]byte, len(data))
			}
			acc = c.acc[:len(data)]
		}
		copy(acc, data)
		combined = true
	}
	for mask, round := 1, 0; mask < n; mask, round = mask*2, round+1 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			up := data
			if combined {
				up = acc
			}
			c.sendh(parent, c.collTag(seq, round), word, up)
			return acc, word
		}
		if vrank+mask < n {
			m := c.recvInternal(AnySource, c.collTag(seq, round))
			checkLen("Reduce", len(m.Data), len(data))
			if !combined {
				start()
			}
			op.Combine(acc, m.Data)
			word |= m.Header
			c.world.Release(m)
		}
	}
	if !combined { // a communicator of one
		start()
	}
	return acc, word
}

// AllreduceInto combines every rank's data with op into every rank's dst
// (len(data) bytes), carrying the participants' words. For power-of-two
// communicators it uses recursive doubling (the butterfly of the paper's CG
// code); otherwise it reduces to rank 0 and broadcasts.
func (c *Comm) AllreduceInto(dst, data []byte, op Op, word uint32) uint32 {
	c.world.enter(c.rank)
	checkLen("Allreduce", len(dst), len(data))
	n := c.Size()
	if n&(n-1) != 0 {
		_, word = c.reduce(0, dst, data, op, word)
		return c.bcast(0, dst, word)
	}
	seq := c.nextColl()
	copy(dst, data)
	for mask, round := 1, 0; mask < n; mask, round = mask*2, round+1 {
		partner := c.rank ^ mask
		c.sendh(partner, c.collTag(seq, round), word, dst)
		m := c.recvInternal(partner, c.collTag(seq, round))
		checkLen("Allreduce", len(m.Data), len(dst))
		op.Combine(dst, m.Data)
		word |= m.Header
		c.world.Release(m)
	}
	return word
}

// GatherInto concatenates every rank's equal-sized data in root's dst in
// rank order (Size()·len(data) bytes; ignored on the other ranks).
func (c *Comm) GatherInto(root int, dst, data []byte) {
	c.world.enter(c.rank)
	c.gather(root, dst, data, 0)
}

func (c *Comm) gather(root int, dst, data []byte, word uint32) uint32 {
	seq := c.nextColl()
	n := c.Size()
	if c.rank != root {
		c.sendh(root, c.collTag(seq, 0), word, data)
		return word
	}
	checkLen("Gather", len(dst), len(data)*n)
	copy(dst[root*len(data):], data)
	for i := 0; i < n-1; i++ {
		m := c.recvInternal(AnySource, c.collTag(seq, 0))
		checkLen("Gather", len(m.Data), len(data))
		copy(dst[m.Source*len(data):], m.Data)
		word |= m.Header
		c.world.Release(m)
	}
	return word
}

// Allgather is AllgatherInto a fresh result.
func (c *Comm) Allgather(data []byte) []byte {
	out := make([]byte, len(data)*c.Size())
	c.AllgatherInto(out, data, 0)
	return out
}

// AllgatherInto concatenates every rank's equal-sized data in every rank's
// dst in rank order (Size()·len(data) bytes), carrying the participants'
// words. Power-of-two communicators use recursive doubling (butterfly);
// others gather to rank 0 and broadcast.
func (c *Comm) AllgatherInto(dst, data []byte, word uint32) uint32 {
	c.world.enter(c.rank)
	n := c.Size()
	blk := len(data)
	checkLen("Allgather", len(dst), blk*n)
	if n&(n-1) != 0 {
		word = c.gather(0, dst, data, word)
		return c.bcast(0, dst, word)
	}
	seq := c.nextColl()
	copy(dst[c.rank*blk:], data)
	// Recursive doubling: at the start of the round with offset mask, this
	// rank owns the mask blocks of its aligned group [rank &^ (mask-1),
	// +mask); exchanging groups with the partner doubles the holding.
	for mask, round := 1, 0; mask < n; mask, round = mask*2, round+1 {
		partner := c.rank ^ mask
		myStart := c.rank &^ (mask - 1)
		c.sendh(partner, c.collTag(seq, round), word, dst[myStart*blk:(myStart+mask)*blk])
		m := c.recvInternal(partner, c.collTag(seq, round))
		theirStart := partner &^ (mask - 1)
		checkLen("Allgather", len(m.Data), mask*blk)
		copy(dst[theirStart*blk:], m.Data)
		word |= m.Header
		c.world.Release(m)
	}
	return word
}

// AlltoallInto sends block i of this rank's data to rank i and puts the
// blocks received from every rank in dst (len(data) bytes), in rank order,
// carrying the participants' words. data must divide evenly into Size()
// blocks.
func (c *Comm) AlltoallInto(dst, data []byte, word uint32) uint32 {
	c.world.enter(c.rank)
	seq := c.nextColl()
	n := c.Size()
	if len(data)%n != 0 {
		panic(fmt.Sprintf("mpi: Alltoall payload %d not divisible by %d ranks", len(data), n))
	}
	checkLen("Alltoall", len(dst), len(data))
	blk := len(data) / n
	copy(dst[c.rank*blk:], data[c.rank*blk:(c.rank+1)*blk])
	for i := 1; i < n; i++ {
		to := (c.rank + i) % n
		c.sendh(to, c.collTag(seq, 0), word, data[to*blk:(to+1)*blk])
	}
	seen := word
	for i := 1; i < n; i++ {
		m := c.recvInternal(AnySource, c.collTag(seq, 0))
		checkLen("Alltoall", len(m.Data), blk)
		copy(dst[m.Source*blk:], m.Data)
		seen |= m.Header
		c.world.Release(m)
	}
	return seen
}

// ScatterInto distributes root's data in equal blocks: rank i's dst
// receives block i. data, ignored on the other ranks, must divide evenly
// into Size() blocks at root.
func (c *Comm) ScatterInto(root int, dst, data []byte) {
	c.world.enter(c.rank)
	seq := c.nextColl()
	n := c.Size()
	if c.rank != root {
		m := c.recvInternal(root, c.collTag(seq, 0))
		checkLen("Scatter", len(m.Data), len(dst))
		copy(dst, m.Data)
		c.world.Release(m)
		return
	}
	if len(data)%n != 0 {
		panic(fmt.Sprintf("mpi: Scatter payload %d not divisible by %d ranks", len(data), n))
	}
	blk := len(data) / n
	checkLen("Scatter", len(dst), blk)
	for i := 0; i < n; i++ {
		if i != root {
			c.send(i, c.collTag(seq, 0), data[i*blk:(i+1)*blk])
		}
	}
	copy(dst, data[root*blk:])
}

// recvInternal is a receive that does not count as a user-visible substrate
// operation (it is part of an already-counted collective).
func (c *Comm) recvInternal(src, tag int) *Message {
	if c.world.dead.Load() {
		panic(ErrWorldDead)
	}
	_, m := c.world.tr.Await(c.rank, c.spec1(src, tag))
	return m
}

// ScanInto computes the inclusive prefix reduction into dst (len(data)
// bytes): rank i gets the combination of the data of ranks 0..i (MPI_Scan).
// Implemented as a linear chain, the standard algorithm for modest rank
// counts.
func (c *Comm) ScanInto(dst, data []byte, op Op) {
	c.world.enter(c.rank)
	checkLen("Scan", len(dst), len(data))
	seq := c.nextColl()
	if c.rank == 0 {
		copy(dst, data)
	} else {
		m := c.recvInternal(c.rank-1, c.collTag(seq, 0))
		checkLen("Scan", len(m.Data), len(data))
		// prefix ⊕ own, in that order: Combine folds src into dst, so fold
		// our contribution into the predecessor's prefix (the message's
		// buffer is ours once received).
		op.Combine(m.Data, data)
		copy(dst, m.Data)
		c.world.Release(m)
	}
	if c.rank < c.Size()-1 {
		c.send(c.rank+1, c.collTag(seq, 0), dst)
	}
}

// ReducescatterInto combines equal-sized per-rank blocks across all ranks
// and scatters the result: rank i's dst (len(data)/Size() bytes) receives
// the reduction of everyone's i-th block (MPI_Reduce_scatter_block),
// carrying the participants' words. It reduces at rank 0 over a binomial
// tree (the words ride up with the partial sums), then scatters the blocks
// (their OR rides down). Reduce-then-scatter is the simple algorithm;
// recursive halving is an optimization with identical semantics.
func (c *Comm) ReducescatterInto(dst, data []byte, op Op, word uint32) uint32 {
	c.world.enter(c.rank)
	n := c.Size()
	if len(data)%n != 0 {
		panic(fmt.Sprintf("mpi: Reducescatter: payload %d bytes not divisible by %d ranks", len(data), n))
	}
	blockLen := len(data) / n
	checkLen("Reducescatter", len(dst), blockLen)
	acc, word := c.reduce(0, nil, data, op, word)
	seq := c.nextColl()
	if c.rank == 0 {
		for r := 1; r < n; r++ {
			c.sendh(r, c.collTag(seq, 0), word, acc[r*blockLen:(r+1)*blockLen])
		}
		copy(dst, acc)
		return word
	}
	m := c.recvInternal(0, c.collTag(seq, 0))
	checkLen("Reducescatter", len(m.Data), blockLen)
	copy(dst, m.Data)
	word |= m.Header
	c.world.Release(m)
	return word
}
