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
// Each collective has one implementation, the form that writes into a
// result the caller provides (AllgatherInto, AllreduceInto, ...); the form
// that returns a fresh slice allocates it and calls that. The collectives
// whose message pattern brings something from every participant to every
// participant — Allreduce, Allgather, Alltoall, Reducescatter, Barrier —
// also carry a 32-bit word: each participant contributes one, it travels in
// Message.Header of the collective's own messages, OR-ed with whatever the
// sender has heard so far, and every participant gets back the OR of all of
// them. The word is opaque here. The protocol layer uses it for the control
// information Section 4.5 sends in a collective of its own, so that a data
// collective costs the rounds the unmodified program pays.
//
// A collective's internal messages never leave this file, so it also ends
// their lifetime: every receive below that has copied or combined the
// payload into the caller's buffer hands the message back (World.Release).
// The two whose result is the payload itself — Bcast and Scatter — do not:
// that buffer is the caller's.

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

// Barrier blocks until every rank in the communicator has entered it.
func (c *Comm) Barrier() { c.BarrierWord(0) }

// BarrierWord is Barrier carrying the participants' words (dissemination
// algorithm, ⌈log2 n⌉ rounds; each round forwards everything heard so far,
// so the last one completes every participant's OR).
func (c *Comm) BarrierWord(word uint32) uint32 {
	c.world.enter(c.members[c.myIdx])
	seq := c.nextColl()
	n := c.Size()
	me := c.myIdx
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

// Bcast distributes root's payload to every rank (binomial tree) and
// returns it.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.world.enter(c.members[c.myIdx])
	data, _ = c.bcast(root, data, nil, 0)
	return data
}

// bcast returns root's payload and root's word OR-ed with the caller's.
// With into nil the payload returned off root is the received message's,
// which thereby belongs to the caller; otherwise it is copied to into
// (len(data) bytes at root) and the message goes back.
func (c *Comm) bcast(root int, data, into []byte, word uint32) ([]byte, uint32) {
	seq := c.nextColl()
	n := c.Size()
	// Work in a rotated space where root is rank 0 (MPICH-style binomial).
	vrank := (c.myIdx - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := (vrank - mask + root) % n
			m := c.recvInternal(parent, c.collTag(seq, 0))
			data = m.Data
			word |= m.Header
			if into != nil {
				checkLen("Bcast", len(m.Data), len(into))
				copy(into, m.Data)
				data = into
				c.world.Release(m)
			}
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
			c.sendh(dst, c.collTag(seq, 0), word, data)
		}
		mask >>= 1
	}
	return data, word
}

// Reduce combines every rank's payload with op, leaving the result at root
// (binomial tree). Non-roots return nil.
func (c *Comm) Reduce(root int, data []byte, op Op) []byte {
	c.world.enter(c.members[c.myIdx])
	acc, _ := c.reduce(root, nil, data, op, 0)
	if c.myIdx != root {
		return nil
	}
	return acc
}

// reduce leaves the combination of every rank's data in root's accumulator
// and returns that: acc (len(data) bytes) when the caller brought one, one
// it allocates otherwise. Only a rank with something to combine touches an
// accumulator — the root, and the interior ranks of the tree for their
// subtree; a leaf forwards data as it is. Root also gets back the OR of
// every word, the others that of their subtree.
func (c *Comm) reduce(root int, acc, data []byte, op Op, word uint32) ([]byte, uint32) {
	seq := c.nextColl()
	n := c.Size()
	vrank := (c.myIdx - root + n) % n
	combined := false // acc holds this rank's data and its children's so far
	start := func() {
		if acc == nil {
			acc = make([]byte, len(data))
		}
		copy(acc, data)
		combined = true
	}
	for mask := 1; mask < n; mask *= 2 {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			up := data
			if combined {
				up = acc
			}
			c.sendh(parent, c.collTag(seq, bitIndex(mask)), word, up)
			return acc, word
		}
		if vrank+mask < n {
			m := c.recvInternal(AnySource, c.collTag(seq, bitIndex(mask)))
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

// Allreduce combines every rank's payload with op and returns the combined
// value on all ranks.
func (c *Comm) Allreduce(data []byte, op Op) []byte {
	out := make([]byte, len(data))
	c.AllreduceInto(out, data, op, 0)
	return out
}

// AllreduceInto is Allreduce into dst (len(data) bytes), carrying the
// participants' words. For power-of-two communicators it uses recursive
// doubling (the butterfly of the paper's CG code); otherwise it reduces to
// rank 0 and broadcasts.
func (c *Comm) AllreduceInto(dst, data []byte, op Op, word uint32) uint32 {
	c.world.enter(c.members[c.myIdx])
	checkLen("Allreduce", len(dst), len(data))
	n := c.Size()
	if n&(n-1) != 0 {
		_, word = c.reduce(0, dst, data, op, word)
		return c.bcastInto(dst, word)
	}
	seq := c.nextColl()
	copy(dst, data)
	for mask, round := 1, 0; mask < n; mask, round = mask*2, round+1 {
		partner := c.myIdx ^ mask
		c.sendh(partner, c.collTag(seq, round), word, dst)
		m := c.recvInternal(partner, c.collTag(seq, round))
		checkLen("Allreduce", len(m.Data), len(dst))
		op.Combine(dst, m.Data)
		word |= m.Header
		c.world.Release(m)
	}
	return word
}

// bcastInto broadcasts rank 0's dst into everyone else's: the second half
// of the collectives that gather or reduce at rank 0 first.
func (c *Comm) bcastInto(dst []byte, word uint32) uint32 {
	_, word = c.bcast(0, dst, dst, word)
	return word
}

// Gather concatenates every rank's equal-sized payload at root in rank
// order. Non-roots return nil.
func (c *Comm) Gather(root int, data []byte) []byte {
	var out []byte
	if c.myIdx == root {
		out = make([]byte, len(data)*c.Size())
	}
	c.GatherInto(root, out, data)
	return out
}

// GatherInto is Gather into root's dst (Size()·len(data) bytes; ignored on
// the other ranks).
func (c *Comm) GatherInto(root int, dst, data []byte) {
	c.world.enter(c.members[c.myIdx])
	c.gather(root, dst, data, 0)
}

func (c *Comm) gather(root int, dst, data []byte, word uint32) uint32 {
	seq := c.nextColl()
	n := c.Size()
	if c.myIdx != root {
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

// Allgather concatenates every rank's equal-sized payload on all ranks in
// rank order.
func (c *Comm) Allgather(data []byte) []byte {
	out := make([]byte, len(data)*c.Size())
	c.AllgatherInto(out, data, 0)
	return out
}

// AllgatherInto is Allgather into dst (Size()·len(data) bytes), carrying
// the participants' words. Power-of-two communicators use recursive
// doubling (butterfly); others gather to rank 0 and broadcast.
func (c *Comm) AllgatherInto(dst, data []byte, word uint32) uint32 {
	c.world.enter(c.members[c.myIdx])
	n := c.Size()
	blk := len(data)
	checkLen("Allgather", len(dst), blk*n)
	if n&(n-1) != 0 {
		word = c.gather(0, dst, data, word)
		return c.bcastInto(dst, word)
	}
	seq := c.nextColl()
	copy(dst[c.myIdx*blk:], data)
	// Recursive doubling: at the start of the round with offset mask, this
	// rank owns the mask blocks of its aligned group [myIdx &^ (mask-1),
	// +mask); exchanging groups with the partner doubles the holding.
	for mask, round := 1, 0; mask < n; mask, round = mask*2, round+1 {
		partner := c.myIdx ^ mask
		myStart := c.myIdx &^ (mask - 1)
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

// Alltoall sends block i of this rank's payload to rank i and returns the
// blocks received from every rank, in rank order. The payload must divide
// evenly into Size() blocks.
func (c *Comm) Alltoall(data []byte) []byte {
	out := make([]byte, len(data))
	c.AlltoallInto(out, data, 0)
	return out
}

// AlltoallInto is Alltoall into dst (len(data) bytes), carrying the
// participants' words.
func (c *Comm) AlltoallInto(dst, data []byte, word uint32) uint32 {
	c.world.enter(c.members[c.myIdx])
	seq := c.nextColl()
	n := c.Size()
	if len(data)%n != 0 {
		panic(fmt.Sprintf("mpi: Alltoall payload %d not divisible by %d ranks", len(data), n))
	}
	checkLen("Alltoall", len(dst), len(data))
	blk := len(data) / n
	copy(dst[c.myIdx*blk:], data[c.myIdx*blk:(c.myIdx+1)*blk])
	for i := 1; i < n; i++ {
		to := (c.myIdx + i) % n
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

// Scatter distributes root's payload in equal blocks: rank i receives block
// i. The payload length at root must divide evenly into Size() blocks.
func (c *Comm) Scatter(root int, data []byte) []byte {
	c.world.enter(c.members[c.myIdx])
	seq := c.nextColl()
	n := c.Size()
	if c.myIdx == root {
		if len(data)%n != 0 {
			panic(fmt.Sprintf("mpi: Scatter payload %d not divisible by %d ranks", len(data), n))
		}
		blk := len(data) / n
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			c.send(i, c.collTag(seq, 0), data[i*blk:(i+1)*blk])
		}
		return append([]byte(nil), data[root*blk:(root+1)*blk]...)
	}
	m := c.recvInternal(root, c.collTag(seq, 0))
	return m.Data
}

// recvInternal is a receive that does not count as a user-visible substrate
// operation (it is part of an already-counted collective).
func (c *Comm) recvInternal(src, tag int) *Message {
	if c.world.dead.Load() {
		panic(ErrWorldDead)
	}
	_, m := c.world.tr.Await(c.members[c.myIdx], c.spec1(RecvSpec{Source: src, Tag: tag}))
	return m
}

func bitIndex(mask int) int {
	i := 0
	for mask > 1 {
		mask >>= 1
		i++
	}
	return i
}

// Additional MPI collective and combined operations: Sendrecv, Scan, and
// Reducescatter. These complete the operation set the paper's MPI context
// assumes; like the rest of the substrate they decompose into point-to-point
// messages below the protocol layer.

// Sendrecv sends to dst with sendTag and receives from src with recvTag in
// one combined operation, deadlock-free regardless of ordering (MPI's
// MPI_Sendrecv). The transport buffers eagerly, so send-then-receive cannot
// block.
func (c *Comm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) *Message {
	c.world.enter(c.members[c.myIdx])
	c.send(dst, sendTag, data)
	return c.recv(src, recvTag)
}

// Scan computes the inclusive prefix reduction: rank i receives the
// combination of the payloads of ranks 0..i (MPI_Scan).
func (c *Comm) Scan(data []byte, op Op) []byte {
	out := make([]byte, len(data))
	c.ScanInto(out, data, op)
	return out
}

// ScanInto is Scan into dst (len(data) bytes). Implemented as a linear
// chain, the standard algorithm for modest rank counts.
func (c *Comm) ScanInto(dst, data []byte, op Op) {
	c.world.enter(c.members[c.myIdx])
	checkLen("Scan", len(dst), len(data))
	seq := c.nextColl()
	if c.myIdx == 0 {
		copy(dst, data)
	} else {
		m := c.recvInternal(c.myIdx-1, c.collTag(seq, 0))
		checkLen("Scan", len(m.Data), len(data))
		// prefix ⊕ own, in that order: Combine folds src into dst, so fold
		// our contribution into the predecessor's prefix (the message's
		// buffer is ours once received).
		op.Combine(m.Data, data)
		copy(dst, m.Data)
		c.world.Release(m)
	}
	if c.myIdx < c.Size()-1 {
		c.send(c.myIdx+1, c.collTag(seq, 0), dst)
	}
}

// Reducescatter combines equal-sized per-rank blocks across all ranks and
// scatters the result: rank i receives the reduction of everyone's i-th
// block (MPI_Reduce_scatter_block). data must be size×blockLen bytes.
func (c *Comm) Reducescatter(data []byte, op Op) []byte {
	out := make([]byte, len(data)/c.Size())
	c.ReducescatterInto(out, data, op, 0)
	return out
}

// ReducescatterInto is Reducescatter into dst (len(data)/Size() bytes),
// carrying the participants' words: reduce at rank 0 over a binomial tree
// (the words ride up with the partial sums), then scatter the blocks (their
// OR rides down). Reduce-then-scatter is the simple algorithm; recursive
// halving is an optimization with identical semantics.
func (c *Comm) ReducescatterInto(dst, data []byte, op Op, word uint32) uint32 {
	c.world.enter(c.members[c.myIdx])
	n := c.Size()
	if len(data)%n != 0 {
		panic(fmt.Sprintf("mpi: Reducescatter: payload %d bytes not divisible by %d ranks", len(data), n))
	}
	blockLen := len(data) / n
	checkLen("Reducescatter", len(dst), blockLen)
	acc, word := c.reduce(0, nil, data, op, word)
	seq := c.nextColl()
	if c.myIdx == 0 {
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
