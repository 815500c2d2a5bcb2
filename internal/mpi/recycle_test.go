package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// The ownership rule of World.Release, tested with the poison seam on: a
// payload a collective has copied out goes back to the free list (and is
// overwritten on the way), a payload handed to the caller never does. Each
// case below runs a call and says what it must return, computed from the
// participants' contributions alone — no message, no free list.

// contribution is what rank contributes to a call of the given round: small
// integers, so a sum is exact in whatever order a tree combines it.
func contribution(rank, round, lanes int) []float64 {
	out := make([]float64, lanes)
	for j := range out {
		out[j] = float64(rank*7 + round*3 + j + 1)
	}
	return out
}

// lanesOf maps every rank's contribution to one vector.
func lanesOf(n, round, lanes int, f func(all [][]float64) []float64) []byte {
	all := make([][]float64, n)
	for r := range all {
		all[r] = contribution(r, round, lanes)
	}
	return F64Bytes(f(all))
}

// sumOf adds the vectors lane by lane; concatOf strings them together.
func sumOf(all [][]float64) []float64 {
	out := make([]float64, len(all[0]))
	for _, xs := range all {
		for j, x := range xs {
			out[j] += x
		}
	}
	return out
}

func concatOf(all [][]float64) (out []float64) {
	for _, xs := range all {
		out = append(out, xs...)
	}
	return out
}

// atRoot is a root-only result buffer: n bytes at root, nil elsewhere.
func atRoot(c *Comm, root, n int) []byte {
	if c.Rank() != root {
		return nil
	}
	return make([]byte, n)
}

var ownershipCases = []struct {
	name string
	call func(c *Comm, round int) []byte
	want func(rank, n, round int) []byte
}{
	{"Barrier",
		func(c *Comm, _ int) []byte { c.Barrier(0); return nil },
		func(_, _, _ int) []byte { return nil }},
	{"Bcast",
		func(c *Comm, round int) []byte {
			buf := F64Bytes(contribution(c.Rank(), round, 3)) // root's goes out, the others' is overwritten
			c.BcastInto(round%c.Size(), buf)
			return buf
		},
		func(_, n, round int) []byte { return F64Bytes(contribution(round%n, round, 3)) }},
	{"Reduce",
		func(c *Comm, round int) []byte {
			dst := atRoot(c, round%c.Size(), 24)
			c.ReduceInto(round%c.Size(), dst, F64Bytes(contribution(c.Rank(), round, 3)), SumF64)
			return dst
		},
		func(rank, n, round int) []byte {
			if rank != round%n {
				return nil
			}
			return lanesOf(n, round, 3, sumOf)
		}},
	{"Allreduce",
		func(c *Comm, round int) []byte {
			return allreduce(c, F64Bytes(contribution(c.Rank(), round, 3)), SumF64)
		},
		func(_, n, round int) []byte {
			return lanesOf(n, round, 3, sumOf)
		}},
	{"Gather",
		func(c *Comm, round int) []byte {
			dst := atRoot(c, round%c.Size(), 24*c.Size())
			c.GatherInto(round%c.Size(), dst, F64Bytes(contribution(c.Rank(), round, 3)))
			return dst
		},
		func(rank, n, round int) []byte {
			if rank != round%n {
				return nil
			}
			return lanesOf(n, round, 3, concatOf)
		}},
	{"Allgather",
		func(c *Comm, round int) []byte {
			return c.Allgather(F64Bytes(contribution(c.Rank(), round, 3)))
		},
		func(_, n, round int) []byte {
			return lanesOf(n, round, 3, concatOf)
		}},
	{"Alltoall",
		func(c *Comm, round int) []byte {
			dst := make([]byte, 8*c.Size())
			c.AlltoallInto(dst, F64Bytes(contribution(c.Rank(), round, c.Size())), 0)
			return dst
		},
		func(rank, n, round int) []byte {
			return lanesOf(n, round, n, func(all [][]float64) (out []float64) {
				for _, xs := range all {
					out = append(out, xs[rank])
				}
				return out
			})
		}},
	{"Scatter",
		func(c *Comm, round int) []byte {
			dst := make([]byte, 8)
			c.ScatterInto(round%c.Size(), dst, F64Bytes(contribution(c.Rank(), round, c.Size())))
			return dst
		},
		func(rank, n, round int) []byte {
			return F64Bytes(contribution(round%n, round, n)[rank : rank+1])
		}},
	{"Scan",
		func(c *Comm, round int) []byte {
			dst := make([]byte, 24)
			c.ScanInto(dst, F64Bytes(contribution(c.Rank(), round, 3)), SumF64)
			return dst
		},
		func(rank, n, round int) []byte {
			return lanesOf(n, round, 3, func(all [][]float64) []float64 { return sumOf(all[:rank+1]) })
		}},
	{"Reducescatter",
		func(c *Comm, round int) []byte {
			dst := make([]byte, 8)
			c.ReducescatterInto(dst, F64Bytes(contribution(c.Rank(), round, c.Size())), SumF64, 0)
			return dst
		},
		func(rank, n, round int) []byte {
			return lanesOf(n, round, n, func(all [][]float64) []float64 {
				out := make([]float64, 1)
				for _, xs := range all {
					out[0] += xs[rank]
				}
				return out
			})
		}},
	// Point-to-point rides along: its messages come from the same free list
	// the collectives feed, and its payloads are the receiver's.
	{"Send+Recv",
		func(c *Comm, round int) []byte {
			n, me := c.Size(), c.Rank()
			c.Send((me+1)%n, 5, F64Bytes(contribution(me, round, 3)))
			return c.Recv((me-1+n)%n, 5).Data
		},
		func(rank, n, round int) []byte { return F64Bytes(contribution((rank-1+n)%n, round, 3)) }},
}

// ownershipProgram runs every case for a few rounds and only then compares:
// each result is held while every later call sends, receives and releases,
// so one that aliases a released message has been poisoned, or recycled into
// somebody else's payload, by the time it is looked at.
func ownershipProgram(c *Comm) {
	const rounds = 4
	var got [][]byte
	for round := 0; round < rounds; round++ {
		for _, oc := range ownershipCases {
			got = append(got, oc.call(c, round))
		}
	}
	for round := 0; round < rounds; round++ {
		for i, oc := range ownershipCases {
			res, want := got[round*len(ownershipCases)+i], oc.want(c.Rank(), c.Size(), round)
			if !bytes.Equal(res, want) {
				panic(fmt.Sprintf("%s, round %d, %d ranks: got %v, want %v", oc.name, round, c.Size(), BytesF64(res), BytesF64(want)))
			}
		}
	}
}

// TestRecycledPayloadsNeverReachACaller: every collective, at every
// communicator size — the butterfly ones and the ones that go through rank
// 0 — returns what the reference says while every released payload is
// poisoned.
func TestRecycledPayloadsNeverReachACaller(t *testing.T) {
	for n := 1; n <= 9; n++ {
		w := NewWorld(n, Options{})
		w.PoisonReleased()
		runWorld(t, w, ownershipProgram)
	}
}

// TestEveryCollectiveGivesBackEveryMessage: one call of a collective
// releases exactly the messages its ranks received — Bcast and Scatter
// too, which once handed theirs to the caller — at every communicator
// size; a point-to-point receive releases none, its payload is the
// caller's.
func TestEveryCollectiveGivesBackEveryMessage(t *testing.T) {
	for _, oc := range ownershipCases {
		for n := 1; n <= 9; n++ {
			var received, released atomic.Int64
			w := NewWorld(n, Options{NewTransport: func(w *World) Transport {
				return &countingTransport{inner: newInprocTransport(w), onAwait: func(*Message) { received.Add(1) }}
			}})
			w.releaseHook = func(*Message) { released.Add(1) }
			runWorld(t, w, func(c *Comm) { oc.call(c, n-1) }) // rooted at the last rank
			want := received.Load()
			if oc.name == "Send+Recv" {
				want = 0
			}
			if got := released.Load(); got != want {
				t.Fatalf("%s at %d ranks: %d messages released of %d received, want %d", oc.name, n, got, received.Load(), want)
			}
		}
	}
}

// TestRollbackStartsFromAnEmptyFreeList: the free list dies with the
// incarnation. Ranks loop over a collective until one of them stop-fails
// and the world is shut down under the others, which are then inside the
// call; nothing they released may be handed out by the world that replaces
// theirs.
func TestRollbackStartsFromAnEmptyFreeList(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	// Holding the first incarnation's messages also keeps the allocator from
	// giving the second one their addresses.
	released := map[*Message]bool{}

	first := NewWorld(n, Options{KillPlan: map[int]int64{3: 40}})
	first.PoisonReleased()
	poison := first.releaseHook
	first.releaseHook = func(m *Message) {
		poison(m)
		mu.Lock()
		released[m] = true
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != ErrKilled && p != ErrWorldDead {
					t.Errorf("rank %d: %v", c.Rank(), p)
				}
			}()
			for round := 0; ; round++ {
				c.Allgather(F64Bytes(contribution(c.Rank(), round, 3)))
			}
		}(first.Comm(r))
	}
	for len(first.Failures()) == 0 {
		runtime.Gosched()
	}
	first.Shutdown()
	wg.Wait()
	if len(released) == 0 {
		t.Fatal("the first incarnation released nothing")
	}

	var reused int
	second := NewWorld(n, Options{NewTransport: func(w *World) Transport {
		return &countingTransport{inner: newInprocTransport(w), onSend: func(m *Message) {
			mu.Lock()
			if released[m] {
				reused++
			}
			mu.Unlock()
		}}
	}})
	second.PoisonReleased()
	runWorld(t, second, ownershipProgram)
	if reused != 0 {
		t.Fatalf("%d messages released in the first incarnation were sent again in the second", reused)
	}
}

// TestIntoFormsAllocateNothing: every collective fills a result its caller
// keeps and recycles its messages and send copies, so once the free list is
// warm a call allocates nothing. At 2 ranks AllocsPerRun, which counts the
// whole process, sees both. Each call is paired with a Barrier: a rooted
// collective's senders do not wait for the root, and would run ahead of the
// releases that refill the free list.
func TestIntoFormsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	const n, runs, blk = 2, 200, 64
	data, blocks := make([]byte, blk), make([]byte, blk*n)
	for _, row := range []struct {
		name string
		call func(c *Comm, dst, all []byte) // dst is blk bytes, all blk·n
	}{
		{"Barrier", func(c *Comm, _, _ []byte) { c.Barrier(0) }},
		{"BcastInto", func(c *Comm, dst, _ []byte) { c.BcastInto(0, dst) }},
		{"ReduceInto", func(c *Comm, dst, _ []byte) { c.ReduceInto(0, dst, data, SumF64) }},
		{"AllreduceInto", func(c *Comm, dst, _ []byte) { c.AllreduceInto(dst, data, SumF64, 0) }},
		{"GatherInto", func(c *Comm, _, all []byte) { c.GatherInto(0, all, data) }},
		{"AllgatherInto", func(c *Comm, _, all []byte) { c.AllgatherInto(all, data, 0) }},
		{"AlltoallInto", func(c *Comm, _, all []byte) { c.AlltoallInto(all, blocks, 0) }},
		{"ScatterInto", func(c *Comm, dst, _ []byte) { c.ScatterInto(0, dst, blocks) }},
		{"ScanInto", func(c *Comm, dst, _ []byte) { c.ScanInto(dst, data, SumF64) }},
		{"ReducescatterInto", func(c *Comm, dst, _ []byte) { c.ReducescatterInto(dst, blocks, SumF64, 0) }},
	} {
		var perRun float64
		runRanks(t, n, Options{}, func(c *Comm) {
			dst, all := make([]byte, blk), make([]byte, blk*n)
			call := func() {
				row.call(c, dst, all)
				c.Barrier(0)
			}
			if c.Rank() == 0 {
				perRun = testing.AllocsPerRun(runs, call)
				return
			}
			for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
				call()
			}
		})
		if perRun != 0 {
			t.Fatalf("%s at %d ranks: %.2f allocations per call, want none", row.name, n, perRun)
		}
	}
}

// TestOnlyInteriorRanksKeepAnAccumulator: in the binomial reduce tree the
// root combines into its caller's dst, an interior rank into the
// accumulator its communicator keeps, and a leaf forwards its data as it
// is, without ever making one.
func TestOnlyInteriorRanksKeepAnAccumulator(t *testing.T) {
	const n = 4 // rank 2 is interior; 1 and 3 are leaves
	var mu sync.Mutex
	kept := make([]bool, n)
	runRanks(t, n, Options{}, func(c *Comm) {
		dst := atRoot(c, 0, 8)
		for i := 0; i < 3; i++ {
			c.ReduceInto(0, dst, F64Bytes([]float64{1}), SumF64)
		}
		mu.Lock()
		kept[c.Rank()] = c.acc != nil
		mu.Unlock()
	})
	if want := []bool{false, false, true, false}; !slices.Equal(kept, want) {
		t.Fatalf("ranks that keep an accumulator: %v, want %v", kept, want)
	}
}
