package mpi

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
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

var ownershipCases = []struct {
	name string
	call func(c *Comm, round int) []byte
	want func(rank, n, round int) []byte
}{
	{"Barrier",
		func(c *Comm, _ int) []byte { c.Barrier(); return nil },
		func(_, _, _ int) []byte { return nil }},
	{"Bcast",
		func(c *Comm, round int) []byte {
			return c.Bcast(round%c.Size(), F64Bytes(contribution(c.Rank(), round, 3)))
		},
		func(_, n, round int) []byte { return F64Bytes(contribution(round%n, round, 3)) }},
	{"Reduce",
		func(c *Comm, round int) []byte {
			return c.Reduce(round%c.Size(), F64Bytes(contribution(c.Rank(), round, 3)), SumF64)
		},
		func(rank, n, round int) []byte {
			if rank != round%n {
				return nil
			}
			return lanesOf(n, round, 3, sumOf)
		}},
	{"Allreduce",
		func(c *Comm, round int) []byte {
			return c.Allreduce(F64Bytes(contribution(c.Rank(), round, 3)), SumF64)
		},
		func(_, n, round int) []byte {
			return lanesOf(n, round, 3, sumOf)
		}},
	{"Gather",
		func(c *Comm, round int) []byte {
			return c.Gather(round%c.Size(), F64Bytes(contribution(c.Rank(), round, 3)))
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
			return c.Alltoall(F64Bytes(contribution(c.Rank(), round, c.Size())))
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
			return c.Scatter(round%c.Size(), F64Bytes(contribution(c.Rank(), round, c.Size())))
		},
		func(rank, n, round int) []byte {
			return F64Bytes(contribution(round%n, round, n)[rank : rank+1])
		}},
	{"Scan",
		func(c *Comm, round int) []byte {
			return c.Scan(F64Bytes(contribution(c.Rank(), round, 3)), SumF64)
		},
		func(rank, n, round int) []byte {
			return lanesOf(n, round, 3, func(all [][]float64) []float64 { return sumOf(all[:rank+1]) })
		}},
	{"Reducescatter",
		func(c *Comm, round int) []byte {
			return c.Reducescatter(F64Bytes(contribution(c.Rank(), round, c.Size())), SumF64)
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
	{"Sendrecv",
		func(c *Comm, round int) []byte {
			n, me := c.Size(), c.Rank()
			return c.Sendrecv((me+1)%n, 5, F64Bytes(contribution(me, round, 3)), (me-1+n)%n, 5).Data
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
// 0 — and on the halves of a split one, returns what the reference says
// while every released payload is poisoned.
func TestRecycledPayloadsNeverReachACaller(t *testing.T) {
	for n := 1; n <= 9; n++ {
		w := NewWorld(n, Options{})
		w.PoisonReleased()
		runWorld(t, w, ownershipProgram)
	}
	w := NewWorld(6, Options{})
	w.PoisonReleased()
	runWorld(t, w, func(c *Comm) { ownershipProgram(c.Split(c.Rank()%2, c.Rank())) })
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
