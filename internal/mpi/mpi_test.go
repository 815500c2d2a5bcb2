package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// runRanks executes fn concurrently on every rank of a fresh world and
// propagates panics to the test.
func runRanks(t *testing.T, n int, opts Options, fn func(c *Comm)) *World {
	t.Helper()
	w := NewWorld(n, opts)
	runWorld(t, w, fn)
	return w
}

// runWorld runs fn as every rank of w and fails the test with any panic.
func runWorld(t *testing.T, w *World, fn func(c *Comm)) {
	t.Helper()
	n := w.Size()
	var wg sync.WaitGroup
	errs := make(chan any, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Sprintf("rank %d: %v", r, p)
				}
			}()
			fn(w.Comm(r))
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSendRecvBasic(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []byte("hello"))
		} else {
			m := c.Recv(0, 7)
			if string(m.Data) != "hello" || m.Source != 0 || m.Tag != 7 {
				panic(fmt.Sprintf("got %+v", m))
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // mutation after send must not be visible
		} else {
			m := c.Recv(0, 0)
			if m.Data[0] != 1 {
				panic("send did not copy payload")
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	// The receiver asks for tag 2 first even though tag 1 was sent first:
	// application-level non-FIFO delivery via tag matching (Section 3.3).
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("first"))
			c.Send(1, 2, []byte("second"))
		} else {
			m2 := c.Recv(0, 2)
			m1 := c.Recv(0, 1)
			if string(m2.Data) != "second" || string(m1.Data) != "first" {
				panic("tag matching failed")
			}
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	runRanks(t, 3, Options{}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 5, []byte("a"))
		case 1:
			c.Send(2, 6, []byte("b"))
		case 2:
			seen := map[string]bool{}
			for i := 0; i < 2; i++ {
				m := c.Recv(AnySource, AnyTag)
				seen[string(m.Data)] = true
			}
			if !seen["a"] || !seen["b"] {
				panic(fmt.Sprintf("seen=%v", seen))
			}
		}
	})
}

func TestIsendIrecvWait(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			req := c.Isend(1, 3, []byte("x"))
			if m := c.Wait(req); m != nil {
				panic("send wait should return nil message")
			}
		} else {
			req := c.Irecv(0, 3)
			m := c.Wait(req)
			if string(m.Data) != "x" {
				panic("irecv failed")
			}
			// Waiting again on a completed request returns the same message.
			if m2 := c.Wait(req); m2 != m {
				panic("double wait should be idempotent")
			}
		}
	})
}

func TestTestNonblocking(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			m := c.Recv(1, 9) // wait for the go-ahead
			if string(m.Data) != "sent" {
				panic("bad handshake")
			}
		} else {
			req := c.Irecv(0, 4)
			if _, ok := c.Test(req); ok {
				panic("Test should not complete before any send")
			}
			_ = req
			c.Send(0, 9, []byte("sent"))
		}
	})
}

func TestIprobe(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 8, []byte("probe-me"))
			c.Recv(1, 9) // ack
		} else {
			// Wait until the message is visible, then probe and receive.
			for {
				if ok, env := c.Iprobe(0, 8); ok {
					if env.Tag != 8 {
						panic("probe tag")
					}
					break
				}
			}
			m := c.Recv(0, 8)
			if string(m.Data) != "probe-me" {
				panic("probe/recv")
			}
			c.Send(0, 9, nil)
		}
	})
}

func TestSelect(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 20, []byte("ctl"))
		} else {
			idx, m := c.Select([]RecvSpec{
				{Source: 0, Tag: 10},
				{Source: 0, Tag: 20},
			})
			if idx != 1 || string(m.Data) != "ctl" {
				panic(fmt.Sprintf("select idx=%d", idx))
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	runRanks(t, 1, Options{}, func(c *Comm) {
		c.Send(0, 1, []byte("self"))
		m := c.Recv(0, 1)
		if string(m.Data) != "self" {
			panic("self send")
		}
	})
}

func collectiveSizes() []int { return []int{1, 2, 3, 4, 7, 8, 16} }

// allreduce is AllreduceInto a fresh result, carrying no word.
func allreduce(c *Comm, data []byte, op Op) []byte {
	out := make([]byte, len(data))
	c.AllreduceInto(out, data, op, 0)
	return out
}

func TestBarrier(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var mu sync.Mutex
			arrived := 0
			runRanks(t, n, Options{}, func(c *Comm) {
				mu.Lock()
				arrived++
				mu.Unlock()
				c.Barrier(0)
				mu.Lock()
				if arrived != n {
					mu.Unlock()
					panic("barrier released before all ranks arrived")
				}
				mu.Unlock()
			})
		})
	}
}

func TestBcast(t *testing.T) {
	for _, n := range collectiveSizes() {
		for root := 0; root < n; root += max(1, n/3) {
			n, root := n, root
			t.Run(fmt.Sprintf("n=%d root=%d", n, root), func(t *testing.T) {
				runRanks(t, n, Options{}, func(c *Comm) {
					want := fmt.Sprintf("payload-from-%d", root)
					got := make([]byte, len(want))
					if c.Rank() == root {
						copy(got, want)
					}
					c.BcastInto(root, got)
					if string(got) != want {
						panic(fmt.Sprintf("rank %d got %q", c.Rank(), got))
					}
				})
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runRanks(t, n, Options{}, func(c *Comm) {
				data := F64Bytes([]float64{float64(c.Rank() + 1), 1})
				out := F64Bytes([]float64{-1, -1})
				c.ReduceInto(0, out, data, SumF64)
				got := BytesF64(out)
				if c.Rank() == 0 {
					want := float64(n*(n+1)) / 2
					if got[0] != want || got[1] != float64(n) {
						panic(fmt.Sprintf("reduce got %v want [%v %v]", got, want, n))
					}
				} else if got[0] != -1 || got[1] != -1 {
					panic(fmt.Sprintf("a non-root's dst was written: %v", got))
				}
			})
		})
	}
}

func TestAllreduce(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			results := make([][]float64, n)
			runRanks(t, n, Options{}, func(c *Comm) {
				data := F64Bytes([]float64{float64(c.Rank() + 1)})
				results[c.Rank()] = BytesF64(allreduce(c, data, SumF64))
			})
			want := float64(n*(n+1)) / 2
			for r, got := range results {
				if got[0] != want {
					t.Fatalf("rank %d: got %v want %v", r, got[0], want)
				}
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	runRanks(t, 8, Options{}, func(c *Comm) {
		out := allreduce(c, F64Bytes([]float64{float64(c.Rank())}), MaxF64)
		if BytesF64(out)[0] != 7 {
			panic("max")
		}
	})
}

// bAnd is the bytewise AND; with 0/1 bytes it is a logical conjunction.
var bAnd Op = opFunc(func(dst, src []byte) {
	for i := range dst {
		dst[i] &= src[i]
	}
})

func TestAllreduceBAnd(t *testing.T) {
	// Conjunction of flags: exactly what the protocol layer's amLogging
	// exchange needs.
	runRanks(t, 4, Options{}, func(c *Comm) {
		flag := byte(1)
		if c.Rank() == 2 {
			flag = 0
		}
		out := allreduce(c, []byte{flag}, bAnd)
		if out[0] != 0 {
			panic("conjunction should be false")
		}
	})
}

func TestGather(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runRanks(t, n, Options{}, func(c *Comm) {
				data := []byte{byte(c.Rank()), byte(c.Rank() * 2)}
				var out []byte
				if c.Rank() == 0 {
					out = make([]byte, 2*n)
				}
				c.GatherInto(0, out, data)
				for r := 0; r < len(out)/2; r++ {
					if out[2*r] != byte(r) || out[2*r+1] != byte(2*r) {
						panic(fmt.Sprintf("gather out=%v", out))
					}
				}
			})
		})
	}
}

func TestAllgather(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runRanks(t, n, Options{}, func(c *Comm) {
				data := F64Bytes([]float64{float64(c.Rank()), float64(c.Rank() * 10)})
				out := make([]byte, len(data)*n)
				c.AllgatherInto(out, data, 0)
				all := BytesF64(out)
				for r := 0; r < n; r++ {
					if all[2*r] != float64(r) || all[2*r+1] != float64(10*r) {
						panic(fmt.Sprintf("rank %d allgather=%v", c.Rank(), all))
					}
				}
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runRanks(t, n, Options{}, func(c *Comm) {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(c.Rank()*16 + i)
				}
				out := make([]byte, n)
				c.AlltoallInto(out, data, 0)
				for i := range out {
					if out[i] != byte(i*16+c.Rank()) {
						panic(fmt.Sprintf("rank %d alltoall=%v", c.Rank(), out))
					}
				}
			})
		})
	}
}

func TestScatter(t *testing.T) {
	for _, n := range collectiveSizes() {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			runRanks(t, n, Options{}, func(c *Comm) {
				var data []byte
				if c.Rank() == 0 {
					data = make([]byte, n)
					for i := range data {
						data[i] = byte(i + 1)
					}
				}
				out := make([]byte, 1)
				c.ScatterInto(0, out, data)
				if len(out) != 1 || out[0] != byte(c.Rank()+1) {
					panic(fmt.Sprintf("rank %d scatter=%v", c.Rank(), out))
				}
			})
		})
	}
}

func TestKillPlanStopsRank(t *testing.T) {
	w := NewWorld(2, Options{KillPlan: map[int]int64{1: 2}})
	var wg sync.WaitGroup
	wg.Add(2)
	var rank1Panic any
	go func() { // rank 0: sends forever until world dies
		defer wg.Done()
		defer func() { recover() }()
		c := w.Comm(0)
		for {
			c.Send(1, 1, nil)
		}
	}()
	go func() { // rank 1: fails at its second operation
		defer wg.Done()
		defer func() { rank1Panic = recover() }()
		c := w.Comm(1)
		c.Recv(0, 1)
		c.Recv(0, 1) // second op: killed here
		panic("unreachable")
	}()
	// Wait until the failure is observed, then shut the world down.
	for len(w.Failures()) == 0 {
	}
	w.Shutdown()
	wg.Wait()
	if rank1Panic != ErrKilled {
		t.Fatalf("rank 1 panic = %v", rank1Panic)
	}
	if fs := w.Failures(); len(fs) != 1 || fs[0] != 1 {
		t.Fatalf("failures = %v", fs)
	}
}

func TestShutdownUnblocksReceivers(t *testing.T) {
	w := NewWorld(2, Options{})
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		w.Comm(0).Recv(1, 1) // blocks forever: rank 1 never sends
		done <- nil
	}()
	w.Shutdown()
	if p := <-done; p != ErrWorldDead {
		t.Fatalf("panic = %v", p)
	}
}

func TestSendToKilledRankVanishes(t *testing.T) {
	w := NewWorld(2, Options{})
	w.Kill(1)
	c := w.Comm(0)
	c.Send(1, 1, []byte("lost")) // must not block or panic
	if got := w.boxes[1].pending(); got != 0 {
		t.Fatalf("killed rank queued %d messages", got)
	}
}

func TestF64RoundTrip(t *testing.T) {
	f := func(xs []float64) bool {
		return reflect.DeepEqual(BytesF64(F64Bytes(xs)), append([]float64{}, xs...)) ||
			(len(xs) == 0 && len(BytesF64(F64Bytes(xs))) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestI64RoundTrip(t *testing.T) {
	f := func(xs []int64) bool {
		back := Unpacked[int64](Packed(xs))
		if len(back) != len(xs) {
			return false
		}
		for i := range xs {
			if back[i] != xs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpCounting(t *testing.T) {
	w := NewWorld(2, Options{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		c.Send(1, 1, nil)
		c.Send(1, 1, nil)
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		c.Recv(0, 1)
		c.Recv(0, 1)
	}()
	wg.Wait()
	if w.OpCount(0) != 2 || w.OpCount(1) != 2 {
		t.Fatalf("op counts = %d, %d", w.OpCount(0), w.OpCount(1))
	}
}

func TestCollectiveCountsAsOneOp(t *testing.T) {
	w := NewWorld(4, Options{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			allreduce(c, F64Bytes([]float64{1}), SumF64)
		}(r)
	}
	wg.Wait()
	for r := 0; r < 4; r++ {
		if w.OpCount(r) != 1 {
			t.Fatalf("rank %d op count = %d, want 1", r, w.OpCount(r))
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
