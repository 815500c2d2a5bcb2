package mpi

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSendrecvRingRotation(t *testing.T) {
	// Classic ring rotation: everyone sends right, then receives from the
	// left; no ordering discipline needed, because the transport buffers
	// eagerly and a send never blocks (what MPI_Sendrecv, and
	// protocol.Layer.Sendrecv over this substrate, rely on).
	const n = 5
	runRanks(t, n, Options{}, func(c *Comm) {
		me := c.Rank()
		c.Send((me+1)%n, 1, []byte{byte(me)})
		m := c.Recv((me-1+n)%n, 1)
		if int(m.Data[0]) != (me-1+n)%n {
			panic(fmt.Sprintf("rank %d got %d", me, m.Data[0]))
		}
	})
}

func TestSendrecvSelf(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		c.Send(c.Rank(), 3, []byte{42})
		m := c.Recv(c.Rank(), 3)
		if m.Data[0] != 42 {
			panic("self sendrecv lost the payload")
		}
	})
}

func TestScanPrefixSums(t *testing.T) {
	for n := 1; n <= 6; n++ {
		results := make([]float64, n)
		runRanks(t, n, Options{}, func(c *Comm) {
			out := make([]byte, 8)
			c.ScanInto(out, F64Bytes([]float64{float64(c.Rank() + 1)}), SumF64)
			results[c.Rank()] = BytesF64(out)[0]
		})
		for r := 0; r < n; r++ {
			want := float64((r + 1) * (r + 2) / 2) // 1+2+…+(r+1)
			if results[r] != want {
				t.Fatalf("n=%d rank %d: scan = %v, want %v", n, r, results[r], want)
			}
		}
	}
}

func TestScanProperty(t *testing.T) {
	// Scan at the last rank equals Allreduce for associative ops.
	f := func(vals [4]int8) bool {
		const n = 4
		var lastScan, allred float64
		w := NewWorld(n, Options{})
		done := make(chan struct{}, n)
		for r := 0; r < n; r++ {
			go func(r int) {
				defer func() { done <- struct{}{} }()
				c := w.Comm(r)
				x := F64Bytes([]float64{float64(vals[r])})
				scan := make([]byte, 8)
				c.ScanInto(scan, x, SumF64)
				s := BytesF64(scan)[0]
				a := BytesF64(allreduce(c, x, SumF64))[0]
				if r == n-1 {
					lastScan, allred = s, a
				}
			}(r)
		}
		for i := 0; i < n; i++ {
			<-done
		}
		return lastScan == allred
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReducescatterBlocks(t *testing.T) {
	const n = 4
	results := make([][]float64, n)
	runRanks(t, n, Options{}, func(c *Comm) {
		// Rank r contributes blocks [r*10+0, r*10+1, r*10+2, r*10+3].
		blocks := make([]float64, n)
		for i := range blocks {
			blocks[i] = float64(c.Rank()*10 + i)
		}
		out := make([]byte, 8)
		c.ReducescatterInto(out, F64Bytes(blocks), SumF64, 0)
		results[c.Rank()] = BytesF64(out)
	})
	for r := 0; r < n; r++ {
		// Rank r's block: sum over senders s of (s*10 + r).
		want := 0.0
		for s := 0; s < n; s++ {
			want += float64(s*10 + r)
		}
		if len(results[r]) != 1 || results[r][0] != want {
			t.Fatalf("rank %d: %v, want [%v]", r, results[r], want)
		}
	}
}

func TestReducescatterRejectsBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	w := NewWorld(2, Options{})
	w.Comm(0).ReducescatterInto(make([]byte, 4), make([]byte, 9), SumF64, 0) // 9 % 2 != 0
}

func TestReducescatterMatchesReduceThenScatter(t *testing.T) {
	// Property: Reducescatter ≡ Reduce at root followed by Scatter.
	f := func(vals [3]uint8) bool {
		const n = 3
		ok := true
		w := NewWorld(n, Options{})
		done := make(chan struct{}, n)
		for r := 0; r < n; r++ {
			go func(r int) {
				defer func() { done <- struct{}{} }()
				c := w.Comm(r)
				blocks := make([]float64, n)
				for i := range blocks {
					blocks[i] = float64(vals[r]) + float64(i)*0.5
				}
				rs := make([]byte, 8)
				c.ReducescatterInto(rs, F64Bytes(blocks), SumF64, 0)
				red := make([]byte, 8*n) // the root's; ignored elsewhere
				c.ReduceInto(0, red, F64Bytes(blocks), SumF64)
				sc := make([]byte, 8)
				c.ScatterInto(0, sc, red)
				if string(rs) != string(sc) {
					ok = false
				}
			}(r)
		}
		for i := 0; i < n; i++ {
			<-done
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// wordCollectives are the collectives that carry the participants' words:
// each returns what the call handed back to this rank.
var wordCollectives = map[string]func(c *Comm, word uint32) uint32{
	"Barrier": func(c *Comm, word uint32) uint32 { return c.Barrier(word) },
	"Allreduce": func(c *Comm, word uint32) uint32 {
		in := F64Bytes([]float64{float64(c.Rank() + 1)})
		out := make([]byte, len(in))
		seen := c.AllreduceInto(out, in, SumF64, word)
		if n := c.Size(); BytesF64(out)[0] != float64(n*(n+1)/2) {
			panic(fmt.Sprintf("allreduce = %v", BytesF64(out)))
		}
		return seen
	},
	"Allgather": func(c *Comm, word uint32) uint32 {
		out := make([]byte, c.Size())
		seen := c.AllgatherInto(out, []byte{byte(c.Rank())}, word)
		for r, b := range out {
			if int(b) != r {
				panic(fmt.Sprintf("allgather = %v", out))
			}
		}
		return seen
	},
	"Alltoall": func(c *Comm, word uint32) uint32 {
		in := make([]byte, c.Size())
		for i := range in {
			in[i] = byte(c.Rank()*16 + i)
		}
		out := make([]byte, len(in))
		seen := c.AlltoallInto(out, in, word)
		for r, b := range out {
			if int(b) != r*16+c.Rank() {
				panic(fmt.Sprintf("alltoall = %v", out))
			}
		}
		return seen
	},
	"Reducescatter": func(c *Comm, word uint32) uint32 {
		in := make([]float64, c.Size())
		for i := range in {
			in[i] = float64(i)
		}
		out := make([]byte, 8)
		seen := c.ReducescatterInto(out, F64Bytes(in), SumF64, word)
		if BytesF64(out)[0] != float64(c.Rank()*c.Size()) {
			panic(fmt.Sprintf("reducescatter = %v", BytesF64(out)))
		}
		return seen
	},
}

// TestCollectivesBringEveryWordToEveryRank: at every communicator size —
// the butterfly ones and the ones that fall back to rank 0 — each
// participant of a word-carrying collective gets back the OR of all the
// words, its own included, and a sub-communicator's call carries only its
// own members'.
func TestCollectivesBringEveryWordToEveryRank(t *testing.T) {
	for name, coll := range wordCollectives {
		for n := 1; n <= 9; n++ {
			got := make([]uint32, n)
			runRanks(t, n, Options{}, func(c *Comm) {
				got[c.Rank()] = coll(c, 1<<uint(c.Rank()))
				// A second call must not see the first one's words.
				if again := coll(c, 0); again != 0 {
					panic(fmt.Sprintf("%s: a call of all-zero words returned %#x", name, again))
				}
			})
			for r, seen := range got {
				if want := uint32(1)<<uint(n) - 1; seen != want {
					t.Fatalf("%s, %d ranks: rank %d got %#x, want %#x", name, n, r, seen, want)
				}
			}
		}
		const n = 6
		got := make([]uint32, n)
		runRanks(t, n, Options{}, func(c *Comm) {
			sub := c.Split(c.Rank()%2, c.Rank())
			got[c.Rank()] = coll(sub, 1<<uint(c.Rank()))
		})
		for r, seen := range got {
			want := uint32(0b010101)
			if r%2 == 1 {
				want = 0b101010
			}
			if seen != want {
				t.Fatalf("%s on a split communicator: rank %d got %#b, want its own half %#b", name, r, seen, want)
			}
		}
	}
}

// TestIntoFormsRejectAMisSizedResult: the destination of an into-form is
// checked like a peer's payload.
func TestIntoFormsRejectAMisSizedResult(t *testing.T) {
	calls := map[string]func(c *Comm){
		"Allgather":     func(c *Comm) { c.AllgatherInto(make([]byte, 3), []byte{1, 2}, 0) },
		"Allreduce":     func(c *Comm) { c.AllreduceInto(make([]byte, 9), make([]byte, 8), SumF64, 0) },
		"Alltoall":      func(c *Comm) { c.AlltoallInto(make([]byte, 3), make([]byte, 4), 0) },
		"Reduce":        func(c *Comm) { c.ReduceInto(0, make([]byte, 7), make([]byte, 8), SumF64) },
		"Reducescatter": func(c *Comm) { c.ReducescatterInto(make([]byte, 2), make([]byte, 8), SumF64, 0) },
		"Scan":          func(c *Comm) { c.ScanInto(make([]byte, 7), make([]byte, 8), SumF64) },
		"Scatter":       func(c *Comm) { c.ScatterInto(0, make([]byte, 2), []byte{1}) },
		"Gather":        func(c *Comm) { c.GatherInto(0, nil, []byte{1}) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), name+" length mismatch") {
					t.Fatalf("%s: panic %v, want its length mismatch", name, p)
				}
			}()
			call(NewWorld(1, Options{}).Comm(0))
		}()
	}
}
