package baseline

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/sim"
)

// TestCLConsistentUnderOwnAssumptions: with system-level state saving
// (record at marker arrival) and arrival-order observation, Chandy-Lamport
// produces a consistent snapshot — zero early receives — across a busy
// exchange, over a simulated network whose jitter (four times its
// latency) reorders frames across senders. This is the baseline working as
// designed.
func TestCLConsistentUnderOwnAssumptions(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		const n, rounds = 3, 20
		cls := make([]*CL, n)
		var mu sync.Mutex

		s, err := sim.New(n, sim.Scenario{Seed: seed, Latency: 100 * time.Microsecond, Jitter: 400 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(n, mpi.Options{NewTransport: s.NewTransport})
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer w.RankDone(r)
				c := w.Comm(r)
				cl := NewCL(c, func() []byte { return []byte{byte(r)} })
				mu.Lock()
				cls[r] = cl
				mu.Unlock()

				for round := 0; round < rounds; round++ {
					if r == 0 && round == rounds/2 {
						cl.StartSnapshot()
					}
					next := (r + 1) % n
					cl.Send(next, 1, []byte{byte(round)})
					m := cl.RecvOrdered()
					if int(m.Data[0]) != round {
						panic(fmt.Sprintf("rank %d round %d: got %d", r, round, m.Data[0]))
					}
				}
				cl.DrainMarkers()
			}(r)
		}
		wg.Wait()
		s.Stop()

		for r, cl := range cls {
			if !cl.Done() {
				t.Fatalf("seed %d: rank %d snapshot incomplete", seed, r)
			}
			if cl.EarlyReceives != 0 {
				t.Fatalf("seed %d: rank %d recorded %d early receives under FIFO observation",
					seed, r, cl.EarlyReceives)
			}
		}
	}
}

// TestCLRecordsChannelState: a message in flight across the snapshot line
// (sent before the sender's snapshot, received after the receiver's) is
// recorded as channel state — Chandy-Lamport's handling of what Section 2
// calls a late message.
func TestCLRecordsChannelState(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	c0, c1 := w.Comm(0), w.Comm(1)
	cl0 := NewCL(c0, func() []byte { return []byte("p0") })
	cl1 := NewCL(c1, func() []byte { return []byte("p1") })

	// Rank 1 sends before its snapshot; the message reaches rank 0's
	// mailbox behind nothing, but rank 0 snapshots before reading it.
	cl1.Send(0, 1, []byte("in-flight"))
	cl0.StartSnapshot() // rank 0 records, marker goes to rank 1

	// Rank 1 sees the marker (its first and only marker), snapshots, and
	// its own marker travels back to rank 0.
	m := cl1.RecvOrdered // not called: rank 1 has no data to receive
	_ = m
	cl1.DrainMarkers()
	if cl1.Recorded == nil {
		t.Fatal("rank 1 should have snapshotted on the marker")
	}

	// Rank 0 now receives the in-flight message: after its own snapshot,
	// before rank 1's marker on that channel → channel state.
	got := cl0.RecvOrdered()
	if string(got.Data) != "in-flight" {
		t.Fatalf("got %q", got.Data)
	}
	cl0.DrainMarkers()

	if len(cl0.ChannelState[1]) != 1 || string(cl0.ChannelState[1][0]) != "in-flight" {
		t.Fatalf("channel state = %v", cl0.ChannelState[1])
	}
	if cl0.EarlyReceives != 0 || cl1.EarlyReceives != 0 {
		t.Fatal("a recorded in-flight message is not an early receive")
	}
	if !cl0.Done() || !cl1.Done() {
		t.Fatal("snapshot incomplete")
	}
}

// TestCLTagMatchingBreaksSnapshot is Section 3.3 made executable: "a
// process can use tag matching to receive messages in a different order
// than as they were sent. Therefore, a protocol that works at the
// application-level cannot assume FIFO communication." The marker is
// overtaken in the matching order, and the snapshot silently records an
// inconsistent state.
func TestCLTagMatchingBreaksSnapshot(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	cl0 := NewCL(w.Comm(0), func() []byte { return []byte("p0") })
	cl1 := NewCL(w.Comm(1), func() []byte { return []byte("p1") })

	// Rank 0 snapshots, then sends a post-snapshot data message. On the
	// wire the marker precedes it (FIFO transport!) — the failure below is
	// purely the application's receive order.
	cl0.StartSnapshot()
	cl0.Send(1, 7, []byte("post-snapshot"))

	// Rank 1's application wants tag 7 first. Tag matching jumps over the
	// queued marker: rank 1 consumes a message its sender sent *after* the
	// snapshot, while rank 1's own snapshot has not happened.
	got := cl1.RecvTag(0, 7)
	if string(got.Data) != "post-snapshot" {
		t.Fatalf("got %q", got.Data)
	}
	if cl1.EarlyReceives != 1 {
		t.Fatalf("EarlyReceives = %d, want 1: the snapshot is inconsistent", cl1.EarlyReceives)
	}

	// The marker is processed afterwards and the snapshot "completes" —
	// nothing in the protocol itself reports the corruption.
	cl1.DrainMarkers()
	cl0.DrainMarkers()
	if !cl1.Done() {
		t.Fatal("rank 1 should believe its snapshot completed")
	}
}

// TestCLDeferredStateSavingBreaksSnapshot is Section 3.1 made executable:
// "a system-level checkpoint may be taken at any time [...] while an
// application-level checkpoint can only be taken when a program executes
// PotentialCheckpoint calls [...] process Q might need to receive an early
// message before it can arrive at a point where it may take a checkpoint."
func TestCLDeferredStateSavingBreaksSnapshot(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	cl0 := NewCL(w.Comm(0), func() []byte { return []byte("p0") })
	cl1 := NewCL(w.Comm(1), func() []byte { return []byte("p1") })
	cl1.DeferSnapshots = true // rank 1 saves state at application level

	cl0.StartSnapshot()
	cl0.Send(1, 7, []byte("needed-to-make-progress"))

	// Rank 1 observes in perfect FIFO order: marker first. But it cannot
	// save state at the marker — it is application-level — and its program
	// must receive the data message before reaching PotentialCheckpoint.
	got := cl1.RecvOrdered()
	if string(got.Data) != "needed-to-make-progress" {
		t.Fatalf("got %q", got.Data)
	}
	cl1.PotentialCheckpoint() // only now can state be saved

	if cl1.EarlyReceives != 1 {
		t.Fatalf("EarlyReceives = %d, want 1: checkpoint scheduling cannot avoid the early message", cl1.EarlyReceives)
	}
	cl0.DrainMarkers()
	if !cl1.Done() || cl1.Recorded == nil {
		t.Fatal("rank 1's deferred snapshot should have completed at PotentialCheckpoint")
	}
}
