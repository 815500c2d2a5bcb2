package baseline

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// runRanks executes fn on every rank of a fresh world, propagating panics.
func runRanks(t *testing.T, n int, fn func(c *mpi.Comm)) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(n, mpi.Options{})
	var wg sync.WaitGroup
	errs := make(chan string, n)
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
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	return w
}

func TestBlockingCheckpointRoundTrip(t *testing.T) {
	store := storage.NewCheckpointStore(storage.NewMemory())
	const n = 4
	crossed := make([]int, n)

	runRanks(t, n, func(c *mpi.Comm) {
		b := NewBlocking(c, store)
		state := []byte(fmt.Sprintf("state-of-%d", c.Rank()))
		x, err := b.Checkpoint(state)
		if err != nil {
			panic(err)
		}
		crossed[c.Rank()] = x
		got, epoch, err := b.Restore()
		if err != nil {
			panic(err)
		}
		if epoch != 1 || !bytes.Equal(got, state) {
			panic(fmt.Sprintf("rank %d restored epoch=%d state=%q", c.Rank(), epoch, got))
		}
	})
	for r, x := range crossed {
		if x != 0 {
			t.Fatalf("rank %d observed %d crossing messages in a quiescent checkpoint", r, x)
		}
	}
}

func TestBlockingEpochsAdvance(t *testing.T) {
	store := storage.NewCheckpointStore(storage.NewMemory())
	runRanks(t, 2, func(c *mpi.Comm) {
		b := NewBlocking(c, store)
		for i := 1; i <= 3; i++ {
			if _, err := b.Checkpoint([]byte{byte(i)}); err != nil {
				panic(err)
			}
			if b.Epoch != i {
				panic(fmt.Sprintf("epoch %d after %d checkpoints", b.Epoch, i))
			}
		}
	})
	if e, ok, _ := store.Committed(); !ok || e != 3 {
		t.Fatalf("committed = %d, %v", e, ok)
	}
}

// TestBlockingMissesCrossBarrierMessages is the Section 1.2 failure, made
// executable: "this solution can fail for some MPI programs since MPI
// allows messages to cross barriers. These messages would not be saved with
// the global checkpoint."
//
// Rank 0 sends a message and immediately enters the checkpoint; rank 1
// enters the checkpoint without receiving it and receives it only
// afterwards. The message crosses the barrier: rank 0's saved state has
// already sent it (no re-send on recovery), rank 1's saved state has not
// yet received it (it still expects one). Recovery from this checkpoint
// loses the message.
func TestBlockingMissesCrossBarrierMessages(t *testing.T) {
	store := storage.NewCheckpointStore(storage.NewMemory())
	payload := []byte("crosses-the-barrier")
	crossed := make([]int, 2)

	runRanks(t, 2, func(c *mpi.Comm) {
		b := NewBlocking(c, store)
		if c.Rank() == 0 {
			c.Send(1, 7, payload)
		}
		x, err := b.Checkpoint([]byte(fmt.Sprintf("sent=%v", c.Rank() == 0)))
		if err != nil {
			panic(err)
		}
		crossed[c.Rank()] = x
		if c.Rank() == 1 {
			m := c.Recv(0, 7) // the original run still works …
			if !bytes.Equal(m.Data, payload) {
				panic("bad payload")
			}
		}
	})

	// … but the checkpoint is inconsistent: rank 1 saw the message cross.
	if crossed[1] != 1 {
		t.Fatalf("rank 1 observed %d crossing messages, want 1", crossed[1])
	}

	// Recovery: a fresh world restores both ranks from the committed
	// checkpoint. The crossing message exists nowhere — not in any mailbox
	// (the old world is gone), not in the checkpoint (blocking checkpointing
	// saved no message state). Rank 1, whose restored state still expects
	// it, would block forever; the probe stands in for that hang.
	w2 := mpi.NewWorld(2, mpi.Options{})
	c1 := w2.Comm(1)
	b1 := NewBlocking(c1, store)
	state, _, err := b1.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "sent=false" {
		t.Fatalf("rank 1 restored state %q", state)
	}
	if ok, _ := c1.Iprobe(0, 7); ok {
		t.Fatal("the crossing message cannot exist after recovery, yet a probe found it")
	}
}

// TestProtocolLogsWhatBlockingLoses runs the same message pattern under the
// C3 protocol layer: the message that blocking checkpointing loses is a
// late message there, logged with the global checkpoint and replayed on
// recovery. This is the paper's motivation for the protocol in one test.
func TestProtocolLogsWhatBlockingLoses(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	store := storage.NewCheckpointStore(storage.NewMemory())
	mk := func(r int) *protocol.Layer {
		return protocol.NewLayer(w.Comm(r), protocol.Config{Mode: protocol.Full, Store: store, Debug: true, EveryN: 1})
	}
	P, Q := mk(0), mk(1)

	P.Send(1, 7, []byte("crosses-the-checkpoint")) // sent in epoch 0
	P.PotentialCheckpoint()                        // EveryN 1: the initiator's first call starts a global checkpoint
	P.PotentialCheckpoint()                        // P checkpoints; the message is now in flight across the line
	Q.PotentialCheckpoint()                        // Q checkpoints without having received it
	if got := Q.Recv(0, 7); string(got.Data) != "crosses-the-checkpoint" {
		t.Fatalf("Q received %q", got.Data)
	}
	if Q.Stats.LateLogged != 1 {
		t.Fatalf("LateLogged = %d, want 1: the crossing message must be in Q's log", Q.Stats.LateLogged)
	}
}
