package protocol

import (
	"bytes"
	"fmt"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// WaitInto copies a received payload into the caller's buffer and hands the
// message back to the world's free list. These tests run on poisoned worlds
// (mpi.World.PoisonReleased): a payload read after its message went back —
// by the caller, or by the log a late message is kept in — reads 0xDB.

// poisonedLayers is newTestLayers on a world that poisons what it releases.
func poisonedLayers(t *testing.T, n int, mode Mode, cs *storage.CheckpointStore) []*Layer {
	t.Helper()
	w := mpi.NewWorld(n, mpi.Options{})
	w.PoisonReleased()
	ls := make([]*Layer, n)
	for r := 0; r < n; r++ {
		ls[r] = NewLayer(w.Comm(r), Config{Mode: mode, Store: cs, Debug: true})
	}
	return ls
}

// waitInto receives (src, tag) through Irecv + WaitInto into a buffer of
// the payload's expected length.
func waitInto(l *Layer, src, tag, n int) []byte {
	dst := make([]byte, n)
	l.WaitInto(l.Irecv(src, tag), dst)
	return dst
}

// churn sends and receives a few messages between P and R, so that every
// message released so far is taken off the free list and refilled.
func churn(P, R *Layer) {
	for i := 0; i < 4; i++ {
		P.Send(2, 30, bytes.Repeat([]byte{byte(i)}, 16))
		waitInto(R, 0, 30, 16)
	}
}

// TestWaitIntoOwnsNothingItReleased: Figure 3's three messages — late P→Q,
// early Q→R, intra-epoch P→R — received with WaitInto. Each arrives intact
// in the caller's buffer, the late one's log entry is the log's own copy
// (it is still the payload after the message was poisoned and reused, and
// in the committed log), and after a rollback the replayed late message is
// copied into the caller's buffer from the log, not from the wire.
func TestWaitIntoOwnsNothingItReleased(t *testing.T) {
	cs := storage.NewCheckpointStore(storage.NewMemory())
	ls := poisonedLayers(t, 3, Full, cs)
	P, Q, R := ls[0], ls[1], ls[2]

	P.RequestCheckpoint()
	P.Send(1, 7, []byte("late-payload"))
	Q.PotentialCheckpoint()
	if got := waitInto(Q, 0, 7, 12); string(got) != "late-payload" || Q.Stats.LateLogged != 1 {
		t.Fatalf("late: %q, %d logged", got, Q.Stats.LateLogged)
	}
	Q.Send(2, 8, []byte("early-payload"))
	if got := waitInto(R, 1, 8, 13); string(got) != "early-payload" || R.Stats.EarlyRecorded != 1 {
		t.Fatalf("early: %q, %d recorded", got, R.Stats.EarlyRecorded)
	}
	P.Send(2, 9, []byte("intra"))
	if got := waitInto(R, 0, 9, 5); string(got) != "intra" || R.currentReceiveCount[0] != 1 {
		t.Fatalf("intra: %q, receive count %d", got, R.currentReceiveCount[0])
	}
	churn(P, R)
	if e := Q.log.entries[0]; e.Kind != KindLate || string(e.Data) != "late-payload" {
		t.Fatalf("Q's log entry reads %q after its message was released and reused", e.Data)
	}
	R.PotentialCheckpoint()
	P.PotentialCheckpoint()
	pump(t, ls, cs, 1)

	raw, err := cs.GetLog(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := UnmarshalLog(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.entries) != 1 || string(lg.entries[0].Data) != "late-payload" {
		t.Fatalf("Q's committed log: %+v", lg.entries)
	}

	// Roll back to epoch 1 on a fresh poisoned world. Q re-executes its
	// receive: the sender does not re-send, so the bytes come from the log.
	ls2 := poisonedLayers(t, 3, Full, cs)
	suppress := make([][]uint32, 3)
	for r := 0; r < 3; r++ {
		meta, err := loadRecoveryMeta(cs, 1, r, 3)
		if err != nil {
			t.Fatal(err)
		}
		for sender, set := range meta.EarlyIDs {
			suppress[sender] = append(suppress[sender], set...)
		}
	}
	for r, l := range ls2 {
		if err := l.Restore(1, suppress[r]); err != nil {
			t.Fatal(err)
		}
	}
	Q2 := ls2[1]
	if got := waitInto(Q2, 0, 7, 12); string(got) != "late-payload" || Q2.Stats.ReplayedLate != 1 || Q2.ReplayPending() {
		t.Fatalf("replayed late: %q, %d replayed, replay pending %v", got, Q2.Stats.ReplayedLate, Q2.ReplayPending())
	}
}

// TestWaitIntoOutsideTheProtocol: without the protocol the receive is the
// substrate's, and its message goes back just the same.
func TestWaitIntoOutsideTheProtocol(t *testing.T) {
	ls := poisonedLayers(t, 3, Unmodified, storage.NewCheckpointStore(storage.NewMemory()))
	P, R := ls[0], ls[2]
	var got [][]byte
	for i := 0; i < 6; i++ {
		P.Send(2, 5, []byte(fmt.Sprintf("payload %d", i)))
		got = append(got, waitInto(R, 0, 5, 9))
	}
	for i, g := range got {
		if want := fmt.Sprintf("payload %d", i); string(g) != want {
			t.Fatalf("receive %d: %q, want %q", i, g, want)
		}
	}
}

// TestWaitIntoRejectsAMisSizedBuffer: dst must be exactly as long as the
// payload; anything else panics naming both lengths.
func TestWaitIntoRejectsAMisSizedBuffer(t *testing.T) {
	ls := poisonedLayers(t, 2, Full, storage.NewCheckpointStore(storage.NewMemory()))
	ls[0].Send(1, 3, []byte("twelve bytes"))
	defer func() {
		if p := fmt.Sprint(recover()); !bytes.Contains([]byte(p), []byte("carries 12 bytes")) {
			t.Fatalf("panic %q, want one naming the payload's 12 bytes", p)
		}
	}()
	waitInto(ls[1], 0, 3, 11)
}
