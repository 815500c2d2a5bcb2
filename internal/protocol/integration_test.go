package protocol

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// Protocol-level integration tests: multi-rank goroutine scenarios driven
// directly through Layer (no engine supervisor), covering the event log,
// request pseudo-handles, and full protocol rounds under live traffic.

// runLayers executes fn concurrently on freshly built layers and waits.
func runLayers(t *testing.T, n int, mode Mode, fn func(l *Layer)) (*storage.CheckpointStore, []*Layer) {
	t.Helper()
	ls, cs, _ := newTestLayers(t, n, mode)
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for _, l := range ls {
		wg.Add(1)
		go func(l *Layer) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Sprintf("rank %d: %v", l.Rank(), p)
				}
			}()
			fn(l)
		}(l)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	return cs, ls
}

// TestFullRoundUnderTraffic drives two complete global checkpoints while
// every rank continuously exchanges ring messages, then verifies commit,
// log persistence, and count bookkeeping.
func TestFullRoundUnderTraffic(t *testing.T) {
	const n, iters = 4, 40
	cs, ls := runLayers(t, n, Full, func(l *Layer) {
		me := l.Rank()
		next, prev := (me+1)%n, (me-1+n)%n
		for it := 0; it < iters; it++ {
			if me == 0 && (it == 5 || it == 25) {
				l.requestCheckpoint()
			}
			l.PotentialCheckpoint()
			l.Send(next, 1, []byte{byte(it)})
			m := l.Recv(prev, 1)
			if m.Data[0] != byte(it) {
				panic(fmt.Sprintf("iteration skew: got %d want %d", m.Data[0], it))
			}
		}
		// Drive the protocol to completion.
		for i := 0; i < 200; i++ {
			l.serviceControl()
		}
	})
	e, ok, err := cs.Committed()
	if err != nil || !ok || e < 1 {
		t.Fatalf("committed = %d, %v, %v", e, ok, err)
	}
	for r, l := range ls {
		if l.Epoch() < 1 {
			t.Fatalf("rank %d stuck in epoch %d", r, l.Epoch())
		}
		if l.Stats.MessagesSent != iters {
			t.Fatalf("rank %d sent %d messages", r, l.Stats.MessagesSent)
		}
	}
	// Every rank's log for the committed epoch must be loadable.
	for r := 0; r < n; r++ {
		if _, err := cs.GetLog(e, r); err != nil {
			t.Fatalf("rank %d log: %v", r, err)
		}
	}
}

// TestNondetEventLogAndReplay: decisions drawn through NondetBytes while
// logging are recorded, and a restored layer replays them in order before
// generating fresh ones.
func TestNondetEventLogAndReplay(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]

	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	if !P.Logging() {
		t.Fatal("P should be logging")
	}
	var orig [][]byte
	for i := 0; i < 3; i++ {
		orig = append(orig, P.NondetBytes(func() []byte { return []byte{byte(100 + i), byte(i)} }))
	}
	if P.Stats.EventsLogged != 3 {
		t.Fatalf("EventsLogged = %d", P.Stats.EventsLogged)
	}
	pump(t, ls, cs, 1)

	// Restore P; the same three draws must replay identically even though
	// the generator now returns different values.
	w2 := mpi.NewWorld(2, mpi.Options{})
	P2 := NewLayer(w2.Comm(0), Config{Mode: Full, Store: cs, Debug: true})
	if err := P2.RestoreFrom(recoverySlices(t, cs, 1, 2)[0], nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got := P2.NondetBytes(func() []byte { return []byte{99, 99, 99} })
		if !bytes.Equal(got, orig[i]) {
			t.Fatalf("replayed draw %d = %v, want %v", i, got, orig[i])
		}
	}
	// The log is exhausted: the next draw is live.
	if got := P2.NondetBytes(func() []byte { return []byte{42} }); !bytes.Equal(got, []byte{42}) {
		t.Fatalf("post-replay draw = %v", got)
	}
}

// TestNondetInactiveBypasses: in Unmodified mode the generator runs
// directly.
func TestNondetInactiveBypasses(t *testing.T) {
	ls, _, _ := newTestLayers(t, 1, Unmodified)
	if got := ls[0].NondetBytes(func() []byte { return []byte{7} }); !bytes.Equal(got, []byte{7}) {
		t.Fatalf("got %v", got)
	}
	if ls[0].Stats.EventsLogged != 0 {
		t.Fatal("unmodified mode logged an event")
	}
}

// TestRequestHandlesAcrossRestore: a pre-checkpoint Isend handle waits
// instantly after restore; a pre-checkpoint Irecv handle re-matches.
func TestRequestHandlesAcrossRestore(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]

	sendH := P.Isend(1, 1, []byte("posted-before-ckpt"))
	recvH := Q.Irecv(0, 1)

	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	// Q receives the message while logging: it is late, in Q's log.
	if m := Q.Wait(recvH); string(m.Data) != "posted-before-ckpt" {
		t.Fatalf("got %q", m.Data)
	}
	if P.Wait(sendH) != nil {
		t.Fatal("send wait should return nil")
	}
	pump(t, ls, cs, 1)

	// Restore: the request records were saved with the checkpoint (the
	// handles were live at checkpoint time), and the logged late message
	// satisfies the re-initialized Irecv pseudo-handle immediately.
	w2 := mpi.NewWorld(2, mpi.Options{})
	P2 := NewLayer(w2.Comm(0), Config{Mode: Full, Store: cs, Debug: true})
	Q2 := NewLayer(w2.Comm(1), Config{Mode: Full, Store: cs, Debug: true})
	recs := recoverySlices(t, cs, 1, 2)
	if err := P2.RestoreFrom(recs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := Q2.RestoreFrom(recs[1], nil); err != nil {
		t.Fatal(err)
	}
	if m := Q2.Wait(recvH); string(m.Data) != "posted-before-ckpt" {
		t.Fatalf("restored wait got %q", m.Data)
	}
	if P2.Wait(sendH) != nil {
		t.Fatal("restored send wait should return nil")
	}
}

// TestTestPollsWithoutBlocking covers the Test path: not-ready, then ready.
func TestTestPollsWithoutBlocking(t *testing.T) {
	ls, _, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]

	h := Q.Irecv(0, 5)
	if _, ok := Q.Test(h); ok {
		t.Fatal("Test completed before any send")
	}
	P.Send(1, 5, []byte("now"))
	m, ok := Q.Test(h)
	if !ok || string(m.Data) != "now" {
		t.Fatalf("Test: ok=%v m=%v", ok, m)
	}
	// Send-side handles complete instantly.
	sh := P.Isend(1, 6, nil)
	if _, ok := P.Test(sh); !ok {
		t.Fatal("Isend handle should test complete")
	}
	Q.Recv(0, 6)
}

// TestCountConservation is a property over random ring schedules: after a
// full protocol round, for every ordered pair the receiver's total receive
// count equals the sender's send count — Figure 4's bookkeeping invariant.
func TestCountConservation(t *testing.T) {
	f := func(seedRaw uint8, itersRaw uint8) bool {
		iters := int(itersRaw%20) + 10
		// The request must land early enough that every rank reaches a
		// PotentialCheckpoint after hearing it (ring skew is at most a
		// couple of iterations); a request at the very end legitimately
		// never commits — the program finished first.
		ckptAt := int(seedRaw) % (iters - 5)
		const n = 3
		ok := true
		cs, ls := runLayersQuiet(n, Full, func(l *Layer) {
			me := l.Rank()
			next, prev := (me+1)%n, (me-1+n)%n
			for it := 0; it < iters; it++ {
				if me == 0 && it == ckptAt {
					l.requestCheckpoint()
				}
				l.PotentialCheckpoint()
				l.Send(next, 1, []byte{byte(it)})
				l.Recv(prev, 1)
			}
			// Service control until the commit lands (a fixed poll count
			// can lose the race against the stoppedLogging chain under
			// -race scheduling); the deadline keeps a genuine protocol
			// bug from hanging the property.
			deadline := time.Now().Add(5 * time.Second)
			for {
				l.serviceControl()
				if _, committed, _ := l.cfg.Store.Committed(); committed || time.Now().After(deadline) {
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
		if _, committed, _ := cs.Committed(); !committed {
			return false
		}
		for _, l := range ls {
			if l.Stats.MessagesSent != int64(iters) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// runLayersQuiet is runLayers without the testing.T plumbing, for
// property functions.
func runLayersQuiet(n int, mode Mode, fn func(l *Layer)) (*storage.CheckpointStore, []*Layer) {
	w := mpi.NewWorld(n, mpi.Options{})
	cs := storage.NewCheckpointStore(storage.NewMemory())
	ls := make([]*Layer, n)
	for r := 0; r < n; r++ {
		ls[r] = NewLayer(w.Comm(r), Config{Mode: mode, Store: cs})
	}
	var wg sync.WaitGroup
	for _, l := range ls {
		wg.Add(1)
		go func(l *Layer) {
			defer wg.Done()
			fn(l)
		}(l)
	}
	wg.Wait()
	return cs, ls
}

// TestOverlappingCheckpointRefused: the initiator must not start a second
// global checkpoint while one is in progress (the paper's standing
// assumption in Section 2).
func TestOverlappingCheckpointRefused(t *testing.T) {
	ls, _, _ := newTestLayers(t, 2, Full)
	P := ls[0]
	P.requestCheckpoint()
	if !P.CheckpointInProgress() {
		t.Fatal("first request should start the protocol")
	}
	target := P.m.init.target
	P.requestCheckpoint() // must be a no-op
	if P.m.init.target != target {
		t.Fatal("second request changed the in-progress target")
	}
}

// TestSendNegativeTagPanics: application tags must be non-negative (the
// layer reserves negative tags for control traffic).
func TestSendNegativeTagPanics(t *testing.T) {
	ls, _, _ := newTestLayers(t, 2, Full)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ls[0].Send(1, -3, nil)
}

// TestRestoreMissingEpochFails: restoring an uncommitted epoch reports a
// useful error instead of corrupting state.
func TestRestoreMissingEpochFails(t *testing.T) {
	ls, _, _ := newTestLayers(t, 1, Full)
	if err := ls[0].RestoreFrom(&RankRecovery{Epoch: 9}, nil); err == nil {
		t.Fatal("restore of missing epoch succeeded")
	}
}

// TestLogRoundTripThroughStore: finalized logs survive storage and parse
// back with identical entries.
func TestLogRoundTripThroughStore(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]
	P.requestCheckpoint()
	P.Send(1, 1, bytes.Repeat([]byte{7}, 100))
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	Q.Recv(0, 1) // late: logged
	pump(t, ls, cs, 1)

	raw, err := cs.GetLog(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := UnmarshalLog(raw)
	if err != nil {
		t.Fatal(err)
	}
	if lg.Len() != 1 {
		t.Fatalf("log has %d entries", lg.Len())
	}
}

// TestIprobe: probing sees queued messages without consuming them,
// including through replay (logged late messages report as available).
func TestIprobe(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]

	if ok, _, _ := Q.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
		t.Fatal("probe matched on an empty mailbox")
	}
	P.Send(1, 9, []byte("queued"))
	ok, src, tag := Q.Iprobe(mpi.AnySource, mpi.AnyTag)
	if !ok || src != 0 || tag != 9 {
		t.Fatalf("probe = %v %d %d", ok, src, tag)
	}
	// Still there: probes do not consume.
	if m := Q.Recv(0, 9); string(m.Data) != "queued" {
		t.Fatalf("recv after probe got %q", m.Data)
	}

	// Late-message probe across recovery: log a late message, restore, and
	// probe before receiving.
	P.Send(1, 7, []byte("late"))
	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	Q.Recv(0, 7)
	pump(t, ls, cs, 1)

	w2 := mpi.NewWorld(2, mpi.Options{})
	Q2 := NewLayer(w2.Comm(1), Config{Mode: Full, Store: cs, Debug: true})
	if err := Q2.RestoreFrom(recoverySlices(t, cs, 1, 2)[1], nil); err != nil {
		t.Fatal(err)
	}
	ok, src, tag = Q2.Iprobe(0, 7)
	if !ok || src != 0 || tag != 7 {
		t.Fatalf("replay probe = %v %d %d", ok, src, tag)
	}
	if m := Q2.Recv(0, 7); string(m.Data) != "late" {
		t.Fatalf("replayed recv got %q", m.Data)
	}
}

// TestPoisonedControlWordsAreImpossible: a control message whose word no
// peer can have sent — here a recycled payload's 0xDB poison — is an
// impossible event that a Debug layer reports, naming the rank, the source
// and the message, instead of ignoring it and waiting for a word that never
// comes.
func TestPoisonedControlWordsAreImpossible(t *testing.T) {
	poison := bytes.Repeat([]byte{0xDB}, 16)
	for _, c := range []struct {
		tag, src, dst int
		name          string
	}{
		{tagPleaseCheckpoint, 0, 1, "pleaseCheckpoint"},
		{tagMySendCount, 0, 1, "mySendCount"},
		{tagStopLogging, 0, 1, "stopLogging"},
		{tagReadyToStop, 1, 0, "readyToStopLogging"},
		{tagStoppedLogging, 1, 0, "stoppedLogging"},
		{tagCannotCheckpoint, 1, 0, "cannotCheckpoint"},
	} {
		ls, _, _ := newTestLayers(t, 2, Full)
		ls[c.src].comm.Send(c.dst, c.tag, poison)
		got := func() (p any) {
			defer func() { p = recover() }()
			ls[c.dst].serviceControl()
			return nil
		}()
		msg := fmt.Sprint(got)
		for _, want := range []string{fmt.Sprintf("rank %d:", c.dst), fmt.Sprintf("control message %d from rank %d", c.tag, c.src)} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s with a poisoned word: the layer reported %q, want it to name %q", c.name, msg, want)
			}
		}
	}
}
