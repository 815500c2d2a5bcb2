package protocol

import (
	"sync"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// Scripted reproductions of the paper's figures. These tests choreograph
// message and checkpoint timing explicitly, which the eager in-process
// transport makes deterministic.

func newTestLayers(t *testing.T, n int, mode Mode) ([]*Layer, *storage.CheckpointStore, *mpi.World) {
	t.Helper()
	w := mpi.NewWorld(n, mpi.Options{})
	cs := storage.NewCheckpointStore(storage.NewMemory())
	ls := make([]*Layer, n)
	for r := 0; r < n; r++ {
		ls[r] = NewLayer(w.Comm(r), Config{Mode: mode, Store: cs, Debug: true})
	}
	return ls, cs, w
}

// pump services control traffic on every layer until the store reports a
// committed checkpoint or the round budget runs out.
func pump(t *testing.T, ls []*Layer, cs *storage.CheckpointStore, wantEpoch int) {
	t.Helper()
	for round := 0; round < 100; round++ {
		for _, l := range ls {
			l.ServiceControl()
		}
		if e, ok, _ := cs.Committed(); ok && e >= wantEpoch {
			return
		}
	}
	e, ok, _ := cs.Committed()
	t.Fatalf("checkpoint %d never committed (committed=%d ok=%v)", wantEpoch, e, ok)
}

// TestFigure3 reproduces the execution of Figure 3 around one global
// checkpoint: a late message P→Q, an early message Q→R, and an intra-epoch
// message P→R, verifying classification, the late-message log, and the
// early-ID record.
func TestFigure3(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P, Q, R := ls[0], ls[1], ls[2]

	// The initiator (P, rank 0) starts global checkpoint 1.
	P.RequestCheckpoint()

	// P, still in epoch 0, sends a message to Q.
	P.Send(1, 7, []byte("late-payload"))

	// Q takes its local checkpoint first and starts logging.
	Q.PotentialCheckpoint()
	if Q.Epoch() != 1 || !Q.Logging() {
		t.Fatalf("Q epoch=%d logging=%v", Q.Epoch(), Q.Logging())
	}

	// Q now receives P's message: sent in epoch 0, delivered in epoch 1 —
	// a late message that must be logged.
	m := Q.Recv(0, 7)
	if string(m.Data) != "late-payload" {
		t.Fatalf("late payload %q", m.Data)
	}
	if Q.log.Len() != 1 || Q.log.entries[0].Kind != KindLate {
		t.Fatalf("Q log = %+v", Q.log.entries)
	}
	if Q.Stats.LateLogged != 1 {
		t.Fatalf("LateLogged = %d", Q.Stats.LateLogged)
	}

	// Q, now in epoch 1, sends to R, which is still in epoch 0: an early
	// message. R must remember its ID so its re-send is suppressed after a
	// rollback.
	Q.Send(2, 8, []byte("early-payload"))
	em := R.Recv(1, 8)
	if string(em.Data) != "early-payload" {
		t.Fatalf("early payload %q", em.Data)
	}
	if len(R.earlyIDs[1]) != 1 {
		t.Fatalf("R earlyIDs[Q] = %v", R.earlyIDs[1])
	}
	if R.Stats.EarlyRecorded != 1 {
		t.Fatalf("EarlyRecorded = %d", R.Stats.EarlyRecorded)
	}

	// An intra-epoch message P→R (both still in epoch 0).
	P.Send(2, 9, []byte("intra"))
	im := R.Recv(0, 9)
	if string(im.Data) != "intra" {
		t.Fatalf("intra payload %q", im.Data)
	}
	if R.currentReceiveCount[0] != 1 {
		t.Fatalf("R currentReceiveCount[P] = %d", R.currentReceiveCount[0])
	}

	// R and P take their checkpoints; the protocol completes and commits.
	R.PotentialCheckpoint()
	P.PotentialCheckpoint()
	if R.Epoch() != 1 || P.Epoch() != 1 {
		t.Fatalf("epochs: P=%d R=%d", P.Epoch(), R.Epoch())
	}
	// R's early message seeds its new-epoch receive count from Q.
	if R.currentReceiveCount[1] != 1 {
		t.Fatalf("R currentReceiveCount[Q] after ckpt = %d", R.currentReceiveCount[1])
	}

	pump(t, ls, cs, 1)

	// After commit, everyone has stopped logging.
	for i, l := range ls {
		if l.Logging() {
			t.Fatalf("rank %d still logging after commit", i)
		}
	}

	// The committed checkpoint's artifacts: Q's log holds the late
	// message; R's state blob records the early ID from Q.
	lg, err := cs.GetLog(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	qlog, err := UnmarshalLog(lg)
	if err != nil {
		t.Fatal(err)
	}
	foundLate := false
	for _, e := range qlog.entries {
		if e.Kind == KindLate && string(e.Data) == "late-payload" {
			foundLate = true
		}
	}
	if !foundLate {
		t.Fatal("Q's persisted log is missing the late message")
	}
	meta, err := loadRecoveryMeta(cs, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ids := meta.EarlyIDs; len(ids[1]) != 1 {
		t.Fatalf("persisted early IDs = %v", ids)
	}
}

// TestFigure3Recovery continues the Figure 3 scenario past a failure: a new
// incarnation restores from the committed checkpoint, verifies that the
// late message is re-delivered from the log, and that the early message's
// re-send is suppressed.
func TestFigure3Recovery(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P, Q, R := ls[0], ls[1], ls[2]

	P.RequestCheckpoint()
	P.Send(1, 7, []byte("late-payload"))
	Q.PotentialCheckpoint()
	_ = Q.Recv(0, 7)
	Q.Send(2, 8, []byte("early-payload"))
	_ = R.Recv(1, 8)
	R.PotentialCheckpoint()
	P.PotentialCheckpoint()
	pump(t, ls, cs, 1)

	// --- crash; new incarnation ---
	w2 := mpi.NewWorld(3, mpi.Options{})
	ls2 := make([]*Layer, 3)
	for r := 0; r < 3; r++ {
		ls2[r] = NewLayer(w2.Comm(r), Config{Mode: Full, Store: cs, Debug: true})
	}
	// Gather early IDs and build suppression sets (the recovery driver's
	// job).
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
	if len(suppress[1]) != 1 {
		t.Fatalf("suppress sets = %v", suppress)
	}
	for r := 0; r < 3; r++ {
		if err := ls2[r].Restore(1, suppress[r]); err != nil {
			t.Fatal(err)
		}
	}
	P2, Q2, R2 := ls2[0], ls2[1], ls2[2]

	// Q re-executes its post-checkpoint receive: the late message must
	// come from the log, not the wire (P does not re-send it).
	m := Q2.Recv(0, 7)
	if string(m.Data) != "late-payload" {
		t.Fatalf("replayed late payload %q", m.Data)
	}
	if Q2.Stats.ReplayedLate != 1 {
		t.Fatalf("ReplayedLate = %d", Q2.Stats.ReplayedLate)
	}

	// Q re-executes its post-checkpoint send to R: it must be suppressed
	// (R's recovered state already includes it).
	Q2.Send(2, 8, []byte("early-payload"))
	if Q2.Stats.SuppressedSends != 1 {
		t.Fatalf("SuppressedSends = %d", Q2.Stats.SuppressedSends)
	}
	if R2.Comm().Pending() != 0 {
		t.Fatalf("R received %d wire messages; the early re-send should have been suppressed", R2.Comm().Pending())
	}
	// R does NOT re-execute its receive of the early message — its
	// recovered state is from after that receive. Its next action can be a
	// fresh intra-epoch exchange, which flows normally.
	P2.Send(2, 9, []byte("fresh"))
	fm := R2.Recv(0, 9)
	if string(fm.Data) != "fresh" {
		t.Fatalf("fresh payload %q", fm.Data)
	}
	if !Q2.replay.Exhausted() || Q2.SuppressPending() != 0 {
		t.Fatal("Q's replay should be complete")
	}
}

// allreduce is AllreduceInto a fresh result.
func allreduce(l *Layer, data []byte, op mpi.Op) []byte {
	out := make([]byte, len(data))
	l.AllreduceInto(out, data, op)
	return out
}

// TestFigure5CallA reproduces collective communication call A of Figure 5:
// P and Q execute an Allreduce after taking their local checkpoints, R
// executes it before. P and Q must log the result; on recovery they read it
// from the log and R does not re-execute the call.
func TestFigure5CallA(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P, Q, R := ls[0], ls[1], ls[2]

	P.RequestCheckpoint()

	var results [3][]float64
	var wg sync.WaitGroup
	qReady := make(chan struct{})
	pqDone := make(chan struct{}, 2)

	wg.Add(3)
	go func() { // P (initiator): checkpoint, then allreduce
		defer wg.Done()
		P.PotentialCheckpoint()
		close(qReady)
		results[0] = mpi.BytesF64(allreduce(P, mpi.F64Bytes([]float64{1}), mpi.SumF64))
		pqDone <- struct{}{}
	}()
	go func() { // Q: checkpoint, then allreduce
		defer wg.Done()
		<-qReady
		Q.PotentialCheckpoint()
		results[1] = mpi.BytesF64(allreduce(Q, mpi.F64Bytes([]float64{2}), mpi.SumF64))
		pqDone <- struct{}{}
	}()
	go func() { // R: allreduce BEFORE its checkpoint
		defer wg.Done()
		<-qReady
		results[2] = mpi.BytesF64(allreduce(R, mpi.F64Bytes([]float64{4}), mpi.SumF64))
		<-pqDone
		<-pqDone
		R.PotentialCheckpoint()
	}()
	wg.Wait()

	for i, res := range results {
		if res[0] != 7 {
			t.Fatalf("rank %d allreduce = %v", i, res)
		}
	}
	// P and Q executed the call while logging: the result is in their
	// logs. R executed it before its checkpoint: nothing logged.
	countColl := func(l *Layer) int {
		n := 0
		for _, e := range l.log.entries {
			if e.Kind == KindCollective {
				n++
			}
		}
		return n
	}
	if countColl(P) != 1 || countColl(Q) != 1 {
		t.Fatalf("collective log entries: P=%d Q=%d", countColl(P), countColl(Q))
	}
	if countColl(R) != 0 {
		t.Fatalf("R logged %d collective results before its checkpoint", countColl(R))
	}
	// The control exchange told R (old epoch, partner logging) that a
	// checkpoint is in progress.
	if R.Epoch() != 1 {
		t.Fatalf("R epoch = %d", R.Epoch())
	}

	pump(t, ls, cs, 1)

	// --- recovery: P and Q re-execute the call from the log; R resumes
	// after it and never calls Allreduce again. ---
	w2 := mpi.NewWorld(3, mpi.Options{})
	ls2 := make([]*Layer, 3)
	for r := 0; r < 3; r++ {
		ls2[r] = NewLayer(w2.Comm(r), Config{Mode: Full, Store: cs, Debug: true})
		if err := ls2[r].Restore(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential calls cannot deadlock: the results come from the log with
	// no communication.
	got := mpi.BytesF64(allreduce(ls2[0], mpi.F64Bytes([]float64{1}), mpi.SumF64))
	if got[0] != 7 {
		t.Fatalf("P replayed allreduce = %v", got)
	}
	got = mpi.BytesF64(allreduce(ls2[1], mpi.F64Bytes([]float64{2}), mpi.SumF64))
	if got[0] != 7 {
		t.Fatalf("Q replayed allreduce = %v", got)
	}
	if ls2[0].Stats.ReplayedResults != 1 || ls2[1].Stats.ReplayedResults != 1 {
		t.Fatal("results should have come from the log")
	}
	if !ls2[0].replay.Exhausted() || !ls2[1].replay.Exhausted() || !ls2[2].replay.Exhausted() {
		t.Fatal("replays should be exhausted")
	}
}

// TestFigure5CallB exercises the call-B rule: a participant in the same
// (new) epoch has already stopped logging, so logging participants must
// stop logging too and must not log the call's result.
func TestFigure5CallB(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P, Q, R := ls[0], ls[1], ls[2]

	P.RequestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	R.PotentialCheckpoint()
	if !P.Logging() || !Q.Logging() || !R.Logging() {
		t.Fatal("all three should be logging")
	}

	// Simulate stopLogging having reached R but still being in flight to P
	// and Q (on a real network control messages race data messages; the
	// eager test transport needs the state forced).
	R.finalizeLog()
	if R.Logging() {
		t.Fatal("R should have stopped logging")
	}

	var wg sync.WaitGroup
	var results [3][]float64
	for i, l := range []*Layer{P, Q, R} {
		wg.Add(1)
		go func(i int, l *Layer) {
			defer wg.Done()
			results[i] = mpi.BytesF64(allreduce(l, mpi.F64Bytes([]float64{float64(i + 1)}), mpi.SumF64))
		}(i, l)
	}
	wg.Wait()

	for i, res := range results {
		if res[0] != 6 {
			t.Fatalf("rank %d allreduce = %v", i, res)
		}
	}
	// P and Q saw a same-epoch participant that had stopped logging: they
	// must have stopped logging and must not have logged the result.
	if P.Logging() || Q.Logging() {
		t.Fatal("P and Q should have stopped logging (call-B rule)")
	}
	for i, l := range ls {
		for _, e := range l.log.entries {
			if e.Kind == KindCollective {
				t.Fatalf("rank %d logged the call-B result", i)
			}
		}
	}
	_ = cs
}

// TestAlignedBarrierEpochAlignment verifies the MPI_Barrier rule of
// Section 4.5: all processes execute an aligned barrier in the same epoch,
// with laggards taking their pending checkpoint first.
func TestAlignedBarrierEpochAlignment(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P := ls[0]

	P.RequestCheckpoint()
	P.PotentialCheckpoint() // P moves to epoch 1; Q and R are still at 0
	if P.Epoch() != 1 || ls[1].Epoch() != 0 || ls[2].Epoch() != 0 {
		t.Fatal("setup failed")
	}

	var wg sync.WaitGroup
	for _, l := range ls {
		wg.Add(1)
		go func(l *Layer) {
			defer wg.Done()
			l.AlignedBarrier()
		}(l)
	}
	wg.Wait()

	for i, l := range ls {
		if l.Epoch() != 1 {
			t.Fatalf("rank %d executed the barrier in epoch %d", i, l.Epoch())
		}
	}
	pump(t, ls, cs, 1)
}

// TestLoggedBarrierSkippedOnRecovery verifies the library's default barrier
// treatment: a barrier executed while logging is recorded and skipped on
// recovery, so ranks whose checkpoints straddle it never deadlock.
//
// The scenario uses three ranks so that the logging phase provably cannot
// end before the barrier: R has not taken its local checkpoint when the
// barrier runs, so P and Q are still missing R's mySendCount and can never
// report readyToStopLogging — they are deterministically logging at barrier
// time no matter how the goroutines interleave. This is exactly Figure 5's
// call A: P and Q execute the collective after their checkpoints, R before
// its own.
func TestLoggedBarrierSkippedOnRecovery(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P, Q, R := ls[0], ls[1], ls[2]

	P.RequestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	if !P.Logging() || !Q.Logging() || R.Logging() {
		t.Fatal("setup: P and Q should be logging, R not")
	}

	var wg sync.WaitGroup
	for _, l := range []*Layer{P, Q, R} {
		wg.Add(1)
		go func(l *Layer) {
			defer wg.Done()
			l.Barrier() // P, Q logging: entry recorded; R in old epoch: live
		}(l)
	}
	wg.Wait()
	if !P.Logging() || !Q.Logging() {
		t.Fatal("P and Q must still be logging after the barrier (R's mySendCount is outstanding)")
	}

	R.PotentialCheckpoint() // R takes the requested checkpoint after the barrier
	pump(t, ls, cs, 1)

	w2 := mpi.NewWorld(3, mpi.Options{})
	var l2 [3]*Layer
	for i := range l2 {
		l2[i] = NewLayer(w2.Comm(i), Config{Mode: Full, Store: cs, Debug: true})
		if err := l2[i].Restore(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	// P and Q recover to states from before the barrier and re-execute the
	// call; the result is consumed from their logs with no communication, so
	// the sequential calls below cannot deadlock. R's checkpoint is from
	// after the barrier, so R never re-executes it — which is why converting
	// the logged barrier into a log lookup is the only consistent treatment.
	l2[0].Barrier()
	l2[1].Barrier()
	for i, l := range l2 {
		if !l.replay.Exhausted() {
			t.Fatalf("rank %d: log entries should have been consumed", i)
		}
	}
}

// TestStopLoggingInfection exercises Phase 4 condition (ii): receiving an
// intra-epoch message from a process that has stopped logging stops the
// receiver's logging before the message is delivered.
func TestStopLoggingInfection(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]

	P.RequestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	if !P.Logging() || !Q.Logging() {
		t.Fatal("both should be logging")
	}

	// Q stops logging (simulating a stopLogging that has not reached P).
	Q.finalizeLog()
	// Q sends an intra-epoch message; its piggyback carries logging=false.
	Q.Send(0, 3, []byte("from-stopped"))

	// P receives it: before the application sees the data, P must stop
	// logging — otherwise P's log could capture an event that depends on
	// Q's unlogged non-determinism.
	m := P.Recv(1, 3)
	if string(m.Data) != "from-stopped" {
		t.Fatalf("payload %q", m.Data)
	}
	if P.Logging() {
		t.Fatal("P must stop logging upon hearing from a stopped process")
	}
	pump(t, ls, cs, 1)
}

// TestDeferralRule: a process may not take a new checkpoint while its
// recovered log is still being replayed or suppressed re-sends are due.
func TestDeferralRule(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 2, Full)
	P, Q := ls[0], ls[1]

	// Build a committed checkpoint where Q has a late message in its log.
	P.RequestCheckpoint()
	P.Send(1, 7, []byte("late"))
	Q.PotentialCheckpoint()
	_ = Q.Recv(0, 7)
	P.PotentialCheckpoint()
	pump(t, ls, cs, 1)

	// New incarnation.
	w2 := mpi.NewWorld(2, mpi.Options{})
	P2 := NewLayer(w2.Comm(0), Config{Mode: Full, Store: cs, Debug: true})
	Q2 := NewLayer(w2.Comm(1), Config{Mode: Full, Store: cs, Debug: true})
	if err := P2.Restore(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := Q2.Restore(1, nil); err != nil {
		t.Fatal(err)
	}

	// A new checkpoint is requested immediately.
	P2.RequestCheckpoint()
	// Q2 hits a potential checkpoint before consuming its late message: it
	// must defer.
	Q2.PotentialCheckpoint()
	if Q2.Epoch() != 1 {
		t.Fatalf("Q took a checkpoint mid-replay (epoch %d)", Q2.Epoch())
	}
	// After consuming the log, the deferred checkpoint may proceed.
	m := Q2.Recv(0, 7)
	if string(m.Data) != "late" {
		t.Fatalf("payload %q", m.Data)
	}
	Q2.PotentialCheckpoint()
	if Q2.Epoch() != 2 {
		t.Fatalf("Q epoch after replay = %d", Q2.Epoch())
	}
}
