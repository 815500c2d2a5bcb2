package protocol

import (
	"slices"
	"sync"
	"testing"
	"time"

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
			l.serviceControl()
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
	P.requestCheckpoint()

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
	if len(R.m.earlyIDs[1]) != 1 {
		t.Fatalf("R earlyIDs[Q] = %v", R.m.earlyIDs[1])
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
	if R.m.currentReceiveCount[0] != 1 {
		t.Fatalf("R currentReceiveCount[P] = %d", R.m.currentReceiveCount[0])
	}

	// R and P take their checkpoints; the protocol completes and commits.
	R.PotentialCheckpoint()
	P.PotentialCheckpoint()
	if R.Epoch() != 1 || P.Epoch() != 1 {
		t.Fatalf("epochs: P=%d R=%d", P.Epoch(), R.Epoch())
	}
	// R's early message seeds its new-epoch receive count from Q.
	if R.m.currentReceiveCount[1] != 1 {
		t.Fatalf("R currentReceiveCount[Q] after ckpt = %d", R.m.currentReceiveCount[1])
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
	raw, err := cs.GetMeta(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := unmarshalRecord(raw)
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

	P.requestCheckpoint()
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
	recs := recoverySlices(t, cs, 1, 3)
	if len(recs[1].Suppress) != 1 || len(recs[0].Suppress)+len(recs[2].Suppress) != 0 {
		t.Fatalf("suppress sets = %v, %v, %v", recs[0].Suppress, recs[1].Suppress, recs[2].Suppress)
	}
	for r := 0; r < 3; r++ {
		if err := ls2[r].RestoreFrom(recs[r], nil); err != nil {
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
	if !Q2.replay.Exhausted() || Q2.m.suppressPending != 0 {
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

	P.requestCheckpoint()

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
	// P and Q executed the call while logging, and R in the old epoch: the
	// call crosses the recovery line, and the result is in P's and Q's logs.
	// R executed it before its checkpoint: nothing logged.
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
	recs := recoverySlices(t, cs, 1, 3)
	for r := 0; r < 3; r++ {
		ls2[r] = NewLayer(w2.Comm(r), Config{Mode: Full, Store: cs, Debug: true})
		if err := ls2[r].RestoreFrom(recs[r], nil); err != nil {
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

	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	R.PotentialCheckpoint()
	if !P.Logging() || !Q.Logging() || !R.Logging() {
		t.Fatal("all three should be logging")
	}

	// Simulate stopLogging having reached R but still being in flight to P
	// and Q (on a real network control messages race data messages; the
	// eager test transport needs the state forced).
	R.m.finalizeLog()
	R.act()
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

// waitOrFail waits for wg and fails the test if it has not finished within
// the deadline: a collective that one participant re-executes and another
// skips waits forever, and the test must say so rather than hang.
func waitOrFail(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: still blocked after 10s; the participants disagree on which collectives a recovery re-executes", what)
	}
}

// together runs f on every layer at once and waits for all of them.
func together(t *testing.T, ls []*Layer, what string, f func(l *Layer)) {
	t.Helper()
	var wg sync.WaitGroup
	for _, l := range ls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(l)
		}()
	}
	waitOrFail(t, &wg, what)
}

// TestCollectiveLoggedOnlyAcrossTheRecoveryLine: the initiator P takes its
// local checkpoint one gap of collectives ahead of Q and R. The calls of
// that gap — an Allreduce, whose control word rides on its own messages, and
// a Gather to P, which runs the explicit exchange — cross the recovery line:
// P executes them in the new epoch and re-executes them on recovery, Q and R
// execute them in the old one and do not. So P logs their results. The same
// two calls after Q's and R's checkpoints have every participant in the new
// epoch, all of them logging: all three re-execute those, and nobody logs
// them. A message Q sends R in the old epoch and R receives only after them
// keeps the logging phase open across them (R cannot report ready), and it
// is the one other entry: R's late message. After the commit a rank dies
// and every rank rolls back to the committed checkpoint: P reads the
// straddling results back, R its late message, all three re-execute the
// rest, and every result is the fault-free one.
func TestCollectiveLoggedOnlyAcrossTheRecoveryLine(t *testing.T) {
	// gap is one rank's two collectives between checkpoints, their results
	// side by side: the sum, then the gathered squares (zero off P).
	gap := func(l *Layer, i int) []float64 {
		v := float64(10*i + l.Rank() + 1)
		sum := allreduce(l, mpi.F64Bytes([]float64{v}), mpi.SumF64)
		squares := make([]byte, 8*l.Size())
		l.GatherInto(0, squares, mpi.F64Bytes([]float64{v * v}))
		return append(mpi.BytesF64(sum), mpi.BytesF64(squares)...)
	}
	ls, cs, _ := newTestLayers(t, 3, Full)
	P, Q, R := ls[0], ls[1], ls[2]
	late := []byte("old-epoch")

	var results [3][2][]float64
	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.Send(2, 5, late)
	together(t, ls, "the straddling gap", func(l *Layer) { results[l.Rank()][0] = gap(l, 0) })
	for _, l := range []*Layer{Q, R} {
		if l.Epoch() != 0 {
			t.Fatalf("rank %d checkpointed before the straddling gap", l.Rank())
		}
		l.PotentialCheckpoint() // requested: a participant of the gap was logging in the new epoch
	}
	together(t, ls, "the gap inside the new epoch", func(l *Layer) { results[l.Rank()][1] = gap(l, 1) })
	for i, l := range ls {
		if !l.Logging() {
			t.Fatalf("rank %d stopped logging before R received its late message", i)
		}
	}
	if m := R.Recv(1, 5); string(m.Data) != string(late) {
		t.Fatalf("R received %q", m.Data)
	}
	pump(t, ls, cs, 1)

	// Pinned in bytes: a log is a count, then per entry its kind, sequence
	// number, source, tag and length (5 bytes) and the payload. P's holds the
	// two straddling results, 1 + (5+8) + (5+24) = 43; Q's is empty, 1; R's
	// holds the late message, 1 + (5+9) = 15.
	want := [3]*Log{NewLog(), NewLog(), NewLog()}
	want[0].Add(Entry{Kind: KindCollective, Seq: 0, Data: mpi.F64Bytes(results[0][0][:1])})
	want[0].Add(Entry{Kind: KindCollective, Seq: 1, Data: mpi.F64Bytes(results[0][0][1:])})
	want[2].Add(Entry{Kind: KindLate, Seq: 0, Src: 1, Tag: 5, Data: late})
	for i, n := range []int64{43, 1, 15} {
		if got := ls[i].Stats.LogBytes; got != n || string(ls[i].log.Marshal()) != string(want[i].Marshal()) {
			t.Fatalf("rank %d logged %d bytes, entries %+v; want %d, entries %+v", i, got, ls[i].log.entries, n, want[i].entries)
		}
	}

	// A rank dies after the commit: every rank rolls back to epoch 1.
	w2 := mpi.NewWorld(3, mpi.Options{})
	ls2 := make([]*Layer, 3)
	recs := recoverySlices(t, cs, 1, 3)
	for r := range ls2 {
		ls2[r] = NewLayer(w2.Comm(r), Config{Mode: Full, Store: cs, Debug: true})
		if err := ls2[r].RestoreFrom(recs[r], nil); err != nil {
			t.Fatal(err)
		}
	}
	var again [3][2][]float64
	var replayed []byte
	together(t, ls2, "the recovery", func(l *Layer) {
		if l.Rank() == 0 {
			again[0][0] = gap(l, 0) // from the log: Q and R do not re-execute it
		}
		again[l.Rank()][1] = gap(l, 1)
		if l.Rank() == 2 {
			replayed = l.Recv(1, 5).Data // from the log: Q does not re-send it
		}
	})
	if !slices.Equal(again[0][0], results[0][0]) || string(replayed) != string(late) {
		t.Fatalf("P replayed the straddling gap as %v (fault-free %v), R the late message as %q", again[0][0], results[0][0], replayed)
	}
	for r, l := range ls2 {
		if !slices.Equal(again[r][1], results[r][1]) {
			t.Fatalf("rank %d re-executed the new epoch's gap as %v, fault-free %v", r, again[r][1], results[r][1])
		}
		want := int64(0) // the collective results read back: P's two
		if r == 0 {
			want = 2
		}
		if l.Stats.ReplayedResults != want || !l.replay.Exhausted() {
			t.Fatalf("rank %d read %d results back (replay exhausted: %v), want %d", r, l.Stats.ReplayedResults, l.replay.Exhausted(), want)
		}
	}
}

// TestAlignedBarrierEpochAlignment verifies the MPI_Barrier rule of
// Section 4.5: all processes execute an aligned barrier in the same epoch,
// with laggards taking their pending checkpoint first.
func TestAlignedBarrierEpochAlignment(t *testing.T) {
	ls, cs, _ := newTestLayers(t, 3, Full)
	P := ls[0]

	P.requestCheckpoint()
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
// treatment: a barrier executed while logging, with a participant still in
// the old epoch, is recorded and skipped on recovery, so ranks whose
// checkpoints straddle it never deadlock.
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

	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	if !P.Logging() || !Q.Logging() || R.Logging() {
		t.Fatal("setup: P and Q should be logging, R not")
	}

	together(t, ls, "the barrier", func(l *Layer) {
		l.Barrier() // P, Q logging: entry recorded; R in old epoch: live
	})
	if !P.Logging() || !Q.Logging() {
		t.Fatal("P and Q must still be logging after the barrier (R's mySendCount is outstanding)")
	}

	R.PotentialCheckpoint() // R takes the requested checkpoint after the barrier
	pump(t, ls, cs, 1)

	w2 := mpi.NewWorld(3, mpi.Options{})
	var l2 [3]*Layer
	recs := recoverySlices(t, cs, 1, 3)
	for i := range l2 {
		l2[i] = NewLayer(w2.Comm(i), Config{Mode: Full, Store: cs, Debug: true})
		if err := l2[i].RestoreFrom(recs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	// P and Q recover to states from before the barrier and re-execute the
	// call; the result is consumed from their logs with no communication, so
	// the sequential calls below cannot deadlock. R's checkpoint is from
	// after the barrier, so R never re-executes it — which is why converting
	// the logged barrier into a log lookup is the only consistent treatment.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l2[0].Barrier()
		l2[1].Barrier()
	}()
	waitOrFail(t, &wg, "P's and Q's recovered barriers")
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

	P.requestCheckpoint()
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	if !P.Logging() || !Q.Logging() {
		t.Fatal("both should be logging")
	}

	// Q stops logging (simulating a stopLogging that has not reached P).
	Q.m.finalizeLog()
	Q.act()
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
	P.requestCheckpoint()
	P.Send(1, 7, []byte("late"))
	Q.PotentialCheckpoint()
	_ = Q.Recv(0, 7)
	P.PotentialCheckpoint()
	pump(t, ls, cs, 1)

	// New incarnation.
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

	// A new checkpoint is requested immediately.
	P2.requestCheckpoint()
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
