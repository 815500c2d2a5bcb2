package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// ringProg is a deterministic neighbour-exchange program: each rank holds a
// vector, repeatedly sends it to the next rank, receives from the previous,
// and mixes; every iteration opens with a potential checkpoint. Its final
// checksum is a strict function of (ranks, iters, width).
func ringProg(iters, width int) Program { return ringRecvTag(iters, width, 1) }

// ringRecvTag is ringProg receiving with the given tag: 1, or AnyTag.
func ringRecvTag(iters, width, recvTag int) Program {
	return func(r *Rank) (any, error) {
		n := r.Size()
		me := r.Rank()
		next, prev := (me+1)%n, (me-1+n)%n

		var it int
		x := make([]float64, width)
		r.Register("it", &it)
		r.Register("x", &x)
		if !r.Restarting() {
			for i := range x {
				x[i] = float64(me*width + i)
			}
		}
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			r.Send(next, 1, mpi.F64Bytes(x))
			in := mpi.BytesF64(r.Recv(prev, recvTag).Data)
			for i := range x {
				x[i] = x[i]*0.5 + in[i]*0.5 + 1
			}
			r.Touch("x")
		}
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		return sum, nil
	}
}

func runRef(t *testing.T, cfg Config, prog Program) []any {
	t.Helper()
	ref, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return ref.Values
}

// runWithin runs prog under a one-minute deadline, for a test that injects a
// failure: a recovery that deadlocks fails the run instead of hanging the
// package until its timeout.
func runWithin(cfg Config, prog Program) (*Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return RunContext(ctx, cfg, prog)
}

func TestRunUnmodified(t *testing.T) {
	cfg := Config{Ranks: 4, Mode: protocol.Unmodified}
	res, err := Run(cfg, ringProg(10, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 4 || res.Restarts != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestModesAgreeWithoutFailures(t *testing.T) {
	// All four Figure-8 versions must compute identical results when no
	// failure occurs.
	prog := ringProg(20, 16)
	ref := runRef(t, Config{Ranks: 4, Mode: protocol.Unmodified}, prog)
	for _, mode := range []protocol.Mode{protocol.PiggybackOnly, protocol.NoAppState, protocol.Full} {
		cfg := Config{Ranks: 4, Mode: mode, EveryN: 5}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("%v: values %v != ref %v", mode, res.Values, ref)
		}
	}
}

// TestCheckpointsAreTaken runs on the wall clock on purpose: the program is
// over in microseconds, long before the first flush is, and the
// end-of-program rule (protocol.Layer.Finish) is what still carries the
// checkpoint the fifth iteration triggered to its commit — on any core
// count, at any flusher speed.
func TestCheckpointsAreTaken(t *testing.T) {
	store := storage.NewMemory()
	cfg := Config{Ranks: 4, Mode: protocol.Full, EveryN: 5, Store: store, Debug: true}
	res, err := Run(cfg, ringProg(25, 8))
	if err != nil {
		t.Fatal(err)
	}
	var taken int64
	for _, s := range res.Stats {
		taken += s.CheckpointsTaken
	}
	if taken == 0 {
		t.Fatal("no checkpoints were taken")
	}
	cs := storage.NewCheckpointStore(store)
	if e, ok, _ := cs.Committed(); !ok || e < 1 {
		t.Fatalf("committed epoch = %d, %v", e, ok)
	}
}

func TestRecoveryMatchesFailureFreeRun(t *testing.T) {
	prog := ringProg(30, 8)
	ref := runRef(t, Config{Ranks: 4, Mode: protocol.Unmodified}, prog)

	// Kill rank 2 late in the run. On the simulated substrate the kill's
	// place among the commits is a function of the scenario: op 140 of rank
	// 2 follows the third commit and precedes the fourth. The committed
	// checkpoint must carry the computation through.
	cfg := onSim(t, Config{
		Ranks: 4, Mode: protocol.Full, EveryN: 4, Debug: true,
		Failures: []Failure{{Rank: 2, AtOp: 140, Incarnation: 0}},
	})
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if !reflect.DeepEqual(res.RecoveredEpochs, []int{3}) {
		t.Fatalf("recovered epochs = %v, want [3]", res.RecoveredEpochs)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("recovered values %v != ref %v", res.Values, ref)
	}
}

func TestRecoveryAtManyFailurePoints(t *testing.T) {
	// Sweep the stop-failure across execution points and ranks; every
	// recovery must reproduce the failure-free results exactly. This is
	// the paper's core correctness claim under the stopping-failure model.
	if testing.Short() {
		t.Skip("long sweep")
	}
	prog := ringProg(20, 4)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	for rank := 0; rank < 3; rank++ {
		for _, atOp := range []int64{3, 10, 17, 25, 33, 41, 52, 60} {
			cfg := Config{
				Ranks: 3, Mode: protocol.Full, EveryN: 3, Debug: true,
				Failures: []Failure{{Rank: rank, AtOp: atOp, Incarnation: 0}},
			}
			res, err := Run(cfg, prog)
			if err != nil {
				t.Fatalf("rank=%d atOp=%d: %v", rank, atOp, err)
			}
			if !reflect.DeepEqual(res.Values, ref) {
				t.Fatalf("rank=%d atOp=%d: values %v != ref %v", rank, atOp, res.Values, ref)
			}
		}
	}
}

func TestRepeatedFailures(t *testing.T) {
	// Two failures in successive incarnations: recovery from recovery.
	prog := ringProg(25, 4)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	cfg := Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 3, Debug: true,
		Failures: []Failure{
			{Rank: 1, AtOp: 30, Incarnation: 0},
			{Rank: 2, AtOp: 25, Incarnation: 1},
		},
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
}

func TestFailureBeforeFirstCheckpointRestartsFromScratch(t *testing.T) {
	prog := ringProg(10, 4)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	cfg := Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 1000, Debug: true, // never checkpoints
		Failures: []Failure{{Rank: 0, AtOp: 5, Incarnation: 0}},
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || res.RecoveredEpochs[0] != -1 {
		t.Fatalf("restarts=%d epochs=%v", res.Restarts, res.RecoveredEpochs)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
}

func TestNoAppStateCannotRecover(t *testing.T) {
	// Simulated, so that the kill follows a commit by construction (the
	// first lands before op 60 of rank 0 in this scenario).
	cfg := onSim(t, Config{
		Ranks: 2, Mode: protocol.NoAppState, EveryN: 2, Debug: true,
		Failures: []Failure{{Rank: 0, AtOp: 100, Incarnation: 0}},
	})
	_, err := Run(cfg, ringProg(20, 4))
	if !errors.Is(err, cerr.ErrWorldDead) {
		t.Fatalf("err = %v: NoAppState mode must refuse to recover from a checkpoint", err)
	}
}

func TestTooManyRestarts(t *testing.T) {
	failures := make([]Failure, 4)
	for i := range failures {
		failures[i] = Failure{Rank: 0, AtOp: 2, Incarnation: i}
	}
	cfg := Config{Ranks: 2, Mode: protocol.Full, EveryN: 3, MaxRestarts: 3, Failures: failures}
	_, err := Run(cfg, ringProg(10, 2))
	if !errors.Is(err, cerr.ErrMaxRestarts) || !strings.Contains(err.Error(), "MaxRestarts = 3") {
		t.Fatalf("err = %v, want ErrMaxRestarts naming the budget", err)
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Config{Ranks: 2, Mode: protocol.Full}, func(r *Rank) (any, error) {
		if r.Rank() == 1 {
			return nil, boom
		}
		return nil, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// collectiveProg exercises every collective through checkpoints.
func collectiveProg(iters int) Program {
	return func(r *Rank) (any, error) {
		n := r.Size()
		var it int
		acc := make([]float64, 4)
		r.Register("it", &it)
		r.Register("acc", &acc)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			sum := r.AllreduceF64([]float64{float64(r.Rank() + it)}, mpi.SumF64)
			all := make([]float64, n)
			r.AllgatherF64Into(all, []float64{sum[0] + float64(r.Rank())})
			root := make([]float64, n)
			r.GatherF64Into(0, root, []float64{all[it%n]})
			fromRoot := make([]float64, n)
			if r.Rank() == 0 {
				copy(fromRoot, root)
			}
			buf := mpi.F64Bytes(fromRoot)
			r.BcastInto(0, buf)
			fromRoot = mpi.BytesF64(buf)
			r.Barrier()
			acc[0] += sum[0]
			acc[1] += all[(it+1)%n]
			acc[2] += fromRoot[it%n]
			acc[3] += 1
			r.Touch("acc")
		}
		return fmt.Sprintf("%.3f/%.3f/%.3f/%.0f", acc[0], acc[1], acc[2], acc[3]), nil
	}
}

// TestCollectivesSurviveRecovery kills a rank at four points of a program
// that runs every collective, on the wall clock, and then twice on the
// simulator with rank 1 dying after the commit of an epoch whose collectives
// straddled the recovery line: ranks that had taken the checkpoint ran a
// collective with ranks that had not, so a rolled-back rank can only take
// that collective's result from its log. (With the logging rule mutated to
// "never log", both simulated rows deadlock.)
func TestCollectivesSurviveRecovery(t *testing.T) {
	prog := collectiveProg(15)
	ref := runRef(t, Config{Ranks: 4, Mode: protocol.Unmodified}, prog)
	checkReordered(t, Config{Ranks: 4, Mode: protocol.Full, EveryN: 4, Debug: true}, 1, prog, ref,
		[]reorderedKill{{seed: 2, atOp: 89, want: 1}, {seed: 3, atOp: 103, want: 1}})
	for _, atOp := range []int64{10, 30, 60, 90} {
		cfg := Config{
			Ranks: 4, Mode: protocol.Full, EveryN: 4, Debug: true,
			Failures: []Failure{{Rank: int(atOp) % 4, AtOp: atOp, Incarnation: 0}},
		}
		res, err := runWithin(cfg, prog)
		if err != nil {
			t.Fatalf("atOp=%d: %v", atOp, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("atOp=%d: values %v != ref %v", atOp, res.Values, ref)
		}
	}
}

// nondetProg: rank 0 draws logged random values and streams them to rank 1.
// Both ranks return the sequence they saw; the protocol must keep the two
// views identical across failures even though raw randomness diverges
// between incarnations.
func nondetProg(iters int) Program {
	return func(r *Rank) (any, error) {
		var it int
		seen := make([]float64, 0, iters)
		r.Register("it", &it)
		r.Register("seen", &seen)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			if r.Rank() == 0 {
				v := r.Random()
				seen = append(seen, v)
				r.Send(1, 1, mpi.F64Bytes([]float64{v}))
			} else {
				seen = append(seen, mpi.BytesF64(r.Recv(0, 1).Data)[0])
			}
			r.Touch("seen")
		}
		return fmt.Sprintf("%.9v", seen), nil
	}
}

func TestNondeterminismReplayKeepsViewsConsistent(t *testing.T) {
	for _, atOp := range []int64{5, 12, 20, 28, 36} {
		for _, failRank := range []int{0, 1} {
			cfg := Config{
				Ranks: 2, Mode: protocol.Full, EveryN: 4, Debug: true,
				Failures: []Failure{{Rank: failRank, AtOp: atOp, Incarnation: 0}},
			}
			res, err := Run(cfg, nondetProg(20))
			if err != nil {
				t.Fatalf("rank=%d atOp=%d: %v", failRank, atOp, err)
			}
			if res.Values[0] != res.Values[1] {
				t.Fatalf("rank=%d atOp=%d: views diverged:\n0: %v\n1: %v",
					failRank, atOp, res.Values[0], res.Values[1])
			}
		}
	}
}

// wildcardProg uses AnySource receives, whose resolution order is a
// non-deterministic decision the log must pin.
func wildcardProg(iters int) Program {
	return func(r *Rank) (any, error) {
		var it int
		var sum float64
		r.Register("it", &it)
		r.Register("sum", &sum)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			if r.Rank() == 0 {
				a := r.Recv(mpi.AnySource, mpi.AnyTag)
				b := r.Recv(mpi.AnySource, mpi.AnyTag)
				// Order-sensitive mixing: breaks if replay resolves the
				// wildcards differently than the original run.
				sum = sum*1.0001 + mpi.BytesF64(a.Data)[0]*2 + mpi.BytesF64(b.Data)[0]*3
			} else {
				r.Send(0, r.Rank(), mpi.F64Bytes([]float64{float64(r.Rank()*100 + it)}))
			}
		}
		return sum, nil
	}
}

func TestWildcardReceiveReplay(t *testing.T) {
	for _, atOp := range []int64{8, 16, 24, 40} {
		cfg := Config{
			Ranks: 3, Mode: protocol.Full, EveryN: 3, Debug: true,
			Failures: []Failure{{Rank: 0, AtOp: atOp, Incarnation: 0}},
		}
		res, err := Run(cfg, wildcardProg(15))
		if err != nil {
			t.Fatalf("atOp=%d: %v", atOp, err)
		}
		// Correctness here is internal consistency: the Debug assertions
		// in the replay path panic on divergence, and the run completing
		// with a finite checksum means all 15 iterations were accounted
		// for on rank 0.
		if _, ok := res.Values[0].(float64); !ok {
			t.Fatalf("atOp=%d: bad value %v", atOp, res.Values[0])
		}
	}
}

// TestChaosRecovery: cross-sender reordering + failures. Which epoch op
// 120 follows depends on the seed's schedule.
func TestChaosRecovery(t *testing.T) {
	prog := ringProg(20, 4)
	ref := runRef(t, Config{Ranks: 4, Mode: protocol.Unmodified}, prog)
	checkReordered(t, Config{
		Ranks: 4, Mode: protocol.Full, EveryN: 3, Debug: true,
	}, 1, prog, ref, []reorderedKill{
		{1, 90, 1}, {2, 90, 1}, {3, 90, 1}, {4, 90, 1}, {5, 90, 1},
		{1, 120, 1}, {2, 120, 1}, {3, 120, 2}, {4, 120, 2}, {5, 120, 1},
	})
}

func TestIsendIrecvAcrossCheckpoints(t *testing.T) {
	// Request pseudo-handles that straddle checkpoints (Section 5.2's
	// transient objects): Irecv posted before the checkpoint, Wait after.
	// The handle and a posted flag are registered state, so a restart
	// resumes Wait on the request revived from the checkpoint's request
	// records instead of re-executing the pre-checkpoint Irecv/Isend —
	// without Position Stack instrumentation, re-running a pre-checkpoint
	// send would duplicate a message the receiver's restored state or log
	// already accounts for (that statement-level resume is exactly what
	// the precompiler's PS instrumentation provides).
	prog := func(r *Rank) (any, error) {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		var it int
		var total float64
		var posted bool
		var h protocol.Handle
		r.Register("it", &it)
		r.Register("total", &total)
		r.Register("posted", &posted)
		r.Register("h", &h)
		for ; it < 20; it++ {
			if !posted {
				h = r.Irecv(prev, 1)
				r.Touch("h") // Handle is a struct, not an exempt scalar
				r.Isend(next, 1, mpi.F64Bytes([]float64{float64(r.Rank()*1000 + it)}))
				posted = true
			}
			r.PotentialCheckpoint()
			m := r.Wait(h)
			posted = false
			total += mpi.BytesF64(m.Data)[0]
		}
		return total, nil
	}
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	for _, atOp := range []int64{7, 19, 33, 52} {
		cfg := Config{
			Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
			Failures: []Failure{{Rank: 2, AtOp: atOp, Incarnation: 0}},
		}
		res, err := Run(cfg, prog)
		if err != nil {
			t.Fatalf("atOp=%d: %v", atOp, err)
		}
		if !reflect.DeepEqual(res.Values, ref) {
			t.Fatalf("atOp=%d: values %v != ref %v", atOp, res.Values, ref)
		}
	}
}

func TestCommDupSurvivesRecovery(t *testing.T) {
	// Persistent opaque objects: a communicator created before the
	// checkpoint must be usable after recovery via call replay.
	prog := func(r *Rank) (any, error) {
		var it int
		var sum float64
		var dup protocol.CommHandle
		r.Register("it", &it)
		r.Register("sum", &sum)
		r.Register("dup", &dup)
		if !r.Restarting() {
			dup = r.CommDup(protocol.WorldComm)
		}
		for ; it < 12; it++ {
			r.PotentialCheckpoint()
			// Use the duplicated communicator directly for a barrier-like
			// allreduce (raw escape hatch, not protocol-managed).
			out := make([]byte, 8)
			r.SubComm(dup).AllreduceInto(out, mpi.F64Bytes([]float64{1}), mpi.SumF64, 0)
			sum += mpi.BytesF64(out)[0]
		}
		return sum, nil
	}
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	cfg := Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 3, Debug: true,
		Failures: []Failure{{Rank: 1, AtOp: 20, Incarnation: 0}},
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
}

func TestStatsPiggybackAccounting(t *testing.T) {
	res, err := Run(Config{Ranks: 2, Mode: protocol.PiggybackOnly}, ringProg(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range res.Stats {
		if s.MessagesSent != 10 {
			t.Fatalf("rank %d sent %d messages", r, s.MessagesSent)
		}
		if s.PiggybackBytes != 40 {
			t.Fatalf("rank %d piggyback bytes = %d", r, s.PiggybackBytes)
		}
		if s.CheckpointsTaken != 0 {
			t.Fatalf("piggyback-only mode took %d checkpoints", s.CheckpointsTaken)
		}
	}
}

func TestHeapSurvivesRecovery(t *testing.T) {
	prog := func(r *Rank) (any, error) {
		var it, blkID int
		r.Register("it", &it)
		r.Register("blkID", &blkID)
		if !r.Restarting() {
			blk := r.Heap().Alloc(8)
			blkID = blk.ID
		}
		for ; it < 10; it++ {
			r.PotentialCheckpoint()
			blk := r.Heap().Lookup(blkID)
			blk.Data[it%8]++
			r.Heap().Touch(blkID)
			r.Barrier()
		}
		sum := 0
		for _, b := range r.Heap().Lookup(blkID).Data {
			sum += int(b)
		}
		return sum, nil
	}
	ref := runRef(t, Config{Ranks: 2, Mode: protocol.Unmodified}, prog)
	cfg := Config{
		Ranks: 2, Mode: protocol.Full, EveryN: 3, Debug: true,
		Failures: []Failure{{Rank: 0, AtOp: 14, Incarnation: 0}},
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
}

// TestHeartbeatDetectorRecovery routes failure detection through the
// heartbeat detector instead of the default instant self-report: the dead
// rank falls silent, the detector suspects it after the timeout, and the
// rollback proceeds identically.
func TestHeartbeatDetectorRecovery(t *testing.T) {
	prog := ringProg(25, 4)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)
	cfg := Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
		DetectorTimeout: 30 * time.Millisecond,
		Failures:        []Failure{{Rank: 1, AtOp: 90, Incarnation: 0}},
	}
	start := time.Now()
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
	// Detection latency is real now: the run must have waited at least one
	// suspicion timeout before rolling back.
	if elapsed := time.Since(start); elapsed < cfg.DetectorTimeout {
		t.Fatalf("run finished in %v, faster than the detection timeout %v", elapsed, cfg.DetectorTimeout)
	}
}

// TestRunsAreDeterministicAcrossRepeats: identical configuration yields
// identical results — the substrate's collectives and matching introduce no
// hidden nondeterminism for deterministic programs.
func TestRunsAreDeterministicAcrossRepeats(t *testing.T) {
	prog := ringProg(15, 8)
	first := runRef(t, Config{Ranks: 4, Mode: protocol.Full, EveryN: 4}, prog)
	for i := 0; i < 3; i++ {
		again := runRef(t, Config{Ranks: 4, Mode: protocol.Full, EveryN: 4}, prog)
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("repeat %d diverged: %v != %v", i, again, first)
		}
	}
}

// TestChaosAllRecovery: the reordering reaches the protocol's own control
// messages, so the coordination must tolerate its control traffic
// interleaving arbitrarily with application messages (the paper's
// no-FIFO-assumption claim applies to the protocol layer itself — it is
// why mySendCount carries an epoch and late/intra counts are kept
// separately). The ring receives with AnyTag, so control messages arrive
// among the ones its wildcard must match, and must not be matched by it.
// At op 70 seeds 4 and 5 have not committed epoch 1 yet.
func TestChaosAllRecovery(t *testing.T) {
	prog := ringRecvTag(20, 4, mpi.AnyTag)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, ringProg(20, 4))
	checkReordered(t, Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
	}, 2, prog, ref, []reorderedKill{
		{1, 70, 1}, {2, 70, 1}, {3, 70, 1}, {4, 70, -1}, {5, 70, -1},
		{1, 120, 2}, {2, 120, 2}, {3, 120, 2}, {4, 120, 1}, {5, 120, 2},
	})
}

// TestInvalidConfigRejected covers Run's argument validation.
func TestInvalidConfigRejected(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}, ringProg(1, 1)); err == nil {
		t.Fatal("zero ranks accepted")
	}
	if _, err := Run(Config{Ranks: -3}, ringProg(1, 1)); err == nil {
		t.Fatal("negative ranks accepted")
	}
}
