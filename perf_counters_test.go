package ccift_test

// The performance gates that are counters, not timings: store reads per
// recovery as the world grows, bytes copied per checkpoint at a fixed dirty
// fraction, and what a collective costs — its rounds and sends in virtual
// time, its allocations. All are functions of the code and the scenario,
// not of the machine, so they are ordinary tests with absolute bounds.
// Everything that is a timing is bench/'s business.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccift"
	"ccift/internal/apps/laplace"
	"ccift/internal/apps/neurosys"
	"ccift/internal/engine"
	"ccift/internal/harness"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/sim"
	"ccift/internal/storage"
)

// keyOps counts store operations by the class of key they touch: a
// content-hashed chunk, a rank's state manifest, log or protocol record, and
// the commit record.
type keyOps struct{ Chunk, State, Log, Meta, Commit int64 }

func (k keyOps) sum() int64 { return k.Chunk + k.State + k.Log + k.Meta + k.Commit }

func (k *keyOps) add(key string) {
	if strings.HasPrefix(key, chunkKeys) {
		k.Chunk++
		return
	}
	kind, _, ok := strings.Cut(key[strings.LastIndexByte(key, '/')+1:], ".")
	switch {
	case !ok:
		k.Commit++
	case kind == string(storage.StateBlob):
		k.State++
	case kind == string(storage.LogBlob):
		k.Log++
	case kind == string(storage.MetaBlob):
		k.Meta++
	}
}

// opCounter is a Stable that counts Puts, dedup probes and Gets by key
// class. Its Has is the dedup probe's own, so a probe never counts as a Get.
type opCounter struct {
	storage.Stable
	mu              sync.Mutex
	puts, has, gets keyOps
}

func (c *opCounter) count(ops *keyOps, key string) {
	c.mu.Lock()
	ops.add(key)
	c.mu.Unlock()
}

func (c *opCounter) Put(key string, data []byte) error {
	c.count(&c.puts, key)
	return c.Stable.Put(key, data)
}

func (c *opCounter) Has(key string) (bool, error) {
	c.count(&c.has, key)
	return storage.Has(c.Stable, key)
}

func (c *opCounter) Get(key string) ([]byte, error) {
	c.count(&c.gets, key)
	return c.Stable.Get(key)
}

// recoveryIters sizes the stencil per world so the program is still
// running well past the crash in virtual time: collectives deepen with
// the world, so bigger worlds need fewer iterations.
func recoveryIters(world int) int {
	switch {
	case world <= 8:
		return 60
	case world <= 64:
		return 40
	default:
		return 20
	}
}

// runCountingReads launches the stencil on the simulated substrate with
// the given crash schedule and returns the result and the number of store
// Gets the whole run made.
func runCountingReads(t *testing.T, world int, crashes []ccift.Crash) (*ccift.Result, int64) {
	t.Helper()
	cs := &opCounter{Stable: storage.NewMemory()}
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(
		ccift.WithRanks(world), ccift.WithMode(ccift.Full), ccift.WithEveryN(2),
		ccift.WithStore(cs),
		ccift.WithSimulated(ccift.Scenario{
			Seed: 4242, Latency: time.Millisecond,
			DetectorTimeout: 25 * time.Millisecond,
			Crashes:         crashes,
		}),
	), stencil(recoveryIters(world), 8))
	if err != nil {
		t.Fatalf("world=%d crashes=%v: %v", world, len(crashes), err)
	}
	return res, cs.gets.sum()
}

// TestRecoveryStoreReadsLinearInRanks: what a death costs the store must
// grow with the world, not with its square. Localized recovery's contract
// is that the supervisor's gather reads O(world) protocol records once,
// survivors restore from their in-memory retained copies (no store reads),
// and only the dead rank's replacement re-reads state; a return to every rank
// scanning every rank's metadata is O(world²) and breaks the bound at 64
// ranks already. Reads per recovery are the faulted run's Gets minus the
// fault-free run's of the same shape (re-executed iterations re-prune, so
// a few reads per rank ride along).
func TestRecoveryStoreReadsLinearInRanks(t *testing.T) {
	// (The 1000-rank world is TestSimulated1000RankWorld, which bounds the
	// reads of its whole run: a second thousand-rank run for the baseline
	// would double the suite's longest test.)
	worlds := []int{8, 64, 256}
	if testing.Short() {
		worlds = worlds[:2]
	}
	for _, world := range worlds {
		t.Run(fmt.Sprint(world), func(t *testing.T) {
			// At 100 ms an epoch has committed at every world size.
			_, base := runCountingReads(t, world, nil)
			res, gets := runCountingReads(t, world, []ccift.Crash{{Rank: 1, At: 100 * time.Millisecond}})
			if res.Restarts != 1 || res.RecoveredEpochs[0] < 1 {
				t.Fatalf("%d restarts from %v, want one rollback to a committed epoch", res.Restarts, res.RecoveredEpochs)
			}
			retained := 0
			for _, s := range res.Stats {
				if s.RecoveredFromRetained > 0 {
					retained++
				}
			}
			if retained != world-1 {
				t.Fatalf("%d retained restores, want every survivor (%d)", retained, world-1)
			}
			reads := gets - base
			// Measured 14 / 70 / 262, the same on every run (the simulated
			// substrate decides them; 15 / 71 / 263 while the state object
			// opened with a header chunk of its own): the bound leaves room
			// for one more read per rank, not for a second scan.
			if bound := int64(3*world + 32); reads < int64(world) || reads > bound {
				t.Fatalf("%d store reads for one recovery of a %d-rank world, want between %d (a protocol record per rank) and %d", reads, world, world, bound)
			}
			t.Logf("world=%d: %d store reads per recovery (%.2f per rank)", world, reads, float64(reads)/float64(world))
		})
	}
}

// TestIncrementalCopyVolumeAtTenPercentDirty: with a tenth of a 4 MB state
// rewritten between checkpoints, an incremental freeze must copy far less
// than the state — the first checkpoint copies everything (there is no
// previous frozen epoch to share), the other fifteen their dirty pages —
// on both layouts dirty tracking knows: heap blocks of one page each, and
// one registered grid tracked page by page through TouchRange. The volume
// is the sharing arithmetic, not the machine: (64 + 15·6) / 16 pages, 15 %
// of the state, whatever the flusher's pace (the programs spin, servicing
// the protocol, until each epoch's checkpoint is taken; which pages an
// epoch dirties depends on the epoch alone).
func TestIncrementalCopyVolumeAtTenPercentDirty(t *testing.T) {
	const (
		pageBytes  = 64 << 10
		pages      = 64
		dirtyPages = pages / 10
		ckpts      = 16
	)
	heapProg := func(r *engine.Rank) (any, error) {
		var it int
		r.Register("it", &it)
		h := r.Heap()
		ids := make([]int, 0, pages)
		for i := 0; i < pages; i++ {
			blk := h.Alloc(pageBytes)
			for j := range blk.Data {
				blk.Data[j] = byte(i*31 + j)
			}
			ids = append(ids, blk.ID)
		}
		for ; r.Epoch() < ckpts; it++ {
			start := r.Epoch() * 7919
			for p := 0; p < dirtyPages; p++ {
				id := ids[(start+p)%pages]
				h.Lookup(id).Data[it%pageBytes]++
				h.Touch(id)
			}
			r.PotentialCheckpoint()
		}
		return nil, nil
	}
	const elemsPerPage = pageBytes / 8
	gridProg := func(r *engine.Rank) (any, error) {
		var it int
		grid := make([]float64, pages*elemsPerPage)
		for i := range grid {
			grid[i] = float64(i)
		}
		r.Register("it", &it)
		r.Register("grid", &grid)
		for ; r.Epoch() < ckpts; it++ {
			start := r.Epoch() * 7919
			for p := 0; p < dirtyPages; p++ {
				off := ((start + p) % pages) * elemsPerPage
				grid[off+it%elemsPerPage]++
				r.TouchRange("grid", off, elemsPerPage)
			}
			r.PotentialCheckpoint()
		}
		return nil, nil
	}
	for name, prog := range map[string]engine.Program{"heap-blocks": heapProg, "paged-grid": gridProg} {
		t.Run(name, func(t *testing.T) {
			res, err := engine.Run(engine.Config{Ranks: 1, Mode: protocol.Full, EveryN: 1}, prog)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats[0]
			if st.CheckpointsTaken != ckpts {
				t.Fatalf("%d checkpoints taken, want %d", st.CheckpointsTaken, ckpts)
			}
			const state = pages * pageBytes
			logical, copied := st.CheckpointBytes/ckpts, st.CheckpointBytesCopied/ckpts
			if logical < state {
				t.Fatalf("a checkpoint of a %d B state holds %d B", state, logical)
			}
			if lo, hi := int64(state/10), int64(state/5); copied < lo || copied > hi {
				t.Fatalf("a freeze copied %d B per checkpoint at 10%% dirty, want between %d and %d (logical: %d)", copied, lo, hi, logical)
			}
		})
	}
}

// simulatedCost runs prog on a fresh simulated cluster with one millisecond
// per hop and nothing else in the schedule, and returns what the run cost
// the substrate: virtual time and frames delivered. Both are functions of
// the program and the mode.
func simulatedCost(t *testing.T, ranks int, mode protocol.Mode, prog engine.Program) (time.Duration, int64) {
	t.Helper()
	s, err := sim.New(ranks, sim.Scenario{Seed: 1, Latency: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	_, err = engine.Run(engine.Config{
		Ranks: ranks, Mode: mode,
		NewTransport: s.NewTransport, Clock: s.DetectorClock(), RankClock: s.RankClock,
		Store: s.WrapStore(storage.NewMemory()),
	}, prog)
	if err != nil {
		t.Fatalf("%d ranks, %v: %v", ranks, mode, err)
	}
	return s.Elapsed(), s.Stats().Delivered
}

// TestCollectiveCostsItsOwnRounds: under the protocol each of the five
// collectives that bring every participant's word to every participant
// takes the rounds and the sends the unmodified program takes — its control
// word rides on its own messages — and each of the five rooted ones takes
// exactly one barrier more, the explicit control exchange. No checkpoint
// is ever requested, so nothing else is on the wire.
func TestCollectiveCostsItsOwnRounds(t *testing.T) {
	const calls = 5
	xs := []float64{1, 2, 3, 4}
	type collective struct {
		name string
		call func(r *engine.Rank)
	}
	// What a call allocates is not what this test counts: buffers are fresh.
	blocks := func(r *engine.Rank) []byte { return make([]byte, 8*r.Size()) }
	riding := []collective{
		{"Allreduce", func(r *engine.Rank) { r.AllreduceF64(xs, mpi.SumF64) }},
		{"Allgather", func(r *engine.Rank) { r.AllgatherF64Into(make([]float64, len(xs)*r.Size()), xs) }},
		{"Alltoall", func(r *engine.Rank) { r.AlltoallInto(blocks(r), blocks(r)) }},
		{"Reducescatter", func(r *engine.Rank) { r.ReducescatterInto(make([]byte, 8), blocks(r), mpi.SumF64) }},
		{"Barrier", (*engine.Rank).Barrier},
	}
	rooted := []collective{
		{"Bcast", func(r *engine.Rank) { r.BcastInto(0, mpi.F64Bytes(xs)) }},
		{"Reduce", func(r *engine.Rank) { r.ReduceInto(0, make([]byte, 32), mpi.F64Bytes(xs), mpi.SumF64) }},
		{"Gather", func(r *engine.Rank) { r.GatherF64Into(0, make([]float64, len(xs)*r.Size()), xs) }},
		{"Scatter", func(r *engine.Rank) { r.ScatterInto(0, make([]byte, 8), blocks(r)) }},
		{"Scan", func(r *engine.Rank) { r.ScanInto(make([]byte, 32), mpi.F64Bytes(xs), mpi.SumF64) }},
	}
	repeat := func(call func(r *engine.Rank)) engine.Program {
		return func(r *engine.Rank) (any, error) {
			for i := 0; i < calls; i++ {
				call(r)
			}
			return nil, nil
		}
	}
	for _, ranks := range []int{2, 8, 64} {
		for _, c := range riding {
			baseT, baseN := simulatedCost(t, ranks, protocol.Unmodified, repeat(c.call))
			fullT, fullN := simulatedCost(t, ranks, protocol.Full, repeat(c.call))
			if fullT != baseT || fullN != baseN {
				t.Fatalf("%s × %d at %d ranks: %v and %d sends in Full mode, %v and %d unmodified — a riding collective must cost no extra round",
					c.name, calls, ranks, fullT, fullN, baseT, baseN)
			}
		}
		for _, c := range rooted {
			plainT, plainN := simulatedCost(t, ranks, protocol.Unmodified, repeat(c.call))
			wantT, wantN := simulatedCost(t, ranks, protocol.Unmodified, repeat(func(r *engine.Rank) { r.Barrier(); c.call(r) }))
			fullT, fullN := simulatedCost(t, ranks, protocol.Full, repeat(c.call))
			if fullT != wantT || fullN != wantN || fullN <= plainN {
				t.Fatalf("%s × %d at %d ranks: %v and %d sends in Full mode, want those of a barrier plus the call (%v, %d; the call alone: %v, %d)",
					c.name, calls, ranks, fullT, fullN, wantT, wantN, plainT, plainN)
			}
		}
	}
}

// protocolCounters is the part of a run's Stats that the protocol alone
// decides: control traffic, the logging phases' contents and the
// checkpoints taken. On virtual time every one of them is a function of the
// program and the scenario seed.
type protocolCounters struct {
	ControlMessages, ControlCollectives, LateLogged, EarlyRecorded,
	EventsLogged, LogBytes, CheckpointsTaken, SuppressedSends int64
}

func countersOf(stats []protocol.Stats) (c protocolCounters) {
	for _, s := range stats {
		c.ControlMessages += s.ControlMessages
		c.ControlCollectives += s.ControlCollectives
		c.LateLogged += s.LateLogged
		c.EarlyRecorded += s.EarlyRecorded
		c.EventsLogged += s.EventsLogged
		c.LogBytes += s.LogBytes
		c.CheckpointsTaken += s.CheckpointsTaken
		c.SuppressedSends += s.SuppressedSends
	}
	return c
}

// TestProtocolCountersOnTheSimulator pins what the protocol does, not how
// fast: the three Figure 8 programs at smoke size, 2 ranks, Full mode on a
// fixed simulated schedule, and the control messages one global checkpoint
// costs as the world grows (Figure 4: every rank's mySendCount to every
// rank, plus the initiator's four phases — n² + 4n). A change in logging
// volume or control traffic fails here instead of getting lost in benchmark
// noise. A collective is logged only when it crosses the recovery line, so
// the smoke runs, whose collectives all run with both ranks in one epoch,
// log nothing from them: each log is its empty layout, one byte per local
// checkpoint.
func TestProtocolCountersOnTheSimulator(t *testing.T) {
	apps := []struct {
		exp  harness.Experiment
		want protocolCounters
	}{
		{harness.CGExperiment(2, harness.Smoke), protocolCounters{
			ControlMessages: 24, LogBytes: 4, CheckpointsTaken: 4}},
		{harness.LaplaceExperiment(2, harness.Smoke), protocolCounters{
			ControlMessages: 40, LogBytes: 6, CheckpointsTaken: 6}},
		{harness.NeurosysExperiment(2, harness.Smoke), protocolCounters{
			ControlMessages: 24, ControlCollectives: 160, LogBytes: 4, CheckpointsTaken: 4}},
	}
	for _, a := range apps {
		size := a.exp.Sizes[0]
		res := launchInProc(t, size.Program,
			ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(size.EveryN),
			ccift.WithSimulated(ccift.Scenario{Seed: 7, Latency: 200 * time.Microsecond}))
		if got := countersOf(res.Stats); got != a.want {
			t.Errorf("%s at smoke size: %#v, want %#v", a.exp.App, got, a.want)
		}
	}
	// Twelve iterations at EveryN 4: two global checkpoints commit, and the
	// third, requested in the last iterations, is declined by every rank
	// whose program has returned — n more requests and n declines.
	for _, n := range []int64{2, 8, 64} {
		res := launchInProc(t, stencil(12, 8),
			ccift.WithRanks(int(n)), ccift.WithMode(ccift.Full), ccift.WithEveryN(4),
			ccift.WithSimulated(ccift.Scenario{Seed: 7, Latency: time.Millisecond}))
		got := countersOf(res.Stats)
		if want := 2*(n*n+4*n) + 2*n; got.CheckpointsTaken != 2*n || got.ControlMessages != want {
			t.Errorf("%d ranks: %d control messages and %d local checkpoints, want %d and %d", n, got.ControlMessages, got.CheckpointsTaken, want, 2*n)
		}
	}
}

// skipAllocationGateUnderRace: the free list is a sync.Pool, which under the
// race detector drops a quarter of what it is given, on purpose.
func skipAllocationGateUnderRace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; the allocation gates run without it")
	}
}

// TestFloatCollectiveAllocations: a float collective allocates its typed
// result and nothing else — the message and the substrate's copy of the
// contribution come from the world's free list and go back when the receiver
// has copied the payload out — and the form that fills a vector the caller
// keeps allocates nothing, under the protocol (not logging) as without it.
// AllocsPerRun counts the whole process, so at 2 ranks a run — one call on
// each — is 2 for the allocating forms. (The parent measured 6 here, three
// per call; the one before it 10, and 16 in Full mode.)
func TestFloatCollectiveAllocations(t *testing.T) {
	skipAllocationGateUnderRace(t)
	const runs = 200
	xs := make([]float64, 512)
	// A gather's senders do not wait for its root. The barrier after it keeps
	// them from running the whole test ahead, where every send would find the
	// free list empty because the root has given nothing back yet — which is
	// how an iterative program calls it: neurosys gathers between allgathers.
	calls := []struct {
		name string
		want float64
		call func(r *engine.Rank, dst []float64)
	}{
		{"AllreduceF64", 2, func(r *engine.Rank, _ []float64) { r.AllreduceF64(xs, mpi.SumF64) }},
		{"AllgatherF64Into", 0, func(r *engine.Rank, dst []float64) { r.AllgatherF64Into(dst, xs) }},
		{"AllreduceF64Into", 0, func(r *engine.Rank, dst []float64) { r.AllreduceF64Into(dst[:len(xs)], xs, mpi.SumF64) }},
		{"GatherF64Into", 0, func(r *engine.Rank, dst []float64) { r.GatherF64Into(0, dst, xs); r.Barrier() }},
	}
	for _, mode := range []protocol.Mode{protocol.Unmodified, protocol.Full} {
		for _, c := range calls {
			var perRun float64
			_, err := engine.Run(engine.Config{Ranks: 2, Mode: mode}, func(r *engine.Rank) (any, error) {
				dst := make([]float64, 2*len(xs))
				if r.Rank() == 0 {
					perRun = testing.AllocsPerRun(runs, func() { c.call(r, dst) })
				} else {
					for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
						c.call(r, dst)
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if perRun > c.want {
				t.Fatalf("%s, %v: %.0f allocations per call pair at 2 ranks, want at most %.0f (the typed results and nothing else)", c.name, mode, perRun, c.want)
			}
		}
	}
}

// TestTypedPointToPointAllocations: a typed send allocates nothing — the
// substrate copies the caller's vector into a message from the world's free
// list, which the receiver gives back once it has decoded the payload — and
// a typed receive allocates its result and nothing else, under the protocol
// (not logging) as without it. A call pair is one ping-pong at 2 ranks: two
// sends and two receives, the receives either into a vector the caller
// keeps (WaitF64Into, so the sends are all that can allocate) or through
// Recv. (When Send handed the substrate a packed copy of its own, each send
// allocated that copy and a message the world could not recycle: 4 and 6.)
func TestTypedPointToPointAllocations(t *testing.T) {
	skipAllocationGateUnderRace(t)
	const runs = 200
	xs := make([]float64, 512)
	recvs := []struct {
		name string
		want float64
		recv func(r *engine.Rank, src int, dst []float64)
	}{
		{"WaitF64Into", 0, func(r *engine.Rank, src int, dst []float64) { r.WaitF64Into(r.Irecv(src, 1), dst) }},
		{"Recv", 2, func(r *engine.Rank, src int, _ []float64) { ccift.Recv[float64](r, src, 1) }},
	}
	for _, mode := range []protocol.Mode{protocol.Unmodified, protocol.Full} {
		for _, c := range recvs {
			var perRun float64
			_, err := engine.Run(engine.Config{Ranks: 2, Mode: mode}, func(r *engine.Rank) (any, error) {
				peer, dst := 1-r.Rank(), make([]float64, len(xs))
				if r.Rank() == 0 {
					perRun = testing.AllocsPerRun(runs, func() { ccift.Send(r, peer, 1, xs); c.recv(r, peer, dst) })
				} else {
					for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
						c.recv(r, peer, dst)
						ccift.Send(r, peer, 1, xs)
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if perRun > c.want {
				t.Fatalf("Send with %s, %v: %.0f allocations per ping-pong at 2 ranks, want at most %.0f (the typed results and nothing else)", c.name, mode, perRun, c.want)
			}
		}
	}
}

// TestSteadyStateRunAllocatesLittle: a whole run of an iterative program
// that keeps its collective results — the neurosys-ctl problem, shortened —
// allocates next to nothing once it is set up, so the collector stays out of
// it: no cycle with or without the protocol. Under it, three local
// checkpoints to disk allocate their frozen views, the flushes' stream and
// head buffers and the Disk's file calls, and the protocol's collectives
// allocate the messages their free lists do not hold yet: 0.55–0.59 MB at
// -cpu 1, 2 and 4, measured on 2 vCPUs, against a bound of 0.65 MB, the
// highest reading and a tenth. Unmodified reads 0.21–0.25 MB, against
// 0.30 MB, the highest and a fifth. While the layer kept every control
// message it read, off the world's free list for good, so that later
// collectives allocated fresh ones, the Full run read 0.71–0.94 MB. While
// each flush took a 256 KiB chunk buffer, from a free list the first
// flushes had to fill — one per rank flushing at once — it was 0.93–1.95
// MB, and 3.4 MB and a cycle when the buffers were allocated per flush.
// Before collectives recycled their messages this run allocated 174 MB
// unmodified and 177 MB in Full mode, over 49–65 cycles.
//
// The cycle count is taken in a process of its own: every goroutine an
// earlier test ran leaves its descriptor live for good (0.55 MB after the
// package's 1000-rank world), the 4 MB minimum heap goal does not grow with
// it, and in the whole package at -cpu 4 the Full run met a cycle at
// 1.95 MB.
func TestSteadyStateRunAllocatesLittle(t *testing.T) {
	skipAllocationGateUnderRace(t)
	if os.Getenv(ownProcessEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.v", fmt.Sprintf("-test.cpu=%d", runtime.GOMAXPROCS(0)))
		cmd.Env = append(os.Environ(), ownProcessEnv+"=1")
		out, err := cmd.CombinedOutput()
		t.Logf("in a process of its own:\n%s", out)
		if err != nil {
			t.Fatalf("in a process of its own: %v", err)
		}
		return
	}
	prog := neurosys.Program(neurosys.Params{K: 32, Iters: 600})
	for _, c := range []struct {
		mode     protocol.Mode
		maxBytes uint64
		maxGCs   uint32
	}{
		{protocol.Unmodified, 300_000, 0},
		{protocol.Full, 650_000, 0},
	} {
		disk, err := storage.NewDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, bytes, gcs, _ := runAllocs(t, engine.Config{Ranks: 4, Mode: c.mode, EveryN: 200, Store: disk}, prog)
		t.Logf("%v: %.2f MB allocated, %d GC cycles", c.mode, float64(bytes)/1e6, gcs)
		if bytes > c.maxBytes || gcs > c.maxGCs {
			t.Fatalf("%v: the run allocated %.2f MB over %d GC cycles, want at most %.2f MB and %d", c.mode,
				float64(bytes)/1e6, gcs, float64(c.maxBytes)/1e6, c.maxGCs)
		}
	}
}

// ownProcessEnv marks the test binary re-run by a test that must measure
// in a process of its own.
const ownProcessEnv = "CCIFT_TEST_OWN_PROCESS"

// runAllocs runs prog under cfg and returns how many allocations, bytes
// and GC cycles the whole process made meanwhile, and the run's result. It
// starts from a collected heap with the free lists' victims gone too, so a
// run starts a full heap-growth allowance away from the next cycle — and
// with a pacer that has forgotten earlier tests. The pacer starts a cycle
// between 70 % and 95 % of the way to the heap goal, the nearer 70 % the
// faster it has seen the program allocate during a mark, and that estimate
// is the largest of the last five cycles' (runtime/mgcpacer.go:
// lastConsMark). After two collections TestSteadyFlushAllocatesNoBuffers'
// estimate was still in place: the next Full neurosys run met a cycle in
// every run of the -count=3 -cpu 1,2,4 gate on 2 vCPUs, and a halo run one
// that emptied the free lists in 3 of 10. Five replace the whole history.
func runAllocs(t *testing.T, cfg engine.Config, prog engine.Program) (mallocs, bytes uint64, gcs uint32, res *engine.Result) {
	t.Helper()
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&before)
	res, err := engine.Run(cfg, prog)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, after.NumGC - before.NumGC, res
}

// TestHaloExchangeAllocatesNothing: the laplace program — Irecv, Isend and
// WaitF64Into straight into the ghost row, every request completed — runs
// an iteration without allocating, unmodified and under the protocol while
// it is not logging: the request states and messages are recycled and no
// AppMessage is built. Two runs that differ by 20000 iterations differ by
// at most about a hundred of the process's allocations, nowhere near one per
// iteration (ten per iteration at 2 ranks before the recycling: per rank a
// message, its payload, an AppMessage and two request states). What is left
// is the runtime's: a rank that parks on its mailbox takes a sudog, and the
// per-P caches the collections emptied refill as the ranks meet on different
// Ps — up to 76 at 2000 iterations, which failed the bound in up to 3 of 10
// runs of the -count=3 -cpu 1,2,4 gate, up to 116 at 20000, and once 238
// under a loaded machine. That share only ever adds to a run, so each length
// runs several times and counts its fewest allocations: an allocation per
// iteration is in every run, the runtime's refills are not.
func TestHaloExchangeAllocatesNothing(t *testing.T) {
	skipAllocationGateUnderRace(t)
	const extra, runs = 20000, 5
	fewest := func(cfg engine.Config, iters int) uint64 {
		least := uint64(math.MaxUint64)
		for range runs {
			n, _, _, _ := runAllocs(t, cfg, laplace.Program(laplace.Params{N: 32, Iters: iters}))
			least = min(least, n)
		}
		return least
	}
	for _, mode := range []protocol.Mode{protocol.Unmodified, protocol.Full} {
		cfg := engine.Config{Ranks: 2, Mode: mode} // no trigger: Full never logs
		short, long := fewest(cfg, 10), fewest(cfg, 10+extra)
		if perIter := (float64(long) - float64(short)) / extra; perIter >= 0.01 {
			t.Fatalf("%v: %.3f allocations per halo iteration (%d more over %d iterations), want none", mode, perIter, long-short, extra)
		}
	}
}

// chunkless keeps everything a run stores except chunk contents: a chunk's
// Put records its key only, so what a checkpoint allocates is the flush's
// own doing, not a store's copy of the state.
type chunkless struct {
	*storage.Memory
	mu     sync.Mutex
	chunks map[string]bool
}

var chunkKeys = strings.TrimSuffix(storage.ChunkRef{}.Key(), storage.ChunkRef{}.Hex())

func (c *chunkless) Put(key string, data []byte) error { return c.PutParts(key, data) }

func (c *chunkless) PutParts(key string, parts ...[]byte) error {
	if !strings.HasPrefix(key, chunkKeys) {
		return c.Memory.PutParts(key, parts...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.chunks[key] = true
	return nil
}

func (c *chunkless) Has(key string) (bool, error) {
	if !strings.HasPrefix(key, chunkKeys) {
		return c.Memory.Has(key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.chunks[key], nil
}

func (c *chunkless) Delete(key string) error {
	c.mu.Lock()
	delete(c.chunks, key)
	c.mu.Unlock()
	return c.Memory.Delete(key)
}

// TestSteadyFlushAllocatesNoBuffers: once the first checkpoints have filled
// the free lists, a Full checkpoint of a 1 MB state (Laplace's grid, 2 MB
// while its sweep target was saved too) allocates neither chunk buffers
// (256 KB each; a flush lends the store its frozen pages instead) nor float
// conversion scratch (8 KB per 64 KB page before, 17 pages here): what is
// left per checkpoint is the header, the manifest, the chunk keys and the
// protocol's messages. Two runs that differ only in how often they
// checkpoint tell what one more checkpoint costs: 32–35 KB of the 1 MB
// state (33–57 KB while chunk buffers came from a free list), 42–66 KB of
// the 2 MB one, measured on 2 vCPUs at -cpu 1, 2 and 4, where buffers
// allocated per flush made it 860 KB. (A float scratch per page brought the
// 2 MB state's to ≈ 335 KB, chunk buffers per flush to ≈ 566 KB.)
func TestSteadyFlushAllocatesNoBuffers(t *testing.T) {
	skipAllocationGateUnderRace(t)
	prog := laplace.Program(laplace.Params{N: 512, Iters: 300})
	run := func(everyN int) (uint64, int64) {
		store := &chunkless{Memory: storage.NewMemory(), chunks: map[string]bool{}}
		_, bytes, _, res := runAllocs(t, engine.Config{Ranks: 2, Mode: protocol.Full, EveryN: everyN, Store: store}, prog)
		return bytes, res.Stats[0].CheckpointsTaken + res.Stats[1].CheckpointsTaken
	}
	fewBytes, few := run(100)
	manyBytes, many := run(10)
	if many <= few {
		t.Fatalf("%d local checkpoints at EveryN 10, %d at 100", many, few)
	}
	perCkpt := (float64(manyBytes) - float64(fewBytes)) / float64(many-few)
	t.Logf("%.0f KB per local checkpoint (%d vs %d checkpoints)", perCkpt/1e3, many, few)
	if perCkpt > 160e3 {
		t.Fatalf("a steady-state local checkpoint of a 1 MB state allocated %.0f KB, want under 160 KB (no chunk buffer, no float scratch)", perCkpt/1e3)
	}
}

// TestFirstCheckpointAllocatesItsFrozenCopy: the first Full checkpoint of a
// Laplace rank (N=384 over 2 ranks, a 590 KB grid each) allocates the
// frozen copy of its state — the pool has no slab yet — and next to nothing
// else: the flush hashes and stores the frozen pages where they are, so no
// chunk buffer is made. A run with one checkpoint and the same run with none
// tell what the checkpoint cost; less its frozen copy it is under 64 KiB per
// rank (35–43 KiB measured on 2 vCPUs at -cpu 1, 2 and 4: the stream and
// head buffers, the view's page table, the protocol's record), where the
// chunk buffers a flush took, one or two of 256 KiB, made it 288–417 KiB.
func TestFirstCheckpointAllocatesItsFrozenCopy(t *testing.T) {
	skipAllocationGateUnderRace(t)
	const ranks = 2
	prog := laplace.Program(laplace.Params{N: 384, Iters: 40})
	run := func(everyN int) (bytes uint64, copied, taken int64) {
		store := &chunkless{Memory: storage.NewMemory(), chunks: map[string]bool{}}
		_, bytes, _, res := runAllocs(t, engine.Config{Ranks: ranks, Mode: protocol.Full, EveryN: everyN, Store: store}, prog)
		for _, s := range res.Stats {
			copied += s.CheckpointBytesCopied
			taken += s.CheckpointsTaken
		}
		return bytes, copied, taken
	}
	none, _, taken := run(0)
	if taken != 0 {
		t.Fatalf("%d local checkpoints with no trigger", taken)
	}
	one, copied, taken := run(30)
	if taken != ranks {
		t.Fatalf("%d local checkpoints at EveryN 30, want one per rank", taken)
	}
	extra := (float64(one) - float64(none) - float64(copied)) / ranks
	t.Logf("the first checkpoint allocated %.0f KiB per rank beside its %.0f KiB frozen copy", extra/1024, float64(copied)/ranks/1024)
	if extra >= 64<<10 {
		t.Fatalf("the first checkpoint allocated %.0f KiB per rank beside its frozen copy, want under 64 KiB (no chunk buffer)", extra/1024)
	}
}

// TestReduceLeafForwardsItsData: in the binomial tree only a rank with a
// child's contribution to combine needs an accumulator — the root combines
// into the dst it brings, an interior rank (rank 2 of 4) into the one its
// communicator keeps, and a leaf forwards its data — so with the message
// and the send copy recycled a steady-state call allocates nothing at 2
// ranks or at 4; the barrier keeps the leaves from running ahead of the
// root's releases. (Measured 0 and 0 at -cpu 1, 2 and 4. When Reduce
// returned a fresh result the root allocated it and rank 2 its
// accumulator, 1 and 2; before that every rank made an accumulator, beside
// a message and a copy per send. Which ranks keep one is internal/mpi's
// TestOnlyInteriorRanksKeepAnAccumulator.)
func TestReduceLeafForwardsItsData(t *testing.T) {
	skipAllocationGateUnderRace(t)
	const runs = 200
	for _, ranks := range []int{2, 4} {
		var perRun float64
		w := mpi.NewWorld(ranks, mpi.Options{})
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(c *mpi.Comm) {
				defer wg.Done()
				data := make([]byte, 512)
				var dst []byte
				if c.Rank() == 0 {
					dst = make([]byte, len(data))
				}
				call := func() {
					c.ReduceInto(0, dst, data, mpi.SumF64)
					c.Barrier(0)
				}
				if c.Rank() == 0 {
					perRun = testing.AllocsPerRun(runs, call)
					return
				}
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
					call()
				}
			}(w.Comm(r))
		}
		wg.Wait()
		if perRun != 0 {
			t.Fatalf("Reduce at %d ranks: %.2f allocations per call across the world, want none", ranks, perRun)
		}
	}
}

// TestReductionOperatorsMatchPerElementReference: the operators' typed loops
// agree bit for bit with the per-element implementation they replaced — one
// closure call per lane over encoding/binary — on vectors that include NaN,
// ±0 and ±Inf. math.Max / math.Min semantics are the contract (Max(NaN,
// +Inf) is +Inf, Max(-0, +0) is +0), not those of the max and min builtins.
func TestReductionOperatorsMatchPerElementReference(t *testing.T) {
	refF64 := func(f func(a, b float64) float64) func(dst, src []byte) {
		return func(dst, src []byte) {
			for i := 0; i+8 <= len(dst); i += 8 {
				a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
				b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
				binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(f(a, b)))
			}
		}
	}
	refI64 := func(f func(a, b int64) int64) func(dst, src []byte) {
		return func(dst, src []byte) {
			for i := 0; i+8 <= len(dst); i += 8 {
				a := int64(binary.LittleEndian.Uint64(dst[i:]))
				b := int64(binary.LittleEndian.Uint64(src[i:]))
				binary.LittleEndian.PutUint64(dst[i:], uint64(f(a, b)))
			}
		}
	}
	ops := []struct {
		name string
		op   mpi.Op
		ref  func(dst, src []byte)
	}{
		{"SumF64", mpi.SumF64, refF64(func(a, b float64) float64 { return a + b })},
		{"MaxF64", mpi.MaxF64, refF64(math.Max)},
		{"MinF64", mpi.MinF64, refF64(math.Min)},
		{"SumI64", mpi.SumI64, refI64(func(a, b int64) int64 { return a + b })},
		{"MinI64", mpi.MinI64, refI64(func(a, b int64) int64 {
			if b < a {
				return b
			}
			return a
		})},
		{"MaxI64", mpi.MaxI64, refI64(func(a, b int64) int64 {
			if b > a {
				return b
			}
			return a
		})},
	}
	special := []uint64{
		math.Float64bits(math.NaN()), 0x7FF8000000000001, 0xFFF0000000000001, // NaNs, one signalling
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0, 1 << 63, // +0, -0
		1, math.MaxUint64, 1 << 62, // denormal; as integers: -1 and a sum that overflows
	}
	rng := rand.New(rand.NewSource(25))
	lane := func() uint64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Uint64()
	}
	for _, o := range ops {
		for trial := 0; trial < 200; trial++ {
			// Trailing bytes short of a lane are left alone by both.
			n := 8*rng.Intn(40) + rng.Intn(2)*3
			dst, src := make([]byte, n), make([]byte, n)
			for i := 0; i+8 <= n; i += 8 {
				binary.LittleEndian.PutUint64(dst[i:], lane())
				binary.LittleEndian.PutUint64(src[i:], lane())
			}
			want := append([]byte(nil), dst...)
			o.ref(want, src)
			o.op.Combine(dst, src)
			if !bytes.Equal(dst, want) {
				t.Fatalf("%s, trial %d: %x, the per-element reference gives %x", o.name, trial, dst, want)
			}
		}
	}
}

// TestStoreOpsPerCheckpointOnTheSimulator pins what a local checkpoint asks
// of the store: the Puts and dedup probes of the three Figure 8 programs at
// smoke size, 2 ranks, on the schedule of TestProtocolCountersOnTheSimulator,
// per key class, in Full and NoAppState mode — totals over the run, so a
// count divided by the run's local checkpoints is what one rank's
// checkpoint costs — and, in Full mode, the Gets of a replacement restoring rank 1
// from the committed epoch the run leaves behind (its slice of the recovery
// gather, then RestoreFrom with nothing retained, then a freeze, which reads
// the chunks of every large value no registration took). The simulated store makes
// every dedup probe's answer a function of the virtual timeline, so the
// counts are exact: a key written or read once more per checkpoint fails
// here. A local checkpoint is one state manifest and its chunks (Full mode
// only), the rank's log and its protocol record; the global checkpoint adds
// one commit record. (When the protocol section still opened the state
// object, it cost every checkpoint one more chunk probe and — unless both
// ranks wrote the same bytes in an epoch, as Neurosys's did in two of its
// four — one more chunk Put, and NoAppState mode a state object of its own;
// the replacement read that chunk back.)
func TestStoreOpsPerCheckpointOnTheSimulator(t *testing.T) {
	type row struct {
		exp         harness.Experiment
		mode        ccift.Mode
		ckpts       int64
		puts, has   keyOps
		replacement keyOps // Gets; Full mode only
		copied      int64  // bytes the freezes copied, both ranks
	}
	// Laplace's sweep target is dead at its checkpoint (the precompiler
	// leaves it out): with it registered the Full row was 24 chunk Puts, 36
	// probes, 6 replacement Gets and 208986 bytes copied.
	rows := []row{
		{harness.CGExperiment(2, harness.Smoke), ccift.Full, 4,
			keyOps{Chunk: 14, State: 4, Log: 4, Meta: 4, Commit: 2}, keyOps{Chunk: 20},
			keyOps{Chunk: 5, State: 1, Log: 1}, 139374},
		{harness.LaplaceExperiment(2, harness.Smoke), ccift.Full, 6,
			keyOps{Chunk: 22, State: 6, Log: 6, Meta: 6, Commit: 3}, keyOps{Chunk: 30},
			keyOps{Chunk: 5, State: 1, Log: 1}, 104814},
		{harness.NeurosysExperiment(2, harness.Smoke), ccift.Full, 4,
			keyOps{Chunk: 6, State: 4, Log: 4, Meta: 4, Commit: 2}, keyOps{Chunk: 12},
			keyOps{Chunk: 3, State: 1, Log: 1}, 6198},
		{harness.CGExperiment(2, harness.Smoke), ccift.NoAppState, 4,
			keyOps{Log: 4, Meta: 4, Commit: 2}, keyOps{}, keyOps{}, 0},
		{harness.LaplaceExperiment(2, harness.Smoke), ccift.NoAppState, 6,
			keyOps{Log: 6, Meta: 6, Commit: 3}, keyOps{}, keyOps{}, 0},
		{harness.NeurosysExperiment(2, harness.Smoke), ccift.NoAppState, 4,
			keyOps{Log: 4, Meta: 4, Commit: 2}, keyOps{}, keyOps{}, 0},
	}
	for _, r := range rows {
		size := r.exp.Sizes[0]
		s, err := sim.New(2, sim.Scenario{Seed: 7, Latency: 200 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		// Above the simulated store, which answers a probe of a key this run
		// stored without asking the store below it.
		st := &opCounter{Stable: s.WrapStore(storage.NewMemory())}
		res, err := engine.Run(engine.Config{
			Ranks: 2, Mode: r.mode, EveryN: size.EveryN, Store: st,
			NewTransport: s.NewTransport, Clock: s.DetectorClock(), RankClock: s.RankClock,
		}, size.Program)
		s.Stop()
		if err != nil {
			t.Fatalf("%s, %v: %v", r.exp.App, r.mode, err)
		}
		ckpts := countersOf(res.Stats).CheckpointsTaken
		var copied int64
		for _, s := range res.Stats {
			copied += s.CheckpointBytesCopied
		}
		t.Logf("%s, %v: %d local checkpoints; Puts %+v, Has %+v; %d B copied", r.exp.App, r.mode, ckpts, st.puts, st.has, copied)
		if ckpts != r.ckpts || st.puts != r.puts || st.has != r.has || copied != r.copied {
			t.Errorf("%s, %v: %d local checkpoints with Puts %#v and Has %#v, %d B copied; want %d with %#v and %#v, %d B",
				r.exp.App, r.mode, ckpts, st.puts, st.has, copied, r.ckpts, r.puts, r.has, r.copied)
		}
		if r.mode != ccift.Full {
			continue
		}
		cs := storage.NewCheckpointStore(st)
		epoch, ok, err := cs.Committed()
		if err != nil || !ok {
			t.Fatalf("%s: no committed epoch (%v)", r.exp.App, err)
		}
		plan, err := protocol.GatherRecovery(cs, epoch, 2)
		if err != nil {
			t.Fatal(err)
		}
		st.gets = keyOps{}
		l := protocol.NewLayer(mpi.NewWorld(2, mpi.Options{}).Comm(1), protocol.Config{Mode: protocol.Full, Store: cs})
		if err := l.RestoreFrom(plan.ForRank(1), nil); err != nil {
			t.Fatal(err)
		}
		// No program registers here, so the next freeze reads every large
		// value's chunks, as it would for a registration that never came.
		f, err := l.Saver.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
		t.Logf("%s: the replacement's Gets %+v", r.exp.App, st.gets)
		if st.gets != r.replacement {
			t.Errorf("%s: a replacement restoring epoch %d made Gets %#v, want %#v", r.exp.App, epoch, st.gets, r.replacement)
		}
	}
}
