package launch_test

// End-to-end distributed recovery: the test binary re-execs itself as the
// worker (TestMain's IsWorker branch), so every rank is a real OS process
// and a kill plan is a real SIGKILL. The assertions pin the acceptance
// criteria: the doomed rank demonstrably dies by signal, the survivors roll
// the job back, and the recovered run's output is identical to a fault-free
// run's.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"ccift/internal/apps"
	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/launch"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Worker parameters shared by every spawned rank (the worker rebuilds the
// same program the launcher-side assertions assume).
const (
	testRanks  = 4
	testSize   = 64
	testIters  = 40
	testEveryN = 10
)

// envVariant selects the worker configuration for a whole launch.Run: the
// launcher process sets it (t.Setenv) and every spawned worker inherits it.
//
//   - "" (default): the asynchronous checkpoint pipeline, as production
//     workers run it.
//   - "sync": the classic blocking write path. The op-calibrated
//     commit-timing assertions (kill at op N ⇒ a checkpoint has committed)
//     only hold when the rank blocks through serialize+fsync; under async
//     the rank races ahead of its own flush, so those tests pin the sync
//     baseline.
//   - "kill-mid-flush": async, and the doomed rank SIGKILLs itself the
//     moment its epoch-2 state manifest write begins — a real process
//     death with a checkpoint flush in flight by construction. Runs the
//     long program: epoch 2 must demonstrably begin while every rank is
//     still computing, which the short program cannot guarantee (a rank
//     that has finished its loop takes no further checkpoints).
//   - "kill-mid-flush-incremental": the same crash window with dirty-region
//     freezing enabled, so the flush that dies is an incremental epoch
//     sharing the previous epoch's frozen slabs; recovery must still come
//     from the prior commit with identical output (laplace honors the
//     Touch contract).
//   - "long-baseline": the long program fault-free, for the mid-flush
//     tests' output comparison.
const envVariant = "CCIFT_TEST_WORKER_VARIANT"

// testLongIters sizes the "kill-mid-flush"/"long-baseline" program so the
// epoch-1 commit → epoch-2 checkpoint sequence (a few storage fsyncs)
// completes while hundreds of iterations still remain, on any plausibly
// slow machine.
const testLongIters = 400

// killOnPut SIGKILLs the process when a write to key begins: the flusher
// goroutine dies mid-checkpoint, exactly like a machine crash during the
// overlapped state write.
type killOnPut struct {
	storage.Stable
	key string
}

func (k killOnPut) Put(key string, data []byte) error {
	if key == k.key {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL cannot be handled
	}
	return k.Stable.Put(key, data)
}

// launcherEnv is the launcher's whole contract with a worker process. The
// kill plan, the recovery inputs and the peers' addresses travel in the
// control stream's start frame, never in the environment, so no other
// CCIFT_ variable may appear (CCIFT_FREEZE_CROSSCHECK, the test suites'
// verifier soak, is the operator's, inherited by workers). CCIFT_INCARNATION is the incarnation
// the process was spawned into, which the kill-mid-flush variant reads.
var launcherEnv = map[string]bool{
	"CCIFT_WORKER": true, "CCIFT_RANK": true, "CCIFT_RANKS": true, "CCIFT_INCARNATION": true,
	"CCIFT_STORE_DIR": true, "CCIFT_DETECTOR_MS": true, "CCIFT_STATS_FD": true, "CCIFT_CONTROL_FD": true,
	"CCIFT_FREEZE_CROSSCHECK": true,
}

func TestMain(m *testing.M) {
	// Workers write their checkpoints to Disk with the chunk writers'
	// released buffers poisoned: a chunk Disk had not copied would fail the
	// replacement's verified restore.
	storage.PoisonReleasedChunks()
	if launch.IsWorker() {
		for _, kv := range os.Environ() {
			name, _, _ := strings.Cut(kv, "=")
			if strings.HasPrefix(name, "CCIFT_") && !strings.HasPrefix(name, "CCIFT_TEST_") && !launcherEnv[name] {
				fmt.Fprintf(os.Stderr, "worker environment carries %s, which is not one of the launcher's eight variables\n", name)
				os.Exit(2)
			}
		}
		variant := os.Getenv(envVariant)
		iters := testIters
		if strings.HasPrefix(variant, "kill-mid-flush") || variant == "long-baseline" {
			iters = testLongIters
		}
		prog, _, err := apps.Build("laplace", testRanks, testSize, iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		app := launch.WorkerApp{Prog: prog, EveryN: testEveryN, Mode: protocol.Full}
		switch variant {
		case "sync":
			app.Policy.Sync = true
		case "kill-mid-flush", "kill-mid-flush-incremental":
			app.Policy.FullFreeze = variant != "kill-mid-flush-incremental"
			// Only the first incarnation's rank 2 is doomed: epoch numbers
			// restart below the trigger after recovery, so an unconditional
			// trap would kill every re-spawn at its epoch-2 flush forever.
			if os.Getenv("CCIFT_RANK") == "2" && os.Getenv("CCIFT_INCARNATION") == "0" {
				app.WrapStore = func(s storage.Stable) storage.Stable {
					return killOnPut{Stable: s, key: storage.StateKey(2, 2)}
				}
			}
		}
		launch.WorkerMain(app)
	}
	os.Exit(m.Run())
}

func runLaplace(t *testing.T, kills []launch.KillSpec) *launch.Result {
	t.Helper()
	res, err := launch.Run(launch.Config{
		Ranks:  testRanks,
		Kills:  kills,
		Stderr: io.Discard,
	})
	if err != nil {
		t.Fatalf("launch.Run(kills=%v): %v", kills, err)
	}
	return res
}

func TestDistributedFaultFree(t *testing.T) {
	res := runLaplace(t, nil)
	if res.Restarts != 0 {
		t.Fatalf("fault-free run restarted %d times", res.Restarts)
	}
	if !strings.HasPrefix(res.Output, "result: ") {
		t.Fatalf("rank 0 output %q, want a result line", res.Output)
	}
	for r, e := range res.Incarnations[0].Exits {
		if e != "exit status 0" {
			t.Fatalf("rank %d exited %q in a fault-free run", r, e)
		}
	}
}

func TestDistributedSIGKILLRecovery(t *testing.T) {
	// Sync write path: the late-kill assertion below (op 300 ⇒ a commit has
	// landed) is calibrated against ranks that block through their
	// checkpoint write. TestDistributedKillMidFlush covers the async
	// pipeline's crash window.
	t.Setenv(envVariant, "sync")
	baseline := runLaplace(t, nil)

	// Kill rank 2's process at its op 100 — before the first commit, so the
	// re-spawned incarnation restarts from the beginning.
	early := runLaplace(t, []launch.KillSpec{{Rank: 2, AtOp: 100, Incarnation: 0}})
	if early.Restarts != 1 {
		t.Fatalf("early kill: %d restarts, want 1", early.Restarts)
	}
	if got := early.Incarnations[0].Exits[2]; got != "signal: killed" {
		t.Fatalf("doomed rank exited %q, want a real SIGKILL (signal: killed)", got)
	}
	// Survivors never exit mid-job — they
	// park, receive the launcher's recovery slice, and rejoin the next
	// incarnation's mesh in the same OS process.
	for _, r := range []int{0, 1, 3} {
		if got := early.Incarnations[0].Exits[r]; got != "" {
			t.Fatalf("survivor rank %d exited %q in incarnation 0, want no exit (survivors stay alive)", r, got)
		}
		if p0, p1 := early.Incarnations[0].PIDs[r], early.Incarnations[1].PIDs[r]; p0 != p1 {
			t.Fatalf("survivor rank %d changed pid %d -> %d across the restart; survivors must not be re-execed", r, p0, p1)
		}
	}
	if p0, p1 := early.Incarnations[0].PIDs[2], early.Incarnations[1].PIDs[2]; p0 == p1 {
		t.Fatalf("doomed rank kept pid %d across the restart; a SIGKILLed rank must be a fresh process", p0)
	}
	if early.Output != baseline.Output {
		t.Fatalf("recovered output %q != fault-free output %q", early.Output, baseline.Output)
	}

	// Kill late enough that a global checkpoint has committed: recovery
	// must restore from it rather than restarting from scratch.
	late := runLaplace(t, []launch.KillSpec{{Rank: 2, AtOp: 300, Incarnation: 0}})
	if late.Restarts != 1 {
		t.Fatalf("late kill: %d restarts, want 1", late.Restarts)
	}
	if len(late.RecoveredEpochs) != 1 || late.RecoveredEpochs[0] < 1 {
		t.Fatalf("late kill recovered epochs %v, want one committed epoch >= 1", late.RecoveredEpochs)
	}
	if late.Output != baseline.Output {
		t.Fatalf("checkpoint-recovered output %q != fault-free output %q", late.Output, baseline.Output)
	}
}

// TestReusedStoreIgnoresStaleCommit: a checkpoint directory left over from
// a previous job must not leak into a new one, on any substrate — the
// supervisor clears the commit record before its first incarnation. The
// first job commits checkpoints into the store; the second job (same
// directory) is killed before its own first commit, so its rollback must
// restart from the beginning — RecoveredEpochs[-1] would instead name the
// previous job's final epoch if the stale commit record were honored.
func TestReusedStoreIgnoresStaleCommit(t *testing.T) {
	t.Setenv(envVariant, "sync") // op-calibrated commit timing, as above
	prog, _, err := apps.Build("laplace", testRanks, testSize, testIters)
	if err != nil {
		t.Fatal(err)
	}
	// Each substrate runs one job over the store directory with one kill
	// and reports what the supervisor recovered from and the result.
	substrates := map[string]func(store string, kills []launch.KillSpec) (*engine.Result, string, error){
		"distributed": func(store string, kills []launch.KillSpec) (*engine.Result, string, error) {
			res, err := launch.Run(launch.Config{Ranks: testRanks, StoreDir: store, Kills: kills, Stderr: io.Discard})
			if err != nil {
				return nil, "", err
			}
			return &res.Result, res.Output, nil
		},
		"in-process": func(store string, kills []launch.KillSpec) (*engine.Result, string, error) {
			disk, err := storage.NewDisk(store)
			if err != nil {
				return nil, "", err
			}
			res, err := engine.Run(engine.Config{Ranks: testRanks, Mode: protocol.Full, EveryN: testEveryN,
				Store: disk, Policy: protocol.Policy{Sync: true}, Failures: kills}, prog)
			if err != nil {
				return nil, "", err
			}
			return res, fmt.Sprint(res.Values[0]), nil
		},
	}
	for name, run := range substrates {
		t.Run(name, func(t *testing.T) {
			_, baseline, err := run(filepath.Join(t.TempDir(), "ckpt"), nil)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			store := filepath.Join(t.TempDir(), "ckpt")
			first, _, err := run(store, []launch.KillSpec{{Rank: 2, AtOp: 300, Incarnation: 0}})
			if err != nil {
				t.Fatalf("first job: %v", err)
			}
			if len(first.RecoveredEpochs) != 1 || first.RecoveredEpochs[0] < 1 {
				t.Fatalf("first job recovered epochs %v, want a committed epoch (the store must hold commits)", first.RecoveredEpochs)
			}
			second, output, err := run(store, []launch.KillSpec{{Rank: 2, AtOp: 100, Incarnation: 0}})
			if err != nil {
				t.Fatalf("second job: %v", err)
			}
			if len(second.RecoveredEpochs) != 1 || second.RecoveredEpochs[0] != -1 {
				t.Fatalf("second job recovered epochs %v, want [-1]: the previous job's commit record leaked in", second.RecoveredEpochs)
			}
			if output != baseline {
				t.Fatalf("second job output %q != fault-free output %q", output, baseline)
			}
		})
	}
}

// TestDistributedKillMidFlush: SIGKILL a rank while its asynchronous
// checkpoint flush is in flight — the kill fires from inside the flusher's
// epoch-2 state-manifest write, so the flush is provably incomplete — and
// assert the job recovers from the previous committed epoch with output
// identical to a fault-free run. Epoch 1 is committed by protocol
// invariant before any rank can begin checkpoint 2 (the initiator starts a
// new global checkpoint only after the previous one's commit record is
// durable), and epoch 2 can never commit because the dead rank's manifest
// was never written: recovery from exactly epoch 1 is deterministic.
func TestDistributedKillMidFlush(t *testing.T) {
	t.Setenv(envVariant, "long-baseline")
	baseline := runLaplace(t, nil)
	// The same crash window twice: full freezes, then dirty-region
	// incremental freezes — a real SIGKILL inside an incremental epoch
	// whose flush shares the previous epoch's slabs must still recover
	// from the prior commit with byte-identical output.
	for _, variant := range []string{"kill-mid-flush", "kill-mid-flush-incremental"} {
		t.Run(variant, func(t *testing.T) {
			t.Setenv(envVariant, variant)
			res, err := launch.Run(launch.Config{Ranks: testRanks, Stderr: io.Discard})
			if err != nil {
				t.Fatalf("launch.Run: %v", err)
			}
			if res.Restarts != 1 {
				t.Fatalf("%d restarts, want 1", res.Restarts)
			}
			if got := res.Incarnations[0].Exits[2]; got != "signal: killed" {
				t.Fatalf("doomed rank exited %q, want signal: killed", got)
			}
			if len(res.RecoveredEpochs) != 1 || res.RecoveredEpochs[0] != 1 {
				t.Fatalf("recovered epochs %v, want [1]: a crash mid-flush must fall back to the previous committed epoch, never the one in flight", res.RecoveredEpochs)
			}
			if res.Output != baseline.Output {
				t.Fatalf("recovered output %q != fault-free output %q", res.Output, baseline.Output)
			}
		})
	}
}

// TestDistributedStatsCrossProcess pins the stats-aggregation regression:
// per-rank protocol counters must cross the process boundary, so a
// distributed Result carries a populated snapshot for every rank — the
// exact gap that left fig8 -distributed printing empty stats tables.
func TestDistributedStatsCrossProcess(t *testing.T) {
	var mu sync.Mutex
	var frames []protocol.StatsFrame
	res, err := launch.Run(launch.Config{
		Ranks:  testRanks,
		Stderr: io.Discard,
		StatsSink: func(f protocol.StatsFrame) {
			mu.Lock()
			frames = append(frames, f)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("launch.Run: %v", err)
	}
	if len(res.Stats) != testRanks || len(res.PerRank) != testRanks {
		t.Fatalf("Stats has %d entries, PerRank %d, want %d each",
			len(res.Stats), len(res.PerRank), testRanks)
	}
	for r, s := range res.Stats {
		if s.MessagesSent <= 0 {
			t.Errorf("rank %d: MessagesSent = %d, want > 0 (stats did not cross the process boundary)",
				r, s.MessagesSent)
		}
		if s.CheckpointsTaken <= 0 {
			t.Errorf("rank %d: CheckpointsTaken = %d, want > 0", r, s.CheckpointsTaken)
		}
		if pr := res.PerRank[r]; pr.Rank != r || pr.Incarnation != 0 || pr.Stats != s {
			t.Errorf("PerRank[%d] = {rank %d inc %d}, disagrees with Stats[%d]", r, pr.Rank, pr.Incarnation, r)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(frames) < testRanks {
		t.Fatalf("StatsSink saw %d frames, want at least one per rank", len(frames))
	}
}

// TestDistributedStatsSurviveRestart: after a SIGKILL and rollback, the
// final Result reports the FINAL incarnation's counters for every rank.
func TestDistributedStatsSurviveRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two incarnations of real processes")
	}
	res := runLaplace(t, []launch.KillSpec{{Rank: 2, AtOp: 100, Incarnation: 0}})
	if res.Restarts != 1 {
		t.Fatalf("%d restarts, want 1", res.Restarts)
	}
	if len(res.PerRank) != testRanks {
		t.Fatalf("PerRank has %d entries, want %d", len(res.PerRank), testRanks)
	}
	for r, pr := range res.PerRank {
		if pr.Incarnation != 1 {
			t.Errorf("rank %d: final stats from incarnation %d, want 1 (the recovered run)", r, pr.Incarnation)
		}
		if pr.Stats.MessagesSent <= 0 {
			t.Errorf("rank %d: MessagesSent = %d, want > 0", r, pr.Stats.MessagesSent)
		}
	}
}

func TestDistributedKillChain(t *testing.T) {
	if testing.Short() {
		t.Skip("three incarnations of real processes; covered by the single-kill test in -short")
	}
	baseline := runLaplace(t, nil)
	res := runLaplace(t, []launch.KillSpec{
		{Rank: 2, AtOp: 300, Incarnation: 0},
		{Rank: 1, AtOp: 80, Incarnation: 1}, // recovery from recovery
	})
	if res.Restarts != 2 {
		t.Fatalf("%d restarts, want 2", res.Restarts)
	}
	if got := res.Incarnations[1].Exits[1]; got != "signal: killed" {
		t.Fatalf("second incarnation's doomed rank exited %q, want signal: killed", got)
	}
	if res.Output != baseline.Output {
		t.Fatalf("twice-recovered output %q != fault-free output %q", res.Output, baseline.Output)
	}
}

// spawnLog is a launch.Config.Stderr that keeps the verbose launcher's
// "rank R is pid P" lines: the only record of a process that exists
// outside Result.Incarnations.
type spawnLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *spawnLog) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(b)
}

var spawnLine = regexp.MustCompile(`launch: incarnation \d+: rank (\d+) is pid (\d+)`)

// spawned returns every process the launcher started so far, as
// (rank, pid) pairs in spawn order.
func (l *spawnLog) spawned() [][2]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out [][2]int
	for _, m := range spawnLine.FindAllStringSubmatch(l.buf.String(), -1) {
		rank, _ := strconv.Atoi(m[1])
		pid, _ := strconv.Atoi(m[2])
		out = append(out, [2]int{rank, pid})
	}
	return out
}

// TestDistributedKillBurst: two ranks die at the same moment — real
// SIGKILLs from outside, back to back, once a checkpoint has been taken.
// The burst must cost one rollback round, not two: every rank parks or
// dies, both corpses are replaced exactly once, and the survivors never
// notice more than one incarnation change.
func TestDistributedKillBurst(t *testing.T) {
	t.Setenv(envVariant, "long-baseline")
	baseline := runLaplace(t, nil)

	victims := []int{1, 2}
	log := &spawnLog{}
	var once sync.Once
	res, err := launch.Run(launch.Config{
		Ranks: testRanks, Stderr: log, Verbose: true,
		StatsSink: func(f protocol.StatsFrame) {
			if f.Stats.CheckpointsTaken == 0 {
				return
			}
			once.Do(func() {
				for _, p := range log.spawned() {
					if slices.Contains(victims, p[0]) {
						syscall.Kill(p[1], syscall.SIGKILL)
					}
				}
			})
		},
	})
	if err != nil {
		t.Fatalf("launch.Run: %v", err)
	}
	if res.Restarts != 1 || len(res.Incarnations) != 2 {
		t.Fatalf("%d restarts over %d incarnations, want the burst to cost exactly one rollback", res.Restarts, len(res.Incarnations))
	}
	first, second := res.Incarnations[0], res.Incarnations[1]
	for r := 0; r < testRanks; r++ {
		if slices.Contains(victims, r) {
			if first.Exits[r] != "signal: killed" || first.PIDs[r] == second.PIDs[r] {
				t.Errorf("victim rank %d: exit %q, pid %d -> %d; want signal: killed and a fresh process", r, first.Exits[r], first.PIDs[r], second.PIDs[r])
			}
		} else if first.Exits[r] != "" || first.PIDs[r] != second.PIDs[r] {
			t.Errorf("survivor rank %d: exit %q, pid %d -> %d; want no exit and the same process", r, first.Exits[r], first.PIDs[r], second.PIDs[r])
		}
	}
	if n := len(log.spawned()); n != testRanks+len(victims) {
		t.Errorf("%d processes spawned, want %d: each corpse replaced exactly once", n, testRanks+len(victims))
	}
	if res.Output != baseline.Output {
		t.Fatalf("recovered output %q != fault-free output %q", res.Output, baseline.Output)
	}
}

// TestDistributedKillCascade: a second death while the recovery from the
// first is barely under way — rank 1 dies at its second operation of
// incarnation 1, during or just after mesh formation. Each death costs
// exactly one rollback, and no exit event of a process already replaced is
// mistaken for a death of the incarnation that replaced it: every process
// the launcher ever spawned ran in some incarnation.
func TestDistributedKillCascade(t *testing.T) {
	baseline := runLaplace(t, nil)
	log := &spawnLog{}
	res, err := launch.Run(launch.Config{
		Ranks: testRanks, Stderr: log, Verbose: true,
		Kills: []launch.KillSpec{{Rank: 2, AtOp: 100, Incarnation: 0}, {Rank: 1, AtOp: 2, Incarnation: 1}},
	})
	if err != nil {
		t.Fatalf("launch.Run: %v", err)
	}
	if res.Restarts != 2 || res.Restarts != len(res.Incarnations)-1 {
		t.Fatalf("%d restarts over %d incarnations, want 2 over 3", res.Restarts, len(res.Incarnations))
	}
	if got := res.Incarnations[1].Exits[1]; got != "signal: killed" {
		t.Fatalf("incarnation 1's doomed rank exited %q, want signal: killed", got)
	}
	ran := map[int]bool{}
	for _, inc := range res.Incarnations {
		for _, pid := range inc.PIDs {
			ran[pid] = true
		}
	}
	for _, p := range log.spawned() {
		if !ran[p[1]] {
			t.Errorf("rank %d's process %d was spawned but ran in no incarnation: a spurious rollback", p[0], p[1])
		}
	}
	if n := len(log.spawned()); n != testRanks+2 {
		t.Errorf("%d processes spawned, want %d", n, testRanks+2)
	}
	if res.Output != baseline.Output {
		t.Fatalf("twice-recovered output %q != fault-free output %q", res.Output, baseline.Output)
	}
}

// TestScratchDirRemovedOnFailure: the default scratch directory (with the
// checkpoint store inside) is the launcher's to remove however the run
// ends, not only when it succeeds.
func TestScratchDirRemovedOnFailure(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	assertEmpty := func(when string) {
		t.Helper()
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Fatalf("%s left %s behind in $TMPDIR", when, left[0].Name())
		}
	}

	_, err := launch.Run(launch.Config{
		Ranks: testRanks, Stderr: io.Discard, MaxRestarts: 1,
		Kills: []launch.KillSpec{{Rank: 1, AtOp: 60, Incarnation: 0}, {Rank: 1, AtOp: 60, Incarnation: 1}},
	})
	if !errors.Is(err, cerr.ErrMaxRestarts) {
		t.Fatalf("err = %v, want ErrMaxRestarts", err)
	}
	assertEmpty("a run that exhausted its restart budget")

	t.Setenv(envVariant, "long-baseline")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = launch.RunContext(ctx, launch.Config{
		Ranks: testRanks, Stderr: io.Discard,
		StatsSink: func(protocol.StatsFrame) { cancel() }, // mid-run: a checkpoint was just taken
	})
	if !errors.Is(err, cerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	assertEmpty("a canceled run")
}
