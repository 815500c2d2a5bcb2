package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccift/internal/engine"
	"ccift/internal/launch"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// ranks is fixed at the machine's core count this benchmark was sized for:
// one rank goroutine (or worker process) per core, one program execution
// at a time.
const ranks = 2

// runSpec is one program execution on either substrate.
type runSpec struct {
	label string
	mode  protocol.Mode
	// prog runs in-process; ring, when non-nil, runs on the distributed
	// substrate instead (the worker rebuilds the program from it).
	prog   engine.Program
	ring   *ringParams
	everyN int
	seed   int64
	// dir is this execution's scratch directory (store, rendezvous, stamps);
	// it must not exist yet.
	dir string
	// kills schedules one death per incarnation: kills[k] dies in
	// incarnation k at its AtOp-th substrate operation.
	kills []engine.Failure
	// rec, when non-nil, makes this a traced execution: spans and counters
	// from wrappers around the transport, the store and the protocol tracer.
	rec *recorder
	// clock installs the counting transport without spans, for the
	// in-process recovery clock of untraced faulted runs.
	clock bool
	heap  bool // sample live heap during the execution
}

// runOut is everything the benchmark observed about one execution.
type runOut struct {
	spec    runSpec
	startNs int64
	wallS   float64
	// speed is the machine's slowdown around this execution (1 = normal
	// mode, see speed.go).
	speed     float64
	err       error
	value     string // the program's result, textual; "" when ranks disagree
	frames    []stampedFrame
	committed int // newest committed epoch, 0 when none
	restarts  int
	recovered []int
	stats     []protocol.Stats
	heapPeak  uint64
	restartNs []int64
	// recoveryReads[k] counts store Get+Has calls between restart decision k
	// and every rank's first send of the next incarnation (traced runs).
	recoveryReads []int64
	incs          []*tracedTransport // in-process, traced or clocked
	store         storeCounters
	tracer        *commitTracer
	storeBytes    int64
	stamps        [][][]stamp // distributed runs with stamps
	stderr        string
}

func (s runSpec) storeDir() string { return filepath.Join(s.dir, "store") }

// scaledS is the execution's wall time at the reference machine speed.
func (o *runOut) scaledS() float64 { return o.wallS / o.speed }

var speed speedTracker

// execute runs one program execution and collects what can be seen of it
// from outside.
func execute(s runSpec) *runOut {
	if err := os.MkdirAll(s.storeDir(), 0o755); err != nil {
		return &runOut{spec: s, err: err}
	}
	// Start every execution from a collected heap, so one run's garbage is
	// not the next run's peak.
	runtime.GC()
	before := speed.before()
	var out *runOut
	if s.ring != nil {
		out = executeDistributed(s)
	} else {
		out = executeInProcess(s)
	}
	out.speed = speed.after(before)
	if out.err == nil && s.mode >= protocol.NoAppState {
		disk, err := storage.NewDisk(s.storeDir())
		if err == nil {
			var ok bool
			out.committed, ok, err = storage.NewCheckpointStore(disk).Committed()
			if !ok {
				out.committed = 0
			}
		}
		if err != nil {
			out.err = fmt.Errorf("read commit record: %w", err)
		}
		out.storeBytes = dirBytes(s.storeDir())
	}
	return out
}

func executeInProcess(s runSpec) *runOut {
	out := &runOut{spec: s}
	disk, err := storage.NewDisk(s.storeDir())
	if err != nil {
		out.err = err
		return out
	}
	var ts *tracedStore
	var store storage.Stable = disk
	if s.rec != nil {
		ts = newTracedStore(disk, s.rec)
		store = ts
	}
	fl := &frameLog{}
	var mu sync.Mutex
	cfg := engine.Config{
		Ranks: ranks, Mode: s.mode, Store: store, EveryN: s.everyN, Seed: s.seed,
		Failures: s.kills, MaxRestarts: len(s.kills) + 2, StatsSink: fl.sink,
		OnRestart: func(int) {
			mu.Lock()
			out.restartNs = append(out.restartNs, time.Now().UnixNano())
			mu.Unlock()
			if ts != nil {
				ts.markReads(true)
			}
		},
	}
	if s.rec != nil {
		out.tracer = newCommitTracer()
		cfg.Tracer = out.tracer
	}
	var tl *transportLog
	if s.rec != nil || s.clock {
		tl = &transportLog{rec: s.rec}
		if ts != nil {
			tl.onResume = func() {
				mu.Lock()
				out.recoveryReads = append(out.recoveryReads, ts.markReads(false))
				mu.Unlock()
			}
		}
		cfg.NewTransport = tl.newTransport
	}
	var hs *heapSampler
	if s.heap {
		hs = startHeapSampler()
	}
	var done [ranks]atomic.Int64
	start := time.Now()
	res, err := engine.Run(cfg, settled(s.prog, &done))
	out.wallS = time.Since(start).Seconds()
	out.startNs = start.UnixNano()
	if last := max(done[0].Load(), done[1].Load()); err == nil && last > 0 {
		out.wallS = float64(last-out.startNs) / 1e9
	}
	if hs != nil {
		out.heapPeak = hs.finish()
	}
	out.frames = fl.snapshot()
	if tl != nil {
		out.incs = tl.incs
	}
	if ts != nil {
		out.store = ts.counters()
	}
	if err != nil {
		out.err = err
		return out
	}
	out.restarts, out.recovered, out.stats = res.Restarts, res.RecoveredEpochs, res.Stats
	out.value = agreedValue(res.Values)
	return out
}

// agreedValue renders the ranks' results; every rank of every program here
// returns the same global checksum, so disagreement is an output failure
// and comes back as "".
func agreedValue(values []any) string {
	if len(values) == 0 {
		return ""
	}
	v := fmt.Sprint(values[0])
	for _, o := range values[1:] {
		if fmt.Sprint(o) != v {
			return ""
		}
	}
	return v
}

func executeDistributed(s runSpec) *runOut {
	out := &runOut{spec: s}
	wa := workerArgs{Ring: *s.ring, Mode: int(s.mode), EveryN: s.everyN}
	wa.Ring.StampDir = filepath.Join(s.dir, "stamps")
	if s.rec != nil {
		wa.OpsLog = filepath.Join(s.dir, "ops", "log")
	}
	if s.heap {
		wa.MemDir = filepath.Join(s.dir, "mem")
	}
	for _, d := range []string{"stamps", "ops", "mem", "work"} {
		if err := os.MkdirAll(filepath.Join(s.dir, d), 0o755); err != nil {
			out.err = err
			return out
		}
	}
	arg, err := json.Marshal(wa)
	if err != nil {
		out.err = err
		return out
	}
	fl := &frameLog{}
	var mu sync.Mutex
	var stderr bytes.Buffer
	cfg := launch.Config{
		Args: []string{"-ringworker", string(arg)}, Ranks: ranks,
		StoreDir: s.storeDir(), WorkDir: filepath.Join(s.dir, "work"),
		MaxRestarts: len(s.kills) + 2, Stderr: &stderr, StatsSink: fl.sink,
		OnRestart: func(int) {
			mu.Lock()
			out.restartNs = append(out.restartNs, time.Now().UnixNano())
			mu.Unlock()
		},
	}
	for _, k := range s.kills {
		cfg.Kills = append(cfg.Kills, launch.KillSpec{Rank: k.Rank, AtOp: k.AtOp, Incarnation: k.Incarnation})
	}
	start := time.Now()
	res, err := launch.Run(cfg)
	out.wallS = time.Since(start).Seconds()
	out.startNs = start.UnixNano()
	out.frames = fl.snapshot()
	out.stderr = stderr.String()
	if err != nil {
		out.err = fmt.Errorf("%w; worker stderr: %s", err, tail(out.stderr, 400))
		return out
	}
	out.restarts, out.recovered, out.stats = res.Restarts, res.RecoveredEpochs, res.Stats
	out.value = strings.TrimSpace(strings.TrimPrefix(res.Output, "result: "))
	if out.stamps, err = readStamps(wa.Ring.StampDir, ranks); err != nil {
		out.err = fmt.Errorf("read stamps: %w", err)
		return out
	}
	// As in-process, the execution ends when the last rank's program
	// returned (its 'D' stamp), not when the worker processes were reaped.
	var last int64
	for _, incs := range out.stamps {
		if n := len(incs); n > 0 && len(incs[n-1]) > 0 {
			if s := incs[n-1][len(incs[n-1])-1]; s.Kind == 'D' {
				last = max(last, s.AtNs)
			}
		}
	}
	if last > 0 {
		out.wallS = float64(last-out.startNs) / 1e9
	}
	if wa.OpsLog != "" {
		if out.store, err = readOpsLogs(wa.OpsLog, s.rec); err != nil {
			out.err = fmt.Errorf("read worker op logs: %w", err)
			return out
		}
	}
	if wa.MemDir != "" {
		out.heapPeak = sumWorkerPeaks(wa.MemDir)
	}
	return out
}

// sumWorkerPeaks adds up, over ranks, the largest live-heap peak any of
// that rank's worker processes reported.
func sumWorkerPeaks(dir string) uint64 {
	peak := map[string]uint64{}
	files, _ := filepath.Glob(filepath.Join(dir, "mem.*"))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			continue
		}
		rank := strings.Split(filepath.Base(f), ".")[1]
		peak[rank] = max(peak[rank], v)
	}
	var total uint64
	for _, v := range peak {
		total += v
	}
	return total
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// settled wraps a program for the fixed-work rule. It records when each
// rank's program returned — an execution's wall time ends at the last of
// those — and then keeps the initiator servicing the protocol until no
// global checkpoint is in flight, so the last checkpoint a run triggers
// always commits and the committed count depends on the triggers alone,
// not on how the last flush raced the end of the program. (The engine
// keeps every finished rank servicing control traffic until all have
// returned, so the other ranks play their part without help.)
func settled(p engine.Program, done *[ranks]atomic.Int64) engine.Program {
	return func(r *engine.Rank) (any, error) {
		v, err := p(r)
		done[r.Rank()].Store(time.Now().UnixNano())
		settle(r)
		return v, err
	}
}

func settle(r *engine.Rank) {
	if l := r.Layer(); r.Rank() == 0 {
		l.ServiceControlUntil(func() bool { return !l.CheckpointInProgress() })
	}
}

// withOpCount wraps a program so each rank reports how many substrate
// operations it executed: the unit kill schedules are written in.
func withOpCount(p engine.Program, ops *[ranks]atomic.Int64) engine.Program {
	return func(r *engine.Rank) (any, error) {
		v, err := p(r)
		ops[r.Rank()].Store(r.Layer().Comm().World().OpCount(r.Rank()))
		return v, err
	}
}

var _ mpi.Transport = (*tracedTransport)(nil)
