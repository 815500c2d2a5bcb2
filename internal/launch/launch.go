// Package launch runs a distributed world: N worker OS processes (the
// launcher binary re-exec'd with worker environment variables), a full-mesh
// TCP substrate between them, and a shared on-disk checkpoint store. The
// rollback state machine is engine.Supervisor, the same one the in-process
// and simulated substrates run; this package supplies its process-shaped
// incarnation (runIncarnation) and the worker role on the other side of
// each process's control stream (control.go). A kill plan here delivers a
// real SIGKILL to a real process: the launcher reaps it and aborts the
// incarnation on every survivor — connection resets and the heartbeat
// detector say the same, later — the survivors roll back in place, and only
// the dead ranks are re-spawned, restoring from the last committed global
// checkpoint.
package launch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Worker environment. The launcher spawns its own binary with these set;
// the binary's main detects IsWorker before doing anything else and runs
// the worker role instead of launching.
const (
	envWorker      = "CCIFT_WORKER"      // "1" marks a worker process
	envRank        = "CCIFT_RANK"        // world rank of this worker
	envRanks       = "CCIFT_RANKS"       // world size
	envIncarnation = "CCIFT_INCARNATION" // incarnation this process was spawned into (for fault injection; start names the one to run)
	envStore       = "CCIFT_STORE_DIR"   // shared checkpoint directory
	envDetector    = "CCIFT_DETECTOR_MS" // heartbeat suspicion timeout, milliseconds
	envControlFD   = "CCIFT_CONTROL_FD"  // fd of the control stream (see control.go)
)

// KillSpec schedules a real SIGKILL: the rank's process kills itself at its
// AtOp-th substrate operation of the given incarnation.
type KillSpec = engine.Failure

// Config configures a distributed run.
type Config struct {
	// Exe is the worker binary; default os.Executable() (the launcher
	// re-execs itself). Args are passed through to the worker so it can
	// re-parse the same application flags.
	Exe  string
	Args []string
	// Ranks is the number of worker processes. Required.
	Ranks int
	// StoreDir is the shared checkpoint directory; default "ckpt" under
	// WorkDir, the scratch root, whose own default is a fresh temp
	// directory removed when the run ends.
	StoreDir string
	WorkDir  string
	// Kills is the SIGKILL schedule.
	Kills []KillSpec
	// MaxRestarts bounds re-spawn attempts. Default 10.
	MaxRestarts int
	// DetectorTimeout is the workers' heartbeat suspicion timeout (the
	// connection-reset fast path fires regardless). Default 2s.
	DetectorTimeout time.Duration
	// Stderr receives worker stderr (rank-prefixed); default os.Stderr.
	// Verbose additionally echoes spawn/exit events there.
	Stderr  io.Writer
	Verbose bool
	// StatsSink, when non-nil, receives every stats frame the workers emit
	// on their control streams, live as checkpoints complete. Called from
	// per-worker watcher goroutines; the sink must synchronize. The
	// supervisor aggregates the same frames into Result.Stats /
	// Result.PerRank regardless.
	StatsSink func(protocol.StatsFrame)
	// OnRestart, when non-nil, is called after each rollback-restart
	// decision with the cumulative restart count.
	OnRestart func(restarts int)
}

// Result reports a completed distributed run: the supervisor's Result
// (Stats and PerRank reconstructed from the workers' stats frames, one
// Incarnations entry per spawned incarnation; Values stays empty, since
// only rank 0's output crosses the process boundary) plus that output.
type Result struct {
	engine.Result
	// Output is rank 0's standard output (the result line).
	Output string
}

// Run launches cfg.Ranks worker processes and supervises them until the
// job completes, rolling the world back whenever a process dies.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: when ctx is canceled or its deadline
// expires, the incarnation ends, every live worker process is SIGKILLed, and
// the run returns a *engine.RunError wrapping ctx's error.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ecfg := engine.Config{Ranks: cfg.Ranks, Failures: cfg.Kills, MaxRestarts: cfg.MaxRestarts,
		OnRestart: cfg.OnRestart, StatsSink: cfg.StatsSink}
	if err := ecfg.Validate(); err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	if cfg.Exe == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("launch: resolve worker binary: %w: %w", cerr.ErrSpec, err)
		}
		cfg.Exe = exe
	}
	if cfg.DetectorTimeout == 0 {
		cfg.DetectorTimeout = 2 * time.Second
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	if cfg.StoreDir == "" {
		if cfg.WorkDir == "" {
			dir, err := os.MkdirTemp("", "ccift-launch-*")
			if err != nil {
				return nil, fmt.Errorf("launch: scratch dir: %w: %w", cerr.ErrSpec, err)
			}
			// Runs last of the teardown, however the run ends: by then no
			// worker is left to write into it.
			defer os.RemoveAll(dir)
			cfg.WorkDir = dir
		}
		cfg.StoreDir = filepath.Join(cfg.WorkDir, "ckpt")
	}
	disk, err := storage.NewDisk(cfg.StoreDir) // creates it
	if err != nil {
		return nil, fmt.Errorf("launch: open store: %w: %w", cerr.ErrStore, err)
	}
	ecfg.Store = disk

	w := &world{
		cfg:    cfg,
		sup:    engine.NewSupervisor(ecfg),
		events: make(chan event),
		quit:   make(chan struct{}),
		procs:  make([]*proc, cfg.Ranks),
	}
	// Never leak worker processes or their watchers, whatever path returns.
	defer func() {
		close(w.quit)
		w.kill(false)
		w.tails.Wait()
	}()

	res, err := w.sup.Run(ctx, w.runIncarnation)
	if err != nil {
		return nil, err
	}
	res.Incarnations = w.incs
	return &Result{Result: *res, Output: w.rank0Out.String()}, nil
}

// world is the process-shaped world the supervisor's incarnations run in:
// a death costs fresh processes for the dead ranks only and an in-process
// rollback for every survivor, so the processes and their watchers outlive
// any one incarnation.
type world struct {
	cfg Config
	sup *engine.Supervisor

	errMu sync.Mutex     // keeps lines on cfg.Stderr whole
	tails sync.WaitGroup // every process's watcher

	// Each process's watcher posts its events in order (every ready, then
	// its exit) to the incarnation listening, or drops them once quit closes.
	events chan event
	quit   chan struct{}

	procs []*proc // by rank; nil: that rank's process is gone

	rank0Out *bytes.Buffer
	incs     []engine.IncarnationInfo
}

// proc is one worker process.
type proc struct {
	rank    int
	cmd     *exec.Cmd
	ctl     *os.File // the launcher's end of its control stream
	addr    string   // the listener its last ready reported, while it is parked; "" while it runs
	started int      // the last incarnation it was sent start for; -1: none yet
}

// event is p's ready frame or, with state set, its exit (err is cmd.Wait's).
type event struct {
	p     *proc
	addr  string
	err   error
	state *os.ProcessState
}

func (w *world) logf(format string, args ...any) {
	w.errMu.Lock()
	fmt.Fprintf(w.cfg.Stderr, format, args...)
	w.errMu.Unlock()
}

// kill SIGKILLs every process not yet reaped (running: only those not parked).
func (w *world) kill(running bool) {
	for _, p := range w.procs {
		if p != nil && !(running && p.addr != "") {
			p.cmd.Process.Kill()
		}
	}
}

// spawn starts rank r's process (to first run incarnation), with a watcher
// for its control stream and exit.
func (w *world) spawn(r, incarnation int) error {
	cfg := w.cfg
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return fmt.Errorf("launch: control stream for rank %d: %w: %w", r, cerr.ErrTransport, err)
	}
	syscall.SetNonblock(fds[0], true) // the launcher's end is read through the poller, not by a parked thread
	ctl, ctlChild := os.NewFile(uintptr(fds[0]), envControlFD), os.NewFile(uintptr(fds[1]), envControlFD)
	cmd := exec.Command(cfg.Exe, cfg.Args...)
	cmd.Env = append(os.Environ(),
		envWorker+"=1",
		envRank+"="+strconv.Itoa(r),
		envRanks+"="+strconv.Itoa(cfg.Ranks),
		envIncarnation+"="+strconv.Itoa(incarnation),
		envStore+"="+cfg.StoreDir,
		envDetector+"="+strconv.FormatInt(cfg.DetectorTimeout.Milliseconds(), 10),
		envControlFD+"=3",
	)
	if r == 0 {
		w.rank0Out = &bytes.Buffer{}
		cmd.Stdout = w.rank0Out
	}
	cmd.Stderr = &prefixWriter{w: cfg.Stderr, mu: &w.errMu, prefix: fmt.Sprintf("[rank %d] ", r)}
	cmd.ExtraFiles = []*os.File{ctlChild}
	err = cmd.Start()
	ctlChild.Close()
	if err != nil {
		ctl.Close()
		return fmt.Errorf("launch: spawn rank %d: %w: %w", r, cerr.ErrTransport, err)
	}
	if cfg.Verbose {
		w.logf("launch: incarnation %d: rank %d is pid %d\n", incarnation, r, cmd.Process.Pid)
	}
	p := &proc{rank: r, cmd: cmd, ctl: ctl, started: -1}
	w.procs[r] = p
	w.tails.Add(1)
	go func() {
		defer w.tails.Done()
		post := func(e event) {
			select {
			case w.events <- e:
			case <-w.quit:
			}
		}
		// The stream ends with the process, so one goroutine keeps its
		// frames in order: every stats frame is observed before the exit is
		// posted, and the rank is replaced only once the exit is folded.
		// The watcher blocks only while posting a ready or an exit, and
		// after either its worker writes nothing until a start arrives, so
		// a stats write never stalls a computing rank behind a launcher
		// busy recovering.
		for f, err := readCtlFrame(ctl); err == nil; f, err = readCtlFrame(ctl) {
			switch f.Kind {
			case ctlReady:
				post(event{p: p, addr: f.Addr})
			case ctlStats:
				w.sup.Observe(protocol.StatsFrame{Rank: p.rank, Incarnation: f.Incarnation, Final: f.Final, Stats: f.Stats})
			}
		}
		err := cmd.Wait()
		ctl.Close()
		post(event{p: p, err: err, state: cmd.ProcessState})
	}()
	return nil
}

// reap books one exit: the rank has no process now, and the incarnation the
// process last ran — not whichever the launcher is in — records how it
// ended. Anything but exit 0 or a signal (judged on the exit code, never
// the description) is a hard failure, returned in the code's category.
func (w *world) reap(e event) *engine.RunError {
	p := e.p
	w.procs[p.rank] = nil
	if p.started >= 0 {
		w.incs[p.started].Exits[p.rank] = e.state.String()
	}
	if w.cfg.Verbose && e.err != nil {
		w.logf("launch: incarnation %d: rank %d exited: %s\n", p.started, p.rank, e.state)
	}
	if e.err == nil || !e.state.Exited() {
		return nil
	}
	cat := cerr.FromExitCode(e.state.ExitCode())
	if cat == nil {
		cat = cerr.ErrProgram
	}
	return &engine.RunError{Rank: p.rank, Err: fmt.Errorf("%w: worker process ended with %s", cat, e.state)}
}

// muster fills the empty ranks with fresh processes (to first run
// incarnation) and waits until every process — with all unset, only the
// survivors, which have run an incarnation — has parked; nil once they have.
// One that dies instead (a burst's co-victim, a cascade) is replaced in the
// same round: a burst costs one rollback because every rank parks or dies,
// not because a window passed. One that does neither within the bound is
// killed, a corpse like any other.
func (w *world) muster(ctx context.Context, incarnation int, all bool) *engine.Outcome {
	bound := 4*w.cfg.DetectorTimeout + 10*time.Second
	overdue := time.NewTimer(bound)
	defer overdue.Stop()
	for {
		for r, p := range w.procs {
			if p == nil {
				if err := w.spawn(r, incarnation); err != nil {
					return &engine.Outcome{Err: &engine.RunError{Rank: r, Err: err}}
				}
			}
		}
		if !slices.ContainsFunc(w.procs, func(p *proc) bool { return p.addr == "" && (all || p.started >= 0) }) {
			return nil
		}
		select {
		case <-ctx.Done():
			return &engine.Outcome{Canceled: true}
		case <-overdue.C:
			w.kill(true)
			overdue.Reset(bound)
		case e := <-w.events:
			if e.state == nil {
				e.p.addr = e.addr
			} else if hard := w.reap(e); hard != nil {
				return &engine.Outcome{Err: hard}
			} else if e.p.started < 0 {
				// It never ran an incarnation: charge the restart budget
				// rather than respawn without bound.
				return &engine.Outcome{Failed: true}
			}
		}
	}
}

// runIncarnation is the process-shaped incarnation the supervisor drives,
// the first included; every step is a reaction to an event. Muster every
// rank, send each its start, and fold events until the world is done, fails
// hard, or has a death to roll back from.
func (w *world) runIncarnation(ctx context.Context, incarnation int, plan *protocol.RecoveryPlan, kill map[int]int64) engine.Outcome {
	n := w.cfg.Ranks
	if incarnation > 0 {
		w.incs[incarnation-1].RecoveredEpoch = plan.ForRank(0).Epoch // -1 for a nil plan: a restart from the beginning
	}
	// A surviving rank has no exit in the incarnation it survived: its
	// Exits entry stays "" and its PID carries over to the next one.
	rep := engine.IncarnationInfo{PIDs: make([]int, n), Exits: make([]string, n), RecoveredEpoch: -1}
	w.incs = append(w.incs, rep)

	if out := w.muster(ctx, incarnation, true); out != nil {
		return *out
	}

	// Every address in the table is a bound listener, so the workers' mesh
	// forms without a lookup wait or a dial retry.
	start := ctlFrame{Kind: ctlStart, Incarnation: incarnation, Addrs: make([]string, n)}
	for r, p := range w.procs {
		start.Addrs[r] = p.addr
	}
	for r, p := range w.procs {
		p.addr, p.started, rep.PIDs[r] = "", incarnation, p.cmd.Process.Pid
		start.Recovery, start.KillAtOp = *plan.ForRank(r), kill[r]
		writeCtlFrame(p.ctl, &start) // a failed write means the process is gone, which its exit reports
	}

	done, rollback := 0, false
	var failed *engine.RunError
	fold := func(e event) {
		if e.state == nil {
			// Parked mid-incarnation: this worker saw it die (a reset, a
			// silent peer) before the launcher saw anything.
			e.p.addr, rollback = e.addr, true
			return
		}
		switch hard := w.reap(e); {
		case hard != nil:
			// Several ranks may fail at once (a program error on one, store
			// errors on others): cerr's priority order picks the category,
			// the first rank that reported it is named.
			if failed == nil || !errors.Is(failed, cerr.Category(errors.Join(failed, hard))) {
				failed = hard
			}
		case e.err == nil:
			done++
		default:
			rollback = true
		}
	}
	for {
		select {
		case <-ctx.Done():
			return engine.Outcome{Canceled: true}
		case e := <-w.events:
			fold(e)
		}
		// Whatever else is already queued — co-dying ranks, several hard
		// failures at once — belongs to the same decision.
		for queued := true; queued; {
			select {
			case e := <-w.events:
				fold(e)
			default:
				queued = false
			}
		}
		switch {
		case failed != nil:
			return engine.Outcome{Err: failed}
		case rollback:
			// The launcher reaping its child is the fastest death detector
			// on the host: survivors end the incarnation now, not on a reset
			// or a heartbeat timeout.
			for _, p := range w.procs {
				if p != nil && p.addr == "" {
					writeCtlFrame(p.ctl, &ctlFrame{Kind: ctlAbort, Incarnation: incarnation})
				}
			}
			// Replace the dead now (their exec and listener bind overlap the
			// supervisor's recovery gather), but return only once the
			// survivors have parked: only then has every process stopped
			// writing the store the supervisor is about to read.
			if out := w.muster(ctx, incarnation+1, false); out != nil {
				return *out
			}
			return engine.Outcome{Failed: true}
		case done == n:
			// Every worker's exit was posted after its stream's last frame,
			// so the final frames are in the Result.
			return engine.Outcome{}
		}
	}
}

// prefixWriter prefixes every line with the rank tag so interleaved worker
// stderr stays attributable; the shared mutex keeps ranks' lines whole.
type prefixWriter struct {
	w      io.Writer
	mu     *sync.Mutex
	prefix string
	mid    bool // last write ended mid-line
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if !p.mid {
			io.WriteString(p.w, p.prefix)
		}
		p.w.Write(line)
		p.mid = line[len(line)-1] != '\n'
	}
	return len(b), nil
}
