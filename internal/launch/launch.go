// Package launch runs a distributed world: N worker OS processes (the
// launcher binary re-exec'd with worker environment variables), a full-mesh
// TCP substrate between them, and a shared on-disk checkpoint store. The
// rollback state machine is engine.Supervisor, the same one the in-process
// and simulated substrates run; this package supplies its process-shaped
// incarnation — publish each rank's recovery slice, spawn the ranks whose
// process is gone, fold their exits — and the worker role on the other
// side. A kill plan here delivers a real SIGKILL to a real process, the
// survivors detect the death through connection resets and the heartbeat
// detector and roll back in place, and only the dead ranks are re-spawned,
// restoring from the last committed global checkpoint.
package launch

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
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
	envIncarnation = "CCIFT_INCARNATION" // incarnation this process was spawned into, from 0
	envRendezvous  = "CCIFT_RDV_DIR"     // that incarnation's address-exchange directory
	envStore       = "CCIFT_STORE_DIR"   // shared checkpoint directory
	envDetector    = "CCIFT_DETECTOR_MS" // heartbeat suspicion timeout, milliseconds
	envStatsFD     = "CCIFT_STATS_FD"    // fd of the stats stream pipe (write end)
)

// Recovery marker files, written atomically (temp + rename) into each
// incarnation's rendezvous directory.
const (
	goMarker       = "GO"       // recovery files for this incarnation are complete; workers may join
	abortMarker    = "ABORT"    // this incarnation's mesh was abandoned; wait for a newer GO
	recoveryPrefix = "recovery" // recovery.<rank>: gob rankRecoveryFile
)

// Exit codes workers report back to the launcher: cerr's shared exit-code
// protocol, so a worker's error category survives the process boundary.
// exitOK ends the job, exitRollback schedules a re-spawn, and every other
// code is a hard failure whose category the launcher recovers with
// cerr.FromExitCode.
const (
	exitOK       = cerr.CodeOK
	exitRollback = cerr.CodeRollback
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
	// StoreDir is the shared checkpoint directory; default a fresh
	// directory under WorkDir. WorkDir is the scratch root (rendezvous
	// files); default a fresh temp directory, removed on success.
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
	// on their CCIFT_STATS_FD pipes, live as checkpoints complete. Called
	// from per-worker reader goroutines; the sink must synchronize. The
	// supervisor aggregates the same frames into Result.Stats /
	// Result.PerRank regardless.
	StatsSink func(protocol.StatsFrame)
	// OnRestart, when non-nil, is called after each rollback-restart
	// decision with the cumulative restart count.
	OnRestart func(restarts int)
}

// Result reports a completed distributed run: the supervisor's Result
// (Stats and PerRank reconstructed from the workers' stats streams, one
// Incarnations entry per spawned incarnation; Values stays empty, since
// only rank 0's output crosses the process boundary) plus that output.
type Result struct {
	engine.Result
	// Output is rank 0's standard output (the result line).
	Output string
}

// workerExit is one worker process's end: err is cmd.Wait's (nil on exit
// 0), state says how it exited.
type workerExit struct {
	rank  int
	err   error
	state *os.ProcessState
}

// Run launches cfg.Ranks worker processes and supervises them until the
// job completes, rolling the world back whenever a process dies.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: when ctx is canceled or its deadline
// expires, every live worker process is SIGKILLed, no further incarnation
// is spawned, and the run returns a *engine.RunError wrapping ctx's error.
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
	cleanupWork := false
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "c3launch-*")
		if err != nil {
			return nil, fmt.Errorf("launch: scratch dir: %w: %w", cerr.ErrSpec, err)
		}
		cfg.WorkDir = dir
		cleanupWork = true
	}
	if cfg.StoreDir == "" {
		cfg.StoreDir = filepath.Join(cfg.WorkDir, "ckpt")
	}
	if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
		return nil, fmt.Errorf("launch: store dir: %w: %w", cerr.ErrStore, err)
	}
	disk, err := storage.NewDisk(cfg.StoreDir)
	if err != nil {
		return nil, fmt.Errorf("launch: open store: %w: %w", cerr.ErrStore, err)
	}
	ecfg.Store = disk

	w := &world{
		cfg:     cfg,
		sup:     engine.NewSupervisor(ecfg),
		rdvRoot: filepath.Join(cfg.WorkDir, "rdv"),
		exits:   make(chan workerExit),
		quit:    make(chan struct{}),
		cmds:    make([]*exec.Cmd, cfg.Ranks),
		live:    make([]bool, cfg.Ranks),
	}
	stopCancel := context.AfterFunc(ctx, w.killLive)
	// Never leak worker processes or their watchers, whatever path returns.
	defer func() {
		stopCancel()
		close(w.quit)
		w.killLive()
		w.watchers.Wait()
		w.readers.Wait()
	}()

	res, err := w.sup.Run(ctx, w.runIncarnation)
	if err != nil {
		return nil, err
	}
	res.Incarnations = w.incs
	if cleanupWork {
		os.RemoveAll(cfg.WorkDir)
	}
	return &Result{Result: *res, Output: w.rank0Out.String()}, nil
}

// world is the process-shaped world the supervisor's incarnations run in:
// a death costs fresh processes for the dead ranks only and an in-process
// rollback for every survivor, so the processes, their exit events and
// their stats readers outlive any one incarnation. The handshake with
// surviving workers runs over marker files in the rendezvous tree: ABORT
// in the dead incarnation's directory tells stragglers to stop forming its
// mesh, recovery.<rank> files plus a final GO marker in the next
// incarnation's directory carry each rank's recovery slice (suppression
// list, replica set, kill plan).
type world struct {
	cfg     Config
	sup     *engine.Supervisor
	rdvRoot string

	errMu             sync.Mutex // keeps lines on cfg.Stderr whole
	readers, watchers sync.WaitGroup

	// Every spawn produces exactly one exit event. Watchers hand it to the
	// incarnation being folded, or drop it once quit closes.
	exits chan workerExit
	quit  chan struct{}

	liveMu sync.Mutex // guards live, and cmds against killLive
	cmds   []*exec.Cmd
	live   []bool

	rank0Out *bytes.Buffer
	incs     []engine.IncarnationInfo
}

func (w *world) logf(format string, args ...any) {
	w.errMu.Lock()
	fmt.Fprintf(w.cfg.Stderr, format, args...)
	w.errMu.Unlock()
}

func (w *world) killLive() {
	w.liveMu.Lock()
	defer w.liveMu.Unlock()
	for r, c := range w.cmds {
		if w.live[r] {
			c.Process.Kill()
		}
	}
}

func (w *world) rdvDir(incarnation int) string {
	return filepath.Join(w.rdvRoot, strconv.Itoa(incarnation))
}

// spawn starts rank r's process for an incarnation, with a reader for its
// stats stream and a watcher that reports its exit.
func (w *world) spawn(r, incarnation int) error {
	cfg := w.cfg
	cmd := exec.Command(cfg.Exe, cfg.Args...)
	cmd.Env = append(os.Environ(),
		envWorker+"=1",
		envRank+"="+strconv.Itoa(r),
		envRanks+"="+strconv.Itoa(cfg.Ranks),
		envIncarnation+"="+strconv.Itoa(incarnation),
		envRendezvous+"="+w.rdvDir(incarnation),
		envStore+"="+cfg.StoreDir,
		envDetector+"="+strconv.FormatInt(cfg.DetectorTimeout.Milliseconds(), 10),
		envStatsFD+"=3",
	)
	if r == 0 {
		w.rank0Out = &bytes.Buffer{}
		cmd.Stdout = w.rank0Out
	}
	cmd.Stderr = &prefixWriter{w: cfg.Stderr, mu: &w.errMu, prefix: fmt.Sprintf("[rank %d] ", r)}
	statsR, statsW, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("launch: stats pipe for rank %d: %w: %w", r, cerr.ErrTransport, err)
	}
	cmd.ExtraFiles = []*os.File{statsW}
	if err := cmd.Start(); err != nil {
		statsR.Close()
		statsW.Close()
		return fmt.Errorf("launch: spawn rank %d: %w: %w", r, cerr.ErrTransport, err)
	}
	statsW.Close()
	w.readers.Add(1)
	go func() {
		defer w.readers.Done()
		defer statsR.Close()
		protocol.ReadStatsFrames(statsR, w.sup.Observe)
	}()
	w.liveMu.Lock()
	w.cmds[r] = cmd
	w.live[r] = true
	w.liveMu.Unlock()
	w.watchers.Add(1)
	go func() {
		defer w.watchers.Done()
		err := cmd.Wait()
		w.liveMu.Lock()
		w.live[r] = false
		w.liveMu.Unlock()
		select {
		case w.exits <- workerExit{rank: r, err: err, state: cmd.ProcessState}:
		case <-w.quit:
		}
	}()
	return nil
}

// runIncarnation is the process-shaped incarnation the supervisor drives:
// publish every rank's recovery slice and the GO marker, spawn the ranks
// whose process is gone (all of them at incarnation 0), fold exit events
// until the world is done, fails hard, or has a death to roll back from,
// and in that last case abandon the incarnation's mesh with ABORT.
func (w *world) runIncarnation(ctx context.Context, incarnation int, plan *protocol.RecoveryPlan, kill map[int]int64) engine.Outcome {
	n := w.cfg.Ranks
	hard := func(rank int, err error) engine.Outcome {
		return engine.Outcome{Err: &engine.RunError{Rank: rank, Err: err}}
	}
	if err := w.publishRecovery(incarnation, plan, kill); err != nil {
		return hard(-1, err)
	}
	if incarnation > 0 {
		epoch := plan.ForRank(0).Epoch // -1 for a nil plan: a restart from the beginning
		w.incs[incarnation-1].RecoveredEpoch = epoch
		if w.cfg.Verbose {
			w.logf("c3launch: incarnation %d: recovery plan published (epoch %d)\n", incarnation, epoch)
		}
	}

	// A surviving rank has no exit in the incarnation it survived: its
	// Exits entry stays "" and its PID carries over to the next one.
	rep := engine.IncarnationInfo{PIDs: make([]int, n), Exits: make([]string, n), RecoveredEpoch: -1}
	for r := 0; r < n; r++ {
		w.liveMu.Lock()
		alive := w.live[r]
		w.liveMu.Unlock()
		if !alive {
			if err := w.spawn(r, incarnation); err != nil {
				return hard(r, err)
			}
			if w.cfg.Verbose {
				note := ""
				if kill[r] > 0 {
					note = fmt.Sprintf(" (SIGKILL at op %d)", kill[r])
				}
				w.logf("c3launch: incarnation %d: rank %d is pid %d%s\n", incarnation, r, w.cmds[r].Process.Pid, note)
			}
		}
		rep.PIDs[r] = w.cmds[r].Process.Pid
	}
	w.incs = append(w.incs, rep)
	if ctx.Err() != nil {
		w.killLive() // canceled mid-spawn: ctx's own kill may have run before these were registered
	}

	// fold classifies one exit event: success is judged on the structured
	// exit code, never on the description string. Anything but exit 0, the
	// rollback code or a signal is a hard failure that ends the run.
	done := make([]bool, n)
	var hardExits []error // each a *engine.RunError naming its rank
	rollback := false
	fold := func(e workerExit) {
		rep.Exits[e.rank] = e.state.String()
		switch {
		case e.err == nil:
			done[e.rank] = true
		case !e.state.Exited() || e.state.ExitCode() == exitRollback: // died by signal, or asks to be re-spawned
			rollback = true
			if w.cfg.Verbose {
				w.logf("c3launch: incarnation %d: rank %d exited: %s\n", incarnation, e.rank, e.state)
			}
		default:
			cat := cerr.FromExitCode(e.state.ExitCode())
			if cat == nil {
				cat = cerr.ErrProgram
			}
			hardExits = append(hardExits, &engine.RunError{Rank: e.rank, Err: fmt.Errorf("%w: worker process ended with %s", cat, e.state)})
		}
	}
	for {
		fold(<-w.exits)
		// A death burst (multi-rank kill, cascade) should cost one rollback
		// round, not one per corpse: linger briefly for co-dying ranks.
		if rollback {
			settle := time.After(200 * time.Millisecond)
		drain:
			for {
				select {
				case e := <-w.exits:
					fold(e)
				case <-settle:
					break drain
				}
			}
		}
		switch {
		case ctx.Err() != nil:
			return engine.Outcome{Canceled: true}
		case len(hardExits) > 0:
			// Several ranks may fail at once (a program error on one, store
			// errors on others): cerr's priority order picks the category,
			// the first rank that reported it is named.
			cat := cerr.Category(errors.Join(hardExits...))
			for _, h := range hardExits {
				if errors.Is(h, cat) {
					return engine.Outcome{Err: h.(*engine.RunError)}
				}
			}
		case rollback:
			if err := writeMarker(w.rdvDir(incarnation), abortMarker); err != nil {
				return hard(-1, fmt.Errorf("launch: abort incarnation %d: %w: %w", incarnation, cerr.ErrStore, err))
			}
			return engine.Outcome{Failed: true}
		case !slices.Contains(done, false):
			// Every worker has exited, so every stats pipe is at EOF: wait
			// for the readers so the final frames are in the Result.
			w.readers.Wait()
			return engine.Outcome{}
		}
	}
}

// rankRecoveryFile is the gob schema of recovery.<rank>: one rank's slice
// of the supervisor's recovery gather (Epoch -1: fresh start, do not
// restore) plus its kill plan for the incarnation.
type rankRecoveryFile struct {
	protocol.RankRecovery
	KillAtOp int64
}

// publishRecovery writes each rank's slice of the plan, with its kill plan,
// plus the GO marker into the incarnation's rendezvous directory. GO is
// written last: a worker that sees it may trust every recovery file is in
// place.
func (w *world) publishRecovery(incarnation int, plan *protocol.RecoveryPlan, kill map[int]int64) error {
	dir := w.rdvDir(incarnation)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("launch: rendezvous dir: %w: %w", cerr.ErrSpec, err)
	}
	for r := 0; r < w.cfg.Ranks; r++ {
		f := rankRecoveryFile{RankRecovery: *plan.ForRank(r), KillAtOp: kill[r]}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
			return fmt.Errorf("launch: encode recovery file: %w: %w", cerr.ErrStore, err)
		}
		name := fmt.Sprintf("%s.%04d", recoveryPrefix, r)
		if err := writeFileAtomic(dir, name, buf.Bytes()); err != nil {
			return fmt.Errorf("launch: write %s: %w: %w", name, cerr.ErrStore, err)
		}
	}
	if err := writeMarker(dir, goMarker); err != nil {
		return fmt.Errorf("launch: write GO marker: %w: %w", cerr.ErrStore, err)
	}
	return nil
}

// writeMarker drops a marker file (GO, ABORT) into dir.
func writeMarker(dir, name string) error { return writeFileAtomic(dir, name, []byte("1")) }

func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
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
	n := len(b)
	for len(b) > 0 {
		if !p.mid {
			io.WriteString(p.w, p.prefix)
			p.mid = true
		}
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			p.w.Write(b)
			break
		}
		p.w.Write(b[:i+1])
		p.mid = false
		b = b[i+1:]
	}
	return n, nil
}
