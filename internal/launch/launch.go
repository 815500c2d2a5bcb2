// Package launch runs a distributed world: N worker OS processes (the
// launcher binary re-exec'd with worker environment variables), a full-mesh
// TCP substrate between them, and a shared on-disk checkpoint store. It is
// the process-level analogue of engine.Run's rollback loop — a kill plan
// here delivers a real SIGKILL to a real process, the survivors detect the
// death through connection resets and the heartbeat detector and roll back
// in place, and the launcher gathers the recovery plan once and re-spawns
// only the dead ranks, which restore from the last committed global
// checkpoint.
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
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/mpi/tcptransport"
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
	envIncarnation = "CCIFT_INCARNATION" // spawn attempt, from 0
	envRendezvous  = "CCIFT_RDV_DIR"     // address-exchange directory (fresh per incarnation)
	envStore       = "CCIFT_STORE_DIR"   // shared checkpoint directory
	envKillAtOp    = "CCIFT_KILL_AT_OP"  // self-SIGKILL at this substrate op (doomed rank only)
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
	exitError    = cerr.CodeProgram // program or uncategorizable error: the launcher gives up
	exitRollback = cerr.CodeRollback
)

// KillSpec schedules a real SIGKILL: the rank's process kills itself at its
// AtOp-th substrate operation of the given incarnation.
type KillSpec struct {
	Rank        int
	AtOp        int64
	Incarnation int
}

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
	// launcher aggregates the same frames itself into Result.Stats /
	// Result.PerRank regardless.
	StatsSink func(protocol.StatsFrame)
	// OnRestart, when non-nil, is called after each rollback-restart
	// decision with the cumulative restart count.
	OnRestart func(restarts int)
}

// IncarnationReport describes how one incarnation ended.
type IncarnationReport struct {
	// Exits holds each rank's exit description ("exit status 0",
	// "signal: killed", ...). Codes holds the structured exit codes (-1
	// when the rank died by signal); success is judged on these, never on
	// the description strings. A surviving rank has no exit in the
	// incarnation it survived: its Exits entry stays "" (Codes entry 0) and
	// the process carries over to the next incarnation.
	Exits []string
	Codes []int
	// PIDs holds each rank's OS process ID during the incarnation;
	// survivors keep their PID across incarnations.
	PIDs []int
	// RecoveredEpoch is the committed epoch the *next* incarnation will
	// restore from (-1 when none was committed yet).
	RecoveredEpoch int
}

func newIncarnationReport(ranks int) IncarnationReport {
	return IncarnationReport{
		Exits:          make([]string, ranks),
		Codes:          make([]int, ranks),
		PIDs:           make([]int, ranks),
		RecoveredEpoch: -1,
	}
}

// Result reports a completed distributed run.
type Result struct {
	// Output is rank 0's standard output (the result line).
	Output string
	// Restarts is the number of incarnations that died and were re-spawned.
	Restarts int
	// RecoveredEpochs lists the epoch each restart recovered from (-1 when
	// the restart began from scratch).
	RecoveredEpochs []int
	// Incarnations describes every spawned incarnation, including the
	// final successful one.
	Incarnations []IncarnationReport
	// Stats holds each rank's protocol counters from the final
	// incarnation, indexed by rank — the same shape the in-process engine
	// reports, reconstructed from the workers' stats streams. PerRank is
	// the tagged form.
	Stats   []protocol.Stats
	PerRank []protocol.RankStats
}

type workerExit struct {
	rank   int
	err    error // nil on exit 0
	desc   string
	code   int // -1 when signaled
	signal bool
}

// Run launches cfg.Ranks worker processes and supervises them until the
// job completes, rolling the world back whenever a process dies.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run under a context: when ctx is canceled or its deadline
// expires, every live worker process is SIGKILLed, no further incarnation
// is spawned, and the run returns an error wrapping ctx's error.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("launch: %w: Ranks must be positive, got %d", cerr.ErrSpec, cfg.Ranks)
	}
	if cfg.Exe == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("launch: resolve worker binary: %w: %w", cerr.ErrSpec, err)
		}
		cfg.Exe = exe
	}
	if cfg.MaxRestarts == 0 {
		cfg.MaxRestarts = 10
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
	// A reused store directory may hold a previous job's commit record;
	// restoring it into this job would resume foreign state. Checkpoints
	// are reachable only through the commit record, so clearing it is
	// enough — this job's epochs overwrite the old blobs as they go.
	disk, err := storage.NewDisk(cfg.StoreDir)
	if err != nil {
		return nil, fmt.Errorf("launch: open store: %w: %w", cerr.ErrStore, err)
	}
	if err := storage.NewCheckpointStore(disk).ClearCommit(); err != nil {
		return nil, fmt.Errorf("launch: clear stale commit record: %w: %w", cerr.ErrStore, err)
	}

	return supervise(ctx, cfg, cleanupWork)
}

// committedEpoch reads the shared store's commit record (-1 when none).
func committedEpoch(storeDir string) int {
	disk, err := storage.NewDisk(storeDir)
	if err != nil {
		return -1
	}
	epoch, ok, err := storage.NewCheckpointStore(disk).Committed()
	if err != nil || !ok {
		return -1
	}
	return epoch
}

// supervise runs the world with per-rank respawn: a death costs one
// launcher-side recovery gather (O(ranks) tiny sidecar reads), fresh
// processes for the dead ranks only, and an in-process rollback for every
// survivor. The handshake with surviving workers runs over marker files in
// the rendezvous tree: ABORT in the dead incarnation's directory tells
// stragglers to stop forming its mesh, recovery.<rank> files plus a final
// GO marker in the next incarnation's directory carry each rank's
// recovery slice (suppression list, replica set, kill plan).
func supervise(ctx context.Context, cfg Config, cleanupWork bool) (*Result, error) {
	n := cfg.Ranks
	rdvRoot := filepath.Join(cfg.WorkDir, "rdv")
	res := &Result{}

	// The stats aggregator reconstructs per-rank counters from the frames
	// every worker streams back on its stats pipe; frames also forward to
	// the caller's sink, live.
	agg := protocol.NewAggregator(nil)
	observe := func(f protocol.StatsFrame) {
		agg.Observe(f)
		if cfg.StatsSink != nil {
			cfg.StatsSink(f)
		}
	}

	var errMu sync.Mutex
	logf := func(format string, args ...any) {
		errMu.Lock()
		fmt.Fprintf(cfg.Stderr, format, args...)
		errMu.Unlock()
	}
	var readersWG sync.WaitGroup
	defer readersWG.Wait()
	var watchWG sync.WaitGroup
	defer watchWG.Wait()

	// Every spawn produces exactly one exit event; the capacity covers the
	// worst case (a full respawn every round) so watchers never block.
	exits := make(chan workerExit, n*(cfg.MaxRestarts+2))
	var liveMu sync.Mutex
	cmds := make([]*exec.Cmd, n)
	live := make([]bool, n)
	done := make([]bool, n)
	var rank0Out *bytes.Buffer

	killLive := func() {
		liveMu.Lock()
		defer liveMu.Unlock()
		for r, c := range cmds {
			if live[r] {
				c.Process.Kill()
			}
		}
	}
	// Never leak worker processes, whatever path returns.
	defer killLive()
	stopCancel := context.AfterFunc(ctx, killLive)
	defer stopCancel()

	spawn := func(r, incarnation int, killAt int64) error {
		rdv := filepath.Join(rdvRoot, strconv.Itoa(incarnation))
		cmd := exec.Command(cfg.Exe, cfg.Args...)
		cmd.Env = append(os.Environ(),
			envWorker+"=1",
			envRank+"="+strconv.Itoa(r),
			envRanks+"="+strconv.Itoa(n),
			envIncarnation+"="+strconv.Itoa(incarnation),
			envRendezvous+"="+rdv,
			envStore+"="+cfg.StoreDir,
			envDetector+"="+strconv.FormatInt(cfg.DetectorTimeout.Milliseconds(), 10),
		)
		if killAt > 0 {
			cmd.Env = append(cmd.Env, envKillAtOp+"="+strconv.FormatInt(killAt, 10))
		}
		if r == 0 {
			rank0Out = &bytes.Buffer{}
			cmd.Stdout = rank0Out
		}
		cmd.Stderr = &prefixWriter{w: cfg.Stderr, mu: &errMu, prefix: fmt.Sprintf("[rank %d] ", r)}
		statsR, statsW, err := os.Pipe()
		if err != nil {
			return fmt.Errorf("launch: stats pipe for rank %d: %w: %w", r, cerr.ErrTransport, err)
		}
		cmd.ExtraFiles = []*os.File{statsW}
		cmd.Env = append(cmd.Env, envStatsFD+"=3")
		if err := cmd.Start(); err != nil {
			statsR.Close()
			statsW.Close()
			return fmt.Errorf("launch: spawn rank %d: %w: %w", r, cerr.ErrTransport, err)
		}
		statsW.Close()
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			defer statsR.Close()
			protocol.ReadStatsFrames(statsR, observe)
		}()
		if cfg.Verbose {
			note := ""
			if killAt > 0 {
				note = fmt.Sprintf(" (SIGKILL at op %d)", killAt)
			}
			logf("c3launch: incarnation %d: rank %d is pid %d%s\n", incarnation, r, cmd.Process.Pid, note)
		}
		liveMu.Lock()
		cmds[r] = cmd
		live[r] = true
		liveMu.Unlock()
		watchWG.Add(1)
		go func(r int, cmd *exec.Cmd) {
			defer watchWG.Done()
			err := cmd.Wait()
			liveMu.Lock()
			live[r] = false
			liveMu.Unlock()
			ws := cmd.ProcessState
			exits <- workerExit{
				rank:   r,
				err:    err,
				desc:   ws.String(),
				code:   ws.ExitCode(),
				signal: !ws.Exited(),
			}
		}(r, cmd)
		return nil
	}

	incarnation := 0
	if err := os.MkdirAll(filepath.Join(rdvRoot, "0"), 0o755); err != nil {
		return nil, fmt.Errorf("launch: rendezvous dir: %w: %w", cerr.ErrSpec, err)
	}
	kill := killMapFor(cfg.Kills, 0)
	for r := 0; r < n; r++ {
		if err := spawn(r, 0, kill[r]); err != nil {
			return nil, err
		}
	}
	res.Incarnations = append(res.Incarnations, newIncarnationReport(n))
	cur := func() *IncarnationReport { return &res.Incarnations[len(res.Incarnations)-1] }
	for r := range cmds {
		cur().PIDs[r] = cmds[r].Process.Pid
	}

	// handleExit folds one exit event into the current report and
	// classifies it. A hard failure (anything but exit 0, the rollback
	// code, or a signal) ends the run.
	var hardCauses []error
	rollbackPending := false
	handleExit := func(e workerExit) {
		cur().Exits[e.rank] = e.desc
		cur().Codes[e.rank] = e.code
		switch {
		case e.err == nil:
			done[e.rank] = true
		case e.signal || e.code == exitRollback:
			rollbackPending = true
			if cfg.Verbose {
				logf("c3launch: incarnation %d: rank %d exited: %s\n", incarnation, e.rank, e.desc)
			}
		default:
			cat := cerr.FromExitCode(e.code)
			if cat == nil {
				cat = cerr.ErrProgram
			}
			hardCauses = append(hardCauses, fmt.Errorf("rank %d: %w (%s)", e.rank, cat, e.desc))
		}
	}
	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}

	for {
		handleExit(<-exits)
		// A death burst (multi-rank kill, cascade) should cost one rollback
		// round, not one per corpse: linger briefly for co-dying ranks.
		if rollbackPending {
			settle := time.After(200 * time.Millisecond)
		drain:
			for {
				select {
				case e := <-exits:
					handleExit(e)
				case <-settle:
					break drain
				}
			}
		}
		if cause := ctx.Err(); cause != nil {
			killLive()
			return nil, fmt.Errorf("launch: run canceled: %w: %w", cerr.ErrCanceled, cause)
		}
		if len(hardCauses) > 0 {
			killLive()
			cat := cerr.Category(errors.Join(hardCauses...))
			return nil, fmt.Errorf("launch: incarnation %d failed hard: %w: %s",
				incarnation, cat, strings.Join(nonEmpty(cur().Exits), ", "))
		}
		if !rollbackPending {
			if !allDone() {
				continue
			}
			res.Output = rank0Out.String()
			res.Stats = agg.FinalStats()
			res.PerRank = agg.PerRank()
			if cleanupWork {
				os.RemoveAll(cfg.WorkDir)
			}
			return res, nil
		}

		// Rollback round: abort the dead incarnation's mesh, gather the
		// recovery plan once, publish each rank's slice, respawn only the
		// ranks whose processes are gone.
		res.Restarts++
		if res.Restarts > cfg.MaxRestarts {
			killLive()
			return nil, fmt.Errorf("%w (MaxRestarts = %d)", cerr.ErrMaxRestarts, cfg.MaxRestarts)
		}
		epoch := committedEpoch(cfg.StoreDir)
		cur().RecoveredEpoch = epoch
		res.RecoveredEpochs = append(res.RecoveredEpochs, epoch)
		if cfg.OnRestart != nil {
			cfg.OnRestart(res.Restarts)
		}
		if err := writeMarker(filepath.Join(rdvRoot, strconv.Itoa(incarnation)), abortMarker); err != nil {
			killLive()
			return nil, fmt.Errorf("launch: abort incarnation %d: %w: %w", incarnation, cerr.ErrStore, err)
		}
		incarnation++
		kill = killMapFor(cfg.Kills, incarnation)
		if err := writeRecoveryFiles(cfg, rdvRoot, incarnation, epoch, kill); err != nil {
			killLive()
			return nil, err
		}
		if cfg.Verbose {
			logf("c3launch: incarnation %d: recovery plan published (epoch %d)\n", incarnation, epoch)
		}
		res.Incarnations = append(res.Incarnations, newIncarnationReport(n))
		rollbackPending = false
		for r := 0; r < n; r++ {
			done[r] = false
			liveMu.Lock()
			alive := live[r]
			liveMu.Unlock()
			if !alive {
				// The kill plan rides in the recovery file for every rank of
				// this incarnation (survivors included); no env needed.
				if err := spawn(r, incarnation, 0); err != nil {
					killLive()
					return nil, err
				}
			}
			cur().PIDs[r] = cmds[r].Process.Pid
		}
	}
}

// killMapFor extracts one incarnation's kill schedule.
func killMapFor(kills []KillSpec, incarnation int) map[int]int64 {
	m := map[int]int64{}
	for _, k := range kills {
		if k.Incarnation == incarnation {
			m[k.Rank] = k.AtOp
		}
	}
	return m
}

func nonEmpty(ss []string) []string {
	var out []string
	for _, s := range ss {
		if s != "" {
			out = append(out, s)
		}
	}
	return out
}

// rankRecoveryFile is the gob schema of recovery.<rank>: one rank's slice
// of the launcher-side recovery gather (Epoch -1: fresh start, do not
// restore) plus its kill plan for the incarnation.
type rankRecoveryFile struct {
	protocol.RankRecovery
	KillAtOp int64
}

// writeRecoveryFiles gathers the recovery plan for the committed epoch
// (O(ranks) sidecar reads; skipped entirely when nothing committed) and
// publishes each rank's slice plus the GO marker into the incarnation's
// rendezvous directory. GO is written last: a worker that sees it may
// trust every recovery file is in place.
func writeRecoveryFiles(cfg Config, rdvRoot string, incarnation, epoch int, kill map[int]int64) error {
	dir := filepath.Join(rdvRoot, strconv.Itoa(incarnation))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("launch: rendezvous dir: %w: %w", cerr.ErrSpec, err)
	}
	var plan *protocol.RecoveryPlan
	if epoch >= 0 {
		disk, err := storage.NewDisk(cfg.StoreDir)
		if err != nil {
			return fmt.Errorf("launch: open store for recovery gather: %w: %w", cerr.ErrStore, err)
		}
		plan, err = protocol.GatherRecovery(storage.NewCheckpointStore(disk), epoch, cfg.Ranks)
		if err != nil {
			return fmt.Errorf("launch: gather recovery plan: %w: %w", cerr.ErrStore, err)
		}
	}
	for r := 0; r < cfg.Ranks; r++ {
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

func writeMarker(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFileAtomic(dir, name, []byte("1"))
}

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

// readRecoveryFile loads one rank's recovery slice for an incarnation.
func readRecoveryFile(rdvParent string, incarnation, rank int) (*rankRecoveryFile, error) {
	path := filepath.Join(rdvParent, strconv.Itoa(incarnation), fmt.Sprintf("%s.%04d", recoveryPrefix, rank))
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f rankRecoveryFile
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&f); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &f, nil
}

// awaitNextIncarnation polls the rendezvous tree for a GO marker of an
// incarnation newer than cur, returning the newest found. ok is false on
// timeout — the launcher never published a successor, so the caller should
// exit with the rollback code and let itself be respawned.
func awaitNextIncarnation(rdvParent string, cur int, timeout time.Duration) (next int, ok bool) {
	deadline := time.Now().Add(timeout)
	for {
		best := -1
		entries, _ := os.ReadDir(rdvParent)
		for _, ent := range entries {
			i, err := strconv.Atoi(ent.Name())
			if err != nil || i <= cur || i <= best {
				continue
			}
			if _, err := os.Stat(filepath.Join(rdvParent, ent.Name(), goMarker)); err == nil {
				best = i
			}
		}
		if best >= 0 {
			return best, true
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// abortedMesh reports whether the launcher abandoned an incarnation's mesh.
func abortedMesh(rdv string) bool {
	_, err := os.Stat(filepath.Join(rdv, abortMarker))
	return err == nil
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

// --- worker role ---

// IsWorker reports whether this process was spawned as a launch worker.
// Binaries that can act as launchers must check this first thing in main.
func IsWorker() bool { return os.Getenv(envWorker) == "1" }

// WorkerApp carries the application-level configuration a worker main
// resolves from its (re-parsed) flags.
type WorkerApp struct {
	Prog     engine.Program
	EveryN   int
	Interval time.Duration
	Seed     int64
	Debug    bool
	// Mode selects the protocol version. Recovery requires Full — a
	// killed run in any other mode fails hard — so production launchers
	// pass Full; the fig8 harness sweeps the other versions for fault-free
	// overhead measurements.
	Mode protocol.Mode
	// Policy is the checkpoint policy, handed to the engine untouched.
	Policy protocol.Policy
	// WrapStore, when non-nil, wraps the worker's stable store before the
	// engine sees it. Fault-injection tests use it to fail or delay
	// specific writes (e.g. SIGKILL mid checkpoint flush); production
	// workers leave it nil.
	WrapStore func(storage.Stable) storage.Stable
}

// WorkerMain runs the worker role to completion and exits the process with
// the launch protocol's exit code — cerr.ExitCode of the worker's error, so
// the launcher recovers the failure category. It never returns.
func WorkerMain(app WorkerApp) {
	code, err := workerRun(app)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
	}
	os.Exit(code)
}

func workerRun(app WorkerApp) (int, error) {
	rank, err1 := envInt(envRank)
	ranks, err2 := envInt(envRanks)
	incarnation, err3 := envInt(envIncarnation)
	if err := errors.Join(err1, err2, err3); err != nil {
		return cerr.CodeSpec, err
	}
	rdv := os.Getenv(envRendezvous)
	storeDir := os.Getenv(envStore)
	if rdv == "" || storeDir == "" {
		return cerr.CodeSpec, fmt.Errorf("%w: missing %s or %s", cerr.ErrSpec, envRendezvous, envStore)
	}
	// A malformed fault-injection or detector variable must be a hard error:
	// silently ignoring it would turn a scheduled-kill run into a fault-free
	// run with no diagnostic.
	detectorMS := 2000
	if v := os.Getenv(envDetector); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return cerr.CodeSpec, fmt.Errorf("%w: bad env %s=%q: want a positive integer", cerr.ErrSpec, envDetector, v)
		}
		detectorMS = n
	}
	var killAtOp int64
	if v := os.Getenv(envKillAtOp); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n <= 0 { // the engine treats <=0 as "no kill"
			return cerr.CodeSpec, fmt.Errorf("%w: bad env %s=%q: want a positive integer", cerr.ErrSpec, envKillAtOp, v)
		}
		killAtOp = n
	}

	// The stats stream: frames go to the launcher on the inherited pipe.
	// Writes happen from the rank's own goroutine only, and losing the
	// stream (launcher gone) must not fail the computation, so errors are
	// ignored.
	var statsSink func(protocol.StatsFrame)
	if v := os.Getenv(envStatsFD); v != "" {
		fd, err := strconv.Atoi(v)
		if err != nil || fd < 3 {
			return cerr.CodeSpec, fmt.Errorf("%w: bad env %s=%q: want a file descriptor ≥ 3", cerr.ErrSpec, envStatsFD, v)
		}
		statsPipe := os.NewFile(uintptr(fd), "ccift-stats")
		defer statsPipe.Close()
		statsSink = func(f protocol.StatsFrame) { _ = protocol.WriteStatsFrame(statsPipe, f) }
	}

	disk, err := storage.NewDisk(storeDir)
	if err != nil {
		return cerr.CodeStore, fmt.Errorf("%w: %w", cerr.ErrStore, err)
	}
	var store storage.Stable = disk
	if app.WrapStore != nil {
		store = app.WrapStore(store)
	}

	// This process outlives its incarnation. When the world dies, it keeps
	// its in-memory checkpoint copies, waits for the launcher to publish
	// the next incarnation's recovery files and GO marker, and rejoins the
	// new mesh in-process instead of exiting to be re-exec'd.
	rdvParent := filepath.Dir(rdv)
	// How long a surviving worker waits for the launcher's GO before
	// giving up and exiting with the rollback code (the launcher then
	// re-execs it like a dead rank, so a lost marker costs one restart,
	// not a hang). Generous: the launcher publishes right after its
	// settle-drain and an O(ranks) gather.
	graceWait := 4*time.Duration(detectorMS)*time.Millisecond + 10*time.Second

	rec := &protocol.RankRecovery{Epoch: -1} // incarnation 0: fresh start
	var retained []*protocol.RetainedState
	loadRecovery := func(inc int) (int, error) {
		f, err := readRecoveryFile(rdvParent, inc, rank)
		if err != nil {
			return cerr.CodeStore, fmt.Errorf("%w: read recovery file: %w", cerr.ErrStore, err)
		}
		rec, killAtOp = &f.RankRecovery, f.KillAtOp
		return 0, nil
	}
	if incarnation > 0 {
		// A replacement spawned mid-job: its recovery inputs (and kill
		// plan) come from the launcher's published file, not the env.
		if code, err := loadRecovery(incarnation); err != nil {
			return code, err
		}
	}

	for {
		publish, lookup := tcptransport.FileRendezvous(rdv, 30*time.Second,
			func() bool { return abortedMesh(rdv) })
		tr, err := tcptransport.New(tcptransport.Config{
			Rank: rank, Size: ranks,
			Publish: publish, Lookup: lookup,
			SuspectTimeout: time.Duration(detectorMS) * time.Millisecond,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tcptransport: "+format+"\n", args...)
			},
		})
		if err != nil {
			return cerr.CodeTransport, fmt.Errorf("%w: %w", cerr.ErrTransport, err)
		}

		res, err := engine.RunWorker(context.Background(), engine.WorkerConfig{
			Rank: rank, Ranks: ranks,
			Incarnation: incarnation,
			Mode:        app.Mode,
			Store:       store,
			EveryN:      app.EveryN,
			Interval:    app.Interval,
			Policy:      app.Policy,
			KillAtOp:    killAtOp,
			Kill: func() {
				// A real stopping failure: no deferred cleanup, no recover, no
				// goodbye on the sockets — the kernel reaps the process and
				// peers see connection resets.
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable: SIGKILL cannot be handled
			},
			Seed:         app.Seed,
			Debug:        app.Debug,
			NewTransport: tr.Attach,
			Start:        tr.Start,
			AnnounceDone: tr.AnnounceDone,
			AllDone:      tr.AllDone,
			StatsSink:    statsSink,
			Recovery:     rec,
			Retained:     retained,
		}, app.Prog)
		tr.Close()

		switch {
		case errors.Is(err, engine.ErrIncarnationDead):
		case err != nil && errors.Is(err, cerr.ErrTransport) && abortedMesh(rdv):
			// Mesh formation lost the race with a newer incarnation: the
			// launcher aborted this one after another death. Rejoin.
		case err != nil:
			return cerr.ExitCode(err), err
		default:
			if rank == 0 {
				if res.RecoveredEpoch >= 0 {
					fmt.Fprintf(os.Stderr, "rank 0: incarnation %d recovered from global checkpoint %d\n", incarnation, res.RecoveredEpoch)
				}
				fmt.Printf("result: %v\n", res.Value)
			}
			return exitOK, nil
		}
		if len(res.Retained) > 0 {
			retained = res.Retained
		}
		fmt.Fprintf(os.Stderr, "rank %d: incarnation %d died; awaiting restart\n", rank, incarnation)
		next, ok := awaitNextIncarnation(rdvParent, incarnation, graceWait)
		if !ok {
			// The launcher never published a successor (it may be tearing the
			// world down, or the marker was lost): exit with the rollback
			// code and let it re-exec this rank like a dead one.
			return exitRollback, nil
		}
		incarnation = next
		rdv = filepath.Join(rdvParent, strconv.Itoa(incarnation))
		if code, err := loadRecovery(incarnation); err != nil {
			return code, err
		}
	}
}

func envInt(key string) (int, error) {
	v := os.Getenv(key)
	if v == "" {
		return 0, fmt.Errorf("%w: missing env %s", cerr.ErrSpec, key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("%w: bad env %s=%q: %w", cerr.ErrSpec, key, v, err)
	}
	return n, nil
}
