package launch

// The worker role: what the launcher's re-exec'd binary runs as one rank.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/mpi/tcptransport"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

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
	// A malformed detector variable must be a hard error, not a silent
	// fallback to the default.
	detectorMS := 2000
	if v := os.Getenv(envDetector); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return cerr.CodeSpec, fmt.Errorf("%w: bad env %s=%q: want a positive integer", cerr.ErrSpec, envDetector, v)
		}
		detectorMS = n
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

	var retained []*protocol.RetainedState
	for {
		// Every incarnation, the first included, hands this rank its
		// recovery inputs and kill plan in the launcher's published file.
		rec, err := readRecoveryFile(rdvParent, incarnation, rank)
		if err != nil {
			return cerr.CodeStore, fmt.Errorf("%w: read recovery file: %w", cerr.ErrStore, err)
		}
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

		kept, end := engine.RunWorker(context.Background(), engine.WorkerConfig{
			Rank: rank, Ranks: ranks,
			Incarnation: incarnation,
			Mode:        app.Mode,
			Store:       store,
			EveryN:      app.EveryN,
			Interval:    app.Interval,
			Policy:      app.Policy,
			KillAtOp:    rec.KillAtOp,
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
			Recovery:     &rec.RankRecovery,
			Retained:     retained,
		}, app.Prog)
		tr.Close()

		switch {
		case end.Failed:
		case end.Err != nil && errors.Is(end.Err, cerr.ErrTransport) && abortedMesh(rdv):
			// Mesh formation lost the race with a newer incarnation: the
			// launcher aborted this one after another death. Rejoin.
		case end.Canceled:
			return cerr.CodeCanceled, fmt.Errorf("rank %d: %w", rank, cerr.ErrCanceled)
		case end.Err != nil:
			return cerr.ExitCode(end.Err), fmt.Errorf("rank %d: %w", rank, end.Err.Err)
		default:
			if rank == 0 {
				if rec.Epoch >= 0 {
					fmt.Fprintf(os.Stderr, "rank 0: incarnation %d recovered from global checkpoint %d\n", incarnation, rec.Epoch)
				}
				fmt.Printf("result: %v\n", end.Values[0])
			}
			return exitOK, nil
		}
		if len(kept) > 0 {
			retained = kept
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
	}
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
