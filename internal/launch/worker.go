package launch

// The worker role: what the launcher's re-exec'd binary runs as one rank.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
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
	// Sync selects the blocking checkpoint (see engine.Config.Sync).
	Sync bool
	// Mode selects the protocol version. Recovery requires Full — a
	// killed run in any other mode fails hard — so production launchers
	// pass Full; the fig8 harness sweeps the other versions for fault-free
	// overhead measurements.
	Mode protocol.Mode
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
	rank, err1 := envInt(envRank, 0)
	ranks, err2 := envInt(envRanks, 1)
	detectorMS, err3 := envInt(envDetector, 1)
	ctlFD, err4 := envInt(envControlFD, 3)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return cerr.CodeSpec, err
	}
	storeDir := os.Getenv(envStore)
	if storeDir == "" {
		return cerr.CodeSpec, fmt.Errorf("%w: missing env %s", cerr.ErrSpec, envStore)
	}

	disk, err := storage.NewDisk(storeDir)
	if err != nil {
		return cerr.CodeStore, fmt.Errorf("%w: %w", cerr.ErrStore, err)
	}
	var store storage.Stable = disk
	if app.WrapStore != nil {
		store = app.WrapStore(store)
	}

	// This process outlives its incarnation. When the world dies it keeps
	// its in-memory checkpoint copies, parks again, and rejoins the next
	// mesh in-process instead of exiting to be re-exec'd.
	ctl := os.NewFile(uintptr(ctlFD), envControlFD)
	defer ctl.Close()
	starts := make(chan *ctlFrame)
	go readControl(ctl, starts) // ends with the stream, which outlives this function only with the process
	var retained []*protocol.RetainedState
	for {
		// Park: bind the next mesh's listener, report it, and block until
		// the launcher has heard the same from (or replaced) every rank, so
		// every address start brings is a bound listener.
		addrs := make([]string, ranks)
		publish, lookup := tcptransport.StaticRendezvous(addrs)
		tr, err := tcptransport.New(tcptransport.Config{
			Rank: rank, Size: ranks,
			Publish: publish, Lookup: lookup,
			SuspectTimeout: time.Duration(detectorMS) * time.Millisecond,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tcptransport: "+format+"\n", args...)
			},
		})
		if err != nil {
			return cerr.CodeTransport, cerr.Ensure(err, cerr.ErrTransport)
		}
		writeCtlFrame(ctl, &ctlFrame{Kind: ctlReady, Addr: tr.Addr()}) // a failed write means the stream is closed, which starts reports
		st, ok := <-starts
		if !ok {
			// An orphan's work can reach nobody: neither compute on nor linger.
			tr.Close()
			return cerr.CodeCanceled, fmt.Errorf("rank %d: %w: control stream closed, the launcher is gone", rank, cerr.ErrCanceled)
		}
		copy(addrs, st.Addrs)

		kept, end := engine.RunWorker(st.ctx, engine.WorkerConfig{
			Rank: rank, Ranks: ranks,
			Incarnation: st.Incarnation,
			Mode:        app.Mode,
			Store:       store,
			EveryN:      app.EveryN,
			Interval:    app.Interval,
			Sync:        app.Sync,
			KillAtOp:    st.KillAtOp,
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
			// Stats frames share the stream: this goroutine writes them
			// between the start and the ready that follows it, each frame
			// in one Write (os.File serializes concurrent ones). Losing the
			// stream (launcher gone) must not fail the computation, so
			// errors are ignored: readControl reports it.
			StatsSink: func(f protocol.StatsFrame) {
				_ = writeCtlFrame(ctl, &ctlFrame{Kind: ctlStats, Incarnation: f.Incarnation, Final: f.Final, Stats: f.Stats})
			},
			Recovery: &st.Recovery,
			Retained: retained,
		}, app.Prog)
		tr.Close()

		switch {
		case end.Failed, end.Canceled:
			// A peer died: this rank's sockets said so, or the launcher did
			// (st.ctx is canceled by nothing else).
		case end.Err != nil:
			return cerr.ExitCode(end.Err), fmt.Errorf("rank %d: %w", rank, end.Err.Err)
		default:
			if rank == 0 {
				if st.Recovery.Epoch >= 0 {
					fmt.Fprintf(os.Stderr, "rank 0: incarnation %d recovered from global checkpoint %d\n", st.Incarnation, st.Recovery.Epoch)
				}
				fmt.Printf("result: %v\n", end.Values[0])
			}
			return cerr.CodeOK, nil
		}
		retained = kept
		fmt.Fprintf(os.Stderr, "rank %d: incarnation %d died; awaiting restart\n", rank, st.Incarnation)
	}
}

// readControl is the worker's end of the control stream: it hands each
// start to the rank loop and cancels that start's context on the abort that
// may follow it, or when the stream ends — the launcher is gone — which
// closing starts tells the rank loop.
func readControl(ctl io.Reader, starts chan<- *ctlFrame) {
	defer close(starts)
	cancel := context.CancelFunc(func() {})
	for {
		f, err := readCtlFrame(ctl)
		switch {
		case err != nil:
			cancel()
			return
		case f.Kind == ctlStart:
			cancel() // the previous incarnation's, long over
			f.ctx, cancel = context.WithCancel(context.Background())
			starts <- f
		case f.Kind == ctlAbort:
			cancel() // the stream is ordered: an abort names the latest start's incarnation
		}
	}
}

// envInt reads a required integer variable no smaller than least. A missing
// or malformed one is a hard error, never a silent default.
func envInt(key string, least int) (int, error) {
	v := os.Getenv(key)
	n, err := strconv.Atoi(v)
	if err != nil || n < least {
		return 0, fmt.Errorf("%w: bad env %s=%q: want an integer ≥ %d", cerr.ErrSpec, key, v, least)
	}
	return n, nil
}
