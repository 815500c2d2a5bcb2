package ccift

import (
	"fmt"
	"io"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/protocol"
	"ccift/internal/sim"
)

// Spec describes a run for Launch. Build one with NewSpec and functional
// options; the zero-option spec is a single in-process rank with the
// protocol disabled. The same Spec runs unchanged on either substrate —
// WithDistributed is the only thing that moves a program from goroutines
// to one OS process per rank.
type Spec struct {
	cfg         engine.Config
	distributed *Distributed
	sim         *sim.Scenario
	metricsAddr string
}

// Option mutates a Spec under construction.
type Option func(*Spec)

// NewSpec builds a Spec from options. Validation happens in Launch (and in
// Validate), not here, so options can be applied in any order.
func NewSpec(opts ...Option) *Spec {
	s := &Spec{cfg: engine.Config{Ranks: 1}}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithRanks sets the number of ranks (processes of the computation).
func WithRanks(n int) Option { return func(s *Spec) { s.cfg.Ranks = n } }

// WithMode selects the Figure-8 program version; default Unmodified.
func WithMode(m Mode) Option { return func(s *Spec) { s.cfg.Mode = m } }

// WithStore sets the stable storage checkpoints are written to (in-process
// substrate only; distributed runs share a directory via Distributed
// .StoreDir). Default: a fresh in-memory store.
func WithStore(st Stable) Option { return func(s *Spec) { s.cfg.Store = st } }

// WithEveryN makes the initiator request a global checkpoint every N-th
// PotentialCheckpoint call it executes. Mutually exclusive with
// WithInterval.
func WithEveryN(n int) Option { return func(s *Spec) { s.cfg.EveryN = n } }

// WithInterval makes the initiator request a global checkpoint on a wall
// clock (the paper used 30 s). Mutually exclusive with WithEveryN.
func WithInterval(d time.Duration) Option { return func(s *Spec) { s.cfg.Interval = d } }

// WithFailures schedules stopping failures. On the in-process substrate a
// failure is a simulated stop; on the distributed substrate it is a real
// self-SIGKILL of the rank's OS process.
func WithFailures(fs ...Failure) Option {
	return func(s *Spec) { s.cfg.Failures = append(s.cfg.Failures, fs...) }
}

// WithMaxRestarts bounds rollback attempts; default 10.
func WithMaxRestarts(n int) Option { return func(s *Spec) { s.cfg.MaxRestarts = n } }

// WithSeed sets the base seed for per-rank application randomness.
func WithSeed(seed int64) Option { return func(s *Spec) { s.cfg.Seed = seed } }

// WithDebug enables protocol assertions. Two of them are more than a
// comparison. Every freeze is verified byte-for-byte against a
// fresh encode of the live state while the rank is still blocked, so a
// write that escaped Touch fails the run with an ErrProgram-category error
// naming the variable (or heap block) instead of recovering stale state;
// that costs a full state encode per checkpoint. And a survivor's rollback
// from its retained frozen view also reads the epoch's state object and
// requires the view to serialize to exactly those bytes. Use it in tests
// and when adding Touch calls to a program, not in production.
func WithDebug() Option { return func(s *Spec) { s.cfg.Debug = true } }

// WithAsyncCheckpoint toggles the asynchronous checkpoint pipeline, which
// is on by default: a checkpoint blocks the rank only to freeze a copy of
// its live state, and serialization plus the durable (chunked,
// content-deduplicated) write overlap continued computation in a flush
// task beside the rank. The commit record still waits for every rank's
// flush, so crash-recovery semantics are identical. Pass false to restore
// the classic stop-serialize-fsync path (the Figure 8 baselines).
func WithAsyncCheckpoint(enabled bool) Option {
	return func(s *Spec) { s.cfg.Sync = !enabled }
}

// WithTracer streams protocol events from every rank (in-process substrate
// only; the recorder lives in this process).
func WithTracer(t Tracer) Option { return func(s *Spec) { s.cfg.Tracer = t } }

// Scenario configures the simulated substrate selected by WithSimulated:
// the seed every pseudo-random schedule derives from, per-link latency and
// jitter, drop/duplication probabilities, partition windows, scheduled rank
// crashes, per-rank clock skew, and stable-storage slowdown. The zero
// Scenario is a fault-free zero-latency network. Scenarios marshal to JSON
// (String renders it), so a failing run's schedule can be stored and
// replayed exactly.
type Scenario = sim.Scenario

// Partition is a Scenario network-partition window.
type Partition = sim.Partition

// Crash is a Scenario entry stopping a rank at a virtual time.
type Crash = sim.Crash

// Skew is a Scenario per-rank clock offset and rate distortion.
type Skew = sim.Skew

// SlowStore is a Scenario stable-storage slowdown model.
type SlowStore = sim.SlowStore

// WithSimulated selects the simulated substrate: ranks still run as
// goroutines, but every message crosses a simulated network driven by a
// deterministic discrete-event scheduler with virtual time. Timeouts,
// heartbeat schedules and latency distributions elapse in virtual time, so
// a 30-second suspicion timeout costs microseconds of wall clock, and the
// entire schedule — deliveries, duplicates, retransmissions, partitions,
// crashes — is a pure function of the scenario, replayable from its seed.
//
// The checkpoint policy is the same code there as anywhere: a checkpoint's
// flush runs as a task beside its rank that the simulation's scheduler
// counts as an actor, so the default asynchronous pipeline is what a
// simulated run executes. Scenario crashes are silent stops, so failure
// detection runs through the heartbeat detector (Scenario.DetectorTimeout,
// or a 500ms virtual default) rather than the instantaneous self-report.
func WithSimulated(sc Scenario) Option {
	return func(s *Spec) { s.sim = &sc }
}

// Distributed configures the TCP/process substrate: one OS process per
// rank, wire messages over a full TCP mesh, checkpoints in a shared
// on-disk store, failures as real SIGKILLs.
type Distributed struct {
	// StoreDir is the shared checkpoint directory; default a fresh scratch
	// directory under WorkDir (removed on success). WorkDir is the scratch
	// root for rendezvous files; default a fresh temp directory.
	StoreDir string
	WorkDir  string
	// Exe is the worker binary; default the current executable (the caller
	// re-execs itself, with Launch detecting the worker role — see Launch).
	// Args are the arguments the worker is started with; nil means the
	// current process's arguments, so the worker re-parses the same flags.
	// Use Args: []string{} for no arguments.
	Exe  string
	Args []string
	// DetectorTimeout is the workers' heartbeat suspicion timeout; default
	// 2 s. Stderr receives rank-prefixed worker stderr (default os.Stderr);
	// Verbose additionally logs spawn/exit events there.
	DetectorTimeout time.Duration
	Stderr          io.Writer
	Verbose         bool
}

// WithDistributed selects the TCP/process substrate.
func WithDistributed(d Distributed) Option {
	return func(s *Spec) { s.distributed = &d }
}

// WithMetricsAddr exposes the run's live counters at
// http://<addr>/metrics in Prometheus text exposition format for the
// duration of the Launch, on either substrate (on the distributed
// substrate the launcher process serves the aggregated view; workers
// stream their counters to it). Use ":0" to bind a free port. See the
// README's "Operating ccift" section for the exported series.
func WithMetricsAddr(addr string) Option {
	return func(s *Spec) { s.metricsAddr = addr }
}

// Validate reports the first configuration error in the spec; every error
// it returns matches ErrSpec via errors.Is. Launch calls it, so explicit
// use is only needed to check a spec without running it.
func (s *Spec) Validate() error {
	if err := s.cfg.Validate(); err != nil {
		return err
	}
	if s.sim != nil {
		if s.distributed != nil {
			return fmt.Errorf("%w: WithSimulated and WithDistributed are mutually exclusive: a run uses one substrate", cerr.ErrSpec)
		}
		if err := s.sim.Validate(s.cfg.Ranks); err != nil {
			// Validate's errors already carry cerr.ErrSpec.
			return fmt.Errorf("simulated scenario: %w", err)
		}
	}
	if d := s.distributed; d != nil {
		if s.cfg.Store != nil {
			return fmt.Errorf("%w: WithStore supplies an in-process store, which no worker process can reach; "+
				"distributed runs share checkpoints through Distributed.StoreDir", cerr.ErrSpec)
		}
		if s.cfg.Mode != protocol.Full {
			return fmt.Errorf("%w: distributed runs recover from shared checkpoints and require Full mode, got %v "+
				"(the in-process substrate runs any mode)", cerr.ErrSpec, s.cfg.Mode)
		}
		if s.cfg.Tracer != nil {
			return fmt.Errorf("%w: WithTracer is in-process only: the recorder cannot observe worker processes", cerr.ErrSpec)
		}
	}
	return nil
}
