package protocol

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/clock"
	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// Mode selects how much of the system is active; the four modes are exactly
// the four program versions measured in Figure 8.
type Mode int

const (
	// Unmodified bypasses the protocol layer entirely (version 1).
	Unmodified Mode = iota
	// PiggybackOnly attaches piggybacks and the collectives' control
	// information but never takes checkpoints (version 2).
	PiggybackOnly
	// NoAppState runs the full protocol — logs, MPI library state, control
	// traffic — but skips serializing application state (version 3).
	NoAppState
	// Full takes complete checkpoints (version 4).
	Full
)

func (m Mode) String() string {
	if names := [...]string{"unmodified", "piggyback-only", "no-app-state", "full"}; m >= 0 && int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Control messages share one reserved tag (application tags are
// non-negative) and name their kind in Message.Header, the word where an
// application message carries its piggyback, as its magnitude -kind; the
// payload is the kind's one or two words. The first five kinds are Figure 4's. kindCannotCheckpoint is
// the end-of-program rule, the one way a checkpoint that cannot complete is
// given up (see Finish); kindFlushDone is not a message between ranks at all
// but the event a rank's own flush task posts when it is over (see
// flush.go).
const tagControl = -10

const (
	kindPleaseCheckpoint = -11
	kindMySendCount      = -12
	kindReadyToStop      = -13
	kindStopLogging      = -14
	kindStoppedLogging   = -15
	kindCannotCheckpoint = -16
	kindFlushDone        = -17
)

// controlSpec receives every control message.
var controlSpec = mpi.RecvSpec{Source: mpi.AnySource, Tag: tagControl}

// Config configures a protocol layer.
type Config struct {
	Mode  Mode
	Store *storage.CheckpointStore
	// Ctx, when non-nil, is the run's context: once it is done, every
	// protocol-layer call raises mpi.ErrCanceled so the rank unwinds
	// promptly even between blocking substrate operations. The engine also
	// cancels the world itself, which wakes ranks parked inside the
	// substrate; this check covers the gaps in between.
	Ctx context.Context
	// EveryN makes the initiator (rank 0) request a global checkpoint
	// every N-th PotentialCheckpoint call it executes. Zero disables.
	EveryN int
	// Interval makes the initiator request a global checkpoint whenever
	// this much wall time has elapsed since the last request. Zero
	// disables. (The paper uses a 30-second interval.)
	Interval time.Duration
	// Debug enables internal consistency assertions: the protocol state
	// machine's invariant check after every transition; every freeze
	// verified byte-for-byte against a fresh encode of the live state
	// (a missed Touch is an immediate ErrProgram naming the variable); and a
	// rollback from a retained view checked against the store's state object.
	Debug bool
	// Tracer, when non-nil, receives protocol events (see TraceEvent).
	Tracer Tracer
	// AsyncFlush runs each checkpoint's serialization and storage I/O as a
	// flush task beside the rank (see flush.go), so the rank blocks only to
	// freeze a copy of the live state; the commit record still waits for
	// every rank's flush. Off, the rank runs the same task body itself: the
	// classic stop-serialize-fsync checkpoint. It is the same write path on
	// the wall clock and on a virtual one.
	AsyncFlush bool
	// IncrementalFreeze is ignored: every layer freezes incrementally
	// (ckpt.Saver.Incremental), so a program owes the Touch write-intent
	// contract. The field stays only while the benchmark module sets it.
	IncrementalFreeze bool
	// StatsSink, when non-nil, receives cumulative snapshots of this
	// layer's Stats at observable progress points (each completed
	// checkpoint, each integrated flush, and Finish). Snapshots are
	// monotone within one layer and always called from the rank's own
	// goroutine; the substrate uses them to stream live counters to a
	// launcher or metrics endpoint.
	StatsSink func(Stats)
	// Clock is the time source for interval triggers and blocked/flush-time
	// accounting, and the owner of the flush task (clock.Go); nil selects the
	// wall clock. The layer takes no decision on which clock it runs, so the
	// simulator's virtual clock executes the default policy's own code.
	Clock clock.Clock
}

// Stats counts protocol activity for the evaluation harness. The json
// tags name the metrics endpoint's series; the control stream carries the
// counters as a layout (Stats.Code), which no tag touches.
// ControlCollectives counts explicit control exchanges — one per rooted
// collective (Bcast, Reduce, Gather, Scatter, Scan); the symmetric
// collectives carry their control word on their own messages.
type Stats struct {
	MessagesSent       int64 `json:"messages_sent"`
	BytesSent          int64 `json:"bytes_sent"`
	PiggybackBytes     int64 `json:"piggyback_bytes"`
	ControlMessages    int64 `json:"control_messages"`
	ControlCollectives int64 `json:"control_collectives"`
	LateLogged         int64 `json:"late_logged"`
	EarlyRecorded      int64 `json:"early_recorded"`
	EventsLogged       int64 `json:"events_logged"`
	LogBytes           int64 `json:"log_bytes"`
	CheckpointsTaken   int64 `json:"checkpoints_taken"`
	CheckpointBytes    int64 `json:"checkpoint_bytes"`
	// CheckpointBytesWritten counts bytes actually stored after chunk
	// dedup; the gap to CheckpointBytes is the incremental-checkpoint win.
	CheckpointBytesWritten int64 `json:"checkpoint_bytes_written"`
	// CheckpointBlockedNs is time the rank spent stopped inside
	// takeCheckpoint (freeze + inline write when synchronous);
	// CheckpointFlushNs is time spent writing state to stable storage
	// (overlapped with computation when asynchronous). Their ratio is the
	// async pipeline's headline number.
	CheckpointBlockedNs int64 `json:"checkpoint_blocked_ns"`
	CheckpointFlushNs   int64 `json:"checkpoint_flush_ns"`
	// FlushThrottleNs is always 0: nothing paces the state writer. The
	// field stays only while the benchmark module reads it.
	FlushThrottleNs int64 `json:"flush_throttle_ns"`
	// CheckpointBytesCopied counts bytes memcopied into frozen views at
	// capture time; with incremental freeze, clean regions re-reference
	// the previous epoch's slabs and cost nothing, so the gap to
	// CheckpointBytes is the dirty-tracking win. CheckpointRegionsDirty /
	// CheckpointRegions count captured vs total regions (VDS variables +
	// heap blocks) across all checkpoints.
	CheckpointBytesCopied  int64 `json:"checkpoint_bytes_copied"`
	CheckpointRegionsDirty int64 `json:"checkpoint_regions_dirty"`
	CheckpointRegions      int64 `json:"checkpoint_regions"`
	SuppressedSends        int64 `json:"suppressed_sends"`
	ReplayedLate           int64 `json:"replayed_late"`
	ReplayedResults        int64 `json:"replayed_results"`
	// RecoveredFromRetained counts restores served from this rank's
	// in-memory retained checkpoint copy instead of the store (localized
	// recovery's survivor path).
	RecoveredFromRetained int64 `json:"recovered_from_retained"`
}

// AppMessage is a delivered application message (piggyback stripped).
type AppMessage struct {
	Source int
	Tag    int
	Data   []byte
}

// Layer is the per-process protocol layer: the I/O shell around the
// protocol's state machine (machine.go). It turns what the substrate and
// the program do into machine transitions and carries out the actions they
// queue; everything else here — the log, the replay, the pseudo-handles,
// the flush, the retained ring — is the state saving of Section 5. It is
// not safe for concurrent use: each rank drives its own layer, mirroring a
// single-threaded MPI process.
type Layer struct {
	comm *mpi.Comm
	cfg  Config
	rank int
	size int
	clk  clock.Clock

	// Saver holds the application state (PS/VDS/heap) that a Full-mode
	// checkpoint serializes.
	Saver *ckpt.Saver

	// m is Figure 4: the protocol variables and the initiator's state.
	m machine
	// lastStart is when the initiator last started a global checkpoint
	// (the Interval trigger's clock reading).
	lastStart time.Time

	log      *Log
	recvSeq  int64
	collSeq  int64
	eventSeq int64

	// replay is the recovered log being re-executed after a rollback.
	replay *Replay

	// MPI library state (Section 5.2).
	handles *handleTable

	// sel is the receive path's spec pair, kept so that a receive
	// allocates none: the application's, then controlSpec.
	sel [2]mpi.RecvSpec

	// done is cfg.Ctx's done channel (nil without one): the per-op
	// cancellation check is one channel poll, not a ctx.Err() lock.
	done <-chan struct{}

	// flush is the current checkpoint's flush task not yet integrated (see
	// flush.go; nil when the state is durable).
	flush *flushTask

	// Retained checkpoints (see RetainedState) of the epoch the rank is in
	// and the one before; rank goroutine only. Empty outside Full mode.
	ring [2]*RetainedState

	Stats Stats
}

// NewLayer builds the protocol layer for one rank on the given world
// communicator.
func NewLayer(comm *mpi.Comm, cfg Config) *Layer {
	n := comm.Size()
	l := &Layer{
		comm:    comm,
		cfg:     cfg,
		rank:    comm.Rank(),
		size:    n,
		Saver:   ckpt.NewSaver(),
		log:     NewLog(),
		handles: newHandleTable(),
		sel:     [2]mpi.RecvSpec{1: controlSpec},
	}
	l.clk = clock.Or(cfg.Clock)
	if cfg.Ctx != nil {
		l.done = cfg.Ctx.Done()
	}
	l.Saver.Incremental = true
	// Rank 0 plays the initiator.
	l.m = newMachine(l.rank, n, cfg.EveryN, l.rank == 0 && cfg.Mode >= NoAppState)
	l.lastStart = l.clk.Now()
	return l
}

// Rank returns this process's rank.
func (l *Layer) Rank() int { return l.rank }

// Size returns the number of processes.
func (l *Layer) Size() int { return l.size }

// Epoch returns the current epoch number (Section 2).
func (l *Layer) Epoch() int { return l.m.epoch }

// Logging reports whether the layer is currently logging (amLogging).
func (l *Layer) Logging() bool { return l.m.amLogging }

// Comm exposes the underlying communicator (tests, baselines).
func (l *Layer) Comm() *mpi.Comm { return l.comm }

// Config returns the configuration NewLayer was given (tests of the policy
// plumbing).
func (l *Layer) Config() Config { return l.cfg }

func (l *Layer) active() bool { return l.cfg.Mode != Unmodified }

// act carries out what the machine's transitions queued, in order, after
// its invariant check under Debug. The actions touch the substrate and the
// store only, never the machine, so nothing is queued while they run.
func (l *Layer) act() {
	if l.cfg.Debug {
		if err := l.m.verify(); err != nil {
			panic(err.Error())
		}
	}
	for i := range l.m.out {
		a := &l.m.out[i]
		switch a.kind {
		case actSend:
			if a.dst != everyRank {
				l.sendCtl(a.dst, a.tag, a.words[:a.n])
				continue
			}
			for q := 0; q < l.size; q++ {
				l.sendCtl(q, a.tag, a.words[:a.n])
			}
		case actFinalizeLog:
			l.writeLog()
		case actCommit:
			l.commit(int(a.words[0]))
		}
	}
	l.m.out = l.m.out[:0]
}

// enterOp runs at the top of every protocol-layer call: it observes
// cancellation, services pending control messages, and lets the initiator
// start a new global checkpoint when its trigger fires.
func (l *Layer) enterOp() {
	l.raiseIfCanceled()
	if !l.active() {
		return
	}
	l.drainControl()
	l.maybeInitiate(false)
}

// raiseIfCanceled panics with mpi.ErrCanceled once the layer's context is
// done. One non-blocking channel poll: cheap enough for every operation.
func (l *Layer) raiseIfCanceled() {
	if l.done == nil {
		return
	}
	select {
	case <-l.done:
		panic(mpi.ErrCanceled)
	default:
	}
}

// drainControl handles every queued control message.
func (l *Layer) drainControl() {
	for {
		_, msg := l.comm.PollSelect(l.sel[1:])
		if msg == nil {
			return
		}
		l.handleControl(msg)
	}
}

// handleControl hands a control message to the machine — or integrates the
// rank's own flush, whose completion arrives the same way — and acts. A
// payload that is not its kind's words is an impossible event, and the
// message is dropped.
func (l *Layer) handleControl(msg *mpi.Message) {
	src, kind, n := msg.Source, -int(msg.Header), len(msg.Data)
	want := 8 // the epoch; mySendCount adds the count
	if kind == kindMySendCount {
		want = 16
	}
	var w [2]uint64
	for i := 0; n == want && i < n/8; i++ {
		w[i] = binary.LittleEndian.Uint64(msg.Data[8*i:])
	}
	l.comm.World().Release(msg) // the words are read: nothing reads msg again
	switch {
	case src == mpi.Local: // no rank sent it: the flush task's kindFlushDone
		l.flushDone()
	case n != want:
		l.m.impossible("control message %d from rank %d carries %d bytes, not its kind's %d", kind, src, n, want)
	default:
		l.m.control(src, kind, w[0], w[1])
	}
	l.act()
}

// maybeInitiate lets the initiator start a global checkpoint when forced,
// when the Interval has elapsed on the layer's clock, or when the machine's
// EveryN trigger is due.
func (l *Layer) maybeInitiate(force bool) {
	if !l.m.canInitiate() {
		return
	}
	due := force || l.cfg.Interval > 0 && l.clk.Since(l.lastStart) >= l.cfg.Interval
	if l.m.initiate(due) {
		l.lastStart = l.clk.Now()
		l.act()
	}
}

// CheckpointInProgress reports whether the initiator is mid-protocol.
func (l *Layer) CheckpointInProgress() bool { return l.m.init.inProgress }

func (l *Layer) sendCtl(dst, kind int, words []uint64) {
	var arr [16]byte // a control message is one or two words, and Send copies what it is given
	buf := arr[:8*len(words)]
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	l.Stats.ControlMessages++
	l.comm.SendHdr(dst, tagControl, uint32(-kind), buf)
}

// writeLog writes the log of the logging phase the machine has just
// ended to stable storage. The epoch's retained copy keeps it too.
func (l *Layer) writeLog() {
	blob := l.log.Marshal()
	if err := l.cfg.Store.PutLog(l.m.epoch, l.rank, blob); err != nil {
		panic(fmt.Errorf("protocol: persist log (epoch %d, rank %d): %w: %w", l.m.epoch, l.rank, cerr.ErrStore, err))
	}
	if l.ring[0] != nil {
		l.ring[0].Log = blob
	}
	l.Stats.LogBytes += int64(len(blob))
	l.trace(TraceLogFinalized, -1, 0, 0, len(blob))
}

// commit records global checkpoint epoch as the one to use for recovery.
func (l *Layer) commit(epoch int) {
	if err := l.cfg.Store.Commit(epoch); err != nil {
		// An error value, not a string: the engine's classifier keeps the
		// store category.
		panic(fmt.Errorf("protocol: commit checkpoint %d: %w: %w", epoch, cerr.ErrStore, err))
	}
	l.trace(TraceCommit, -1, 0, 0, epoch)
	// Epochs older than the newly committed one are unreachable (recovery
	// always starts from the newest commit): delete their blobs and sweep
	// orphaned chunks. Safe against concurrent writers because the next
	// pleaseCheckpoint is only broadcast after this returns. GC is
	// best-effort — the commit record is already durable, so a prune
	// failure must not kill a job whose checkpoints are all intact; the
	// next commit's sweep retries anything still unreferenced.
	if err := l.cfg.Store.Prune(epoch); err != nil {
		fmt.Fprintf(os.Stderr, "protocol: prune epochs below %d (non-fatal): %v\n", epoch, err)
	}
}

// PotentialCheckpoint is the application's checkpoint opportunity. A local
// checkpoint is taken only if one has been requested, and — the deferral
// rule — only once any previous log replay has been fully consumed and all
// suppressed re-sends have been re-executed, so that the counts and logs of
// the new checkpoint are complete.
func (l *Layer) PotentialCheckpoint() {
	l.m.potential()
	l.enterOp()
	if l.cfg.Mode != NoAppState && l.cfg.Mode != Full {
		return
	}
	if !l.m.checkpointRequested || l.m.suppressPending > 0 || l.replay != nil && !l.replay.Exhausted() {
		return
	}
	l.takeCheckpoint()
}

// takeCheckpoint performs potentialCheckpoint() from Figure 4 plus the
// state saving of Section 5. The state save is split into snapshot-now
// (captureState: the encoded protocol record + a frozen copy of the
// application state, the only part the rank blocks for) and flush
// (writeState: chunked durable write), which startFlush runs as a task
// beside the rank, or inline without AsyncFlush. The capture records the
// epoch that ends, so it precedes the machine's transition; the control
// messages the transition queues go out once the flush has started.
func (l *Layer) takeCheckpoint() {
	start := l.clk.Now()
	epoch := l.m.epoch + 1
	if l.cfg.Mode == Full {
		l.retainEpoch(epoch) // ahead of the freeze, which reuses the slabs this releases
	}

	// Save node state: application state (Section 5.1) + MPI library state
	// (Section 5.2) + the early-message IDs and epoch (Figure 4).
	p, err := l.captureState(epoch)
	if err != nil {
		// Panic with the error value so the engine's classifier keeps the
		// category (a freeze cross-check failure carries ErrProgram).
		panic(fmt.Errorf("protocol: snapshot state: %w", err))
	}
	l.m.checkpoint()
	l.startFlush(p)
	l.Stats.CheckpointsTaken++
	l.Stats.CheckpointBlockedNs += l.clk.Since(start).Nanoseconds()
	l.emitStats()

	l.recvSeq, l.collSeq, l.eventSeq = 0, 0, 0
	l.log = NewLog()
	l.replay = nil
	l.act()
}

// Finish marks the application as complete on this rank; afterwards the
// layer only services control traffic via ServiceControlUntil.
//
// End-of-program rule: a global checkpoint in flight when the program
// returns is carried to its commit. The initiator does not come back from
// Finish while it is in progress, so the other ranks, held in
// ServiceControlUntil until it does, flush, report and let it commit. The
// checkpoint given up is one a rank whose program has returned cannot do
// its part of — no PotentialCheckpoint left to take it at, or a late
// message it will never receive — and that rank declines it (here, or when
// the request or the count reaches it later), so the wait always ends.
func (l *Layer) Finish() {
	l.m.finish()
	l.act()
	if l.m.initiator {
		l.ServiceControlUntil(func() bool { return !l.m.init.inProgress })
	}
	l.emitStats()
}

// emitStats hands the sink a snapshot of the layer's counters; a no-op
// without a configured sink.
func (l *Layer) emitStats() {
	if l.cfg.StatsSink != nil {
		l.cfg.StatsSink(l.Stats)
	}
}

// ServiceControlUntil services control traffic until stop reports true,
// parking on the transport in between: the rank wakes only when a control
// message or its own flush task's completion event arrives, or the world
// is interrupted (the engine's completion signal). An in-flight checkpoint
// cannot stall on this rank's silence, and an idle rank consumes no CPU.
// In Unmodified mode no control traffic exists and the rank just parks.
func (l *Layer) ServiceControlUntil(stop func() bool) {
	for {
		l.raiseIfCanceled()
		l.drainControl()
		// Completion is checked after draining: queued control traffic is
		// always handled first.
		if stop() {
			return
		}
		if _, msg := l.comm.SelectWait(l.sel[1:], stop); msg != nil {
			l.handleControl(msg)
		}
	}
}
