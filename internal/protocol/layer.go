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
	switch m {
	case Unmodified:
		return "unmodified"
	case PiggybackOnly:
		return "piggyback-only"
	case NoAppState:
		return "no-app-state"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Control message tags (application tags must be non-negative). The first
// five are Figure 4's. tagCannotCheckpoint is the end-of-program rule, the
// one way a checkpoint that cannot complete is given up (see Finish);
// tagFlushDone is not a message between ranks at all but the event a rank's
// own flush task posts when it is over (see flush.go).
const (
	tagPleaseCheckpoint = -11
	tagMySendCount      = -12
	tagReadyToStop      = -13
	tagStopLogging      = -14
	tagStoppedLogging   = -15
	tagCannotCheckpoint = -16
	tagFlushDone        = -17
)

var controlSpecs = []mpi.RecvSpec{
	{Source: mpi.AnySource, Tag: tagPleaseCheckpoint},
	{Source: mpi.AnySource, Tag: tagMySendCount},
	{Source: mpi.AnySource, Tag: tagReadyToStop},
	{Source: mpi.AnySource, Tag: tagStopLogging},
	{Source: mpi.AnySource, Tag: tagStoppedLogging},
	{Source: mpi.AnySource, Tag: tagCannotCheckpoint},
	{Source: mpi.AnySource, Tag: tagFlushDone},
}

// Policy is the checkpoint policy of a run: how a checkpoint is frozen and
// made durable. It is owned here and carried untouched by every
// configuration struct above the protocol (ccift.Spec, engine.Config,
// engine.WorkerConfig, launch.WorkerApp). The zero value is the default
// fast path: asynchronous flush, dirty-region incremental freeze and the
// hash-ahead chunk writer, with no cap on the write stream.
type Policy struct {
	// Sync restores the classic stop-serialize-fsync checkpoint (the
	// Figure 8 baselines): the rank blocks until its state is durable.
	Sync bool
	// FullFreeze re-copies the whole registered state at every freeze and
	// waives the Touch write-intent contract.
	FullFreeze bool
	// FreezeCrossCheck verifies every frozen view byte-for-byte against a
	// fresh encode of the live state, turning a missed Touch into an
	// immediate ErrProgram naming the variable. Debug mode: costs a full
	// encode per checkpoint.
	FreezeCrossCheck bool
	// FlushBandwidth caps checkpoint write streaming at this many bytes
	// per second on both the sync and async paths; 0 = no cap, and no
	// pacing code on the write path.
	FlushBandwidth float64
}

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
	// Debug enables internal consistency assertions — among them one that
	// reads the store: a rollback from a retained frozen view checks the
	// view against the epoch's state object.
	Debug bool
	// Tracer, when non-nil, receives protocol events (see TraceEvent).
	Tracer Tracer
	// AsyncFlush runs each checkpoint's serialization and storage I/O as a
	// flush task beside the rank (see flush.go): takeCheckpoint blocks the
	// rank only to freeze a copy of the live state, and the durable write
	// overlaps continued computation. The commit record still waits for
	// every rank's flush (see maybeReportStopped), so crash-consistency is
	// unchanged. Off, the rank runs the same task body itself before it
	// goes on: the classic stop-serialize-fsync checkpoint. Either way it
	// is the same write path, on the wall clock and on a virtual one.
	AsyncFlush bool
	// FlushBandwidth caps the checkpoint state writer's streaming
	// throughput, in bytes per second, on both the synchronous and
	// asynchronous write paths (see pacer.go). Zero means no cap: the
	// stream goes to the chunk writer unpaced.
	FlushBandwidth float64
	// FreezeCrossCheck re-encodes the live state after every freeze and
	// verifies the frozen view byte-for-byte against it, turning a
	// missing Touch/TouchRange in the application into an immediate
	// ErrProgram naming the stale variable instead of silently divergent
	// recovered state. Debug mode: costs a full encode per checkpoint.
	FreezeCrossCheck bool
	// IncrementalFreeze enables dirty-region tracking in the state-saving
	// runtime: a checkpoint's blocking freeze copies only regions touched
	// since the previous epoch (see ckpt.Saver.Incremental) and
	// re-references the prior frozen slabs for clean ones. Requires the
	// application to honor the Touch write-intent contract; the serialized
	// state is byte-identical to a full freeze, so storage and recovery
	// are unaffected. Off by default.
	IncrementalFreeze bool
	// StatsSink, when non-nil, receives cumulative snapshots of this
	// layer's Stats at observable progress points (each completed
	// checkpoint, each integrated flush, and Finish). Snapshots are
	// monotone within one layer and always called from the rank's own
	// goroutine; the substrate uses them to stream live counters to a
	// launcher or metrics endpoint.
	StatsSink func(Stats)
	// Clock is the time source for interval triggers, the flush pacer,
	// and blocked/flush-time accounting, and the owner of the flush task
	// (clock.Go); nil selects the wall clock. A non-nil Clock is the
	// simulated substrate's virtual (possibly per-rank skewed) clock. It
	// changes nothing else: the layer takes no decision on which clock it
	// runs, so the simulator executes the default policy's own code.
	Clock clock.Clock
}

// Stats counts protocol activity for the evaluation harness. The json
// tags are the stable wire names of the cross-process stats stream (see
// stats.go); add fields freely, but never rename or reuse a tag.
// ControlCollectives counts explicit control exchanges — one per rooted
// collective (Bcast, Reduce, Gather, Scatter, Scan) and AlignedBarrier; the
// symmetric collectives carry their control word on their own messages.
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
	// FlushThrottleNs is time the state writer slept under the
	// FlushBandwidth cap (token-bucket stalls); 0 when no cap is set.
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

// Layer is the per-process protocol layer. It is not safe for concurrent
// use: each rank drives its own layer, mirroring a single-threaded MPI
// process.
type Layer struct {
	comm *mpi.Comm
	cfg  Config
	rank int
	size int
	clk  clock.Clock

	// Saver holds the application state (PS/VDS/heap) that a Full-mode
	// checkpoint serializes.
	Saver *ckpt.Saver

	// Protocol variables of Figure 4.
	epoch                int
	amLogging            bool
	readySent            bool // logging, and readyToStopLogging sent for this epoch
	nextMessageID        uint32
	checkpointRequested  bool
	requestedEpoch       int
	sendCount            []int64
	earlyIDs             [][]uint32
	currentReceiveCount  []int64
	previousReceiveCount []int64
	totalSent            []int64 // -1 = unknown (⊥)

	log      *Log
	recvSeq  int64
	collSeq  int64
	eventSeq int64

	// Recovery state.
	replay          *Replay
	suppress        map[uint32]bool
	suppressPending int
	restarted       bool

	// MPI library state (Section 5.2).
	handles *handleTable
	persist []PersistRecord

	// Initiator state (rank 0 only).
	init *initiatorState

	// selSpecs is the reusable receive-spec buffer for the app+control
	// Select on the receive hot path.
	selSpecs []mpi.RecvSpec

	// exchangeControl's scratch: every rank's state byte, and this rank's
	// contribution to them.
	ctlStates []byte
	ctlMine   [1]byte

	// done is cfg.Ctx's done channel (nil when no context was supplied);
	// kept unwrapped so the per-op cancellation check is one channel poll,
	// not a ctx.Err() mutex acquisition.
	done <-chan struct{}

	// The current checkpoint's durability, as the rank's goroutine sees
	// it: flush is the flush task not yet integrated (see flush.go; nil
	// when the state is durable), logDone and stopSent the log's half.
	flush    *flushTask
	logDone  bool
	stopSent bool

	// Retained checkpoints (localized recovery, see RetainedState): the
	// epoch the rank is in and the one before. Touched from the rank's
	// goroutine only (retainEpoch, finishFlush, finalizeLog). Empty outside
	// Full mode.
	ring [2]*RetainedState

	// Completion: once the application on this rank has finished, the
	// layer only services control traffic.
	finished bool

	Stats Stats

	// pace is the FlushBandwidth token bucket (pacer.go); nil when no cap
	// is set. The flush in flight owns it until it is integrated.
	pace *flushPacer
}

type initiatorState struct {
	inProgress bool
	// closed: some rank's program has returned (the initiator's own, or a
	// rank that declined target), so no further checkpoint could complete
	// and none is started.
	closed    bool
	target    int
	ready     int
	stopped   int
	lastStart time.Time
	sincePrev int64 // PotentialCheckpoint calls since the last initiation
}

// NewLayer builds the protocol layer for one rank on the given world
// communicator.
func NewLayer(comm *mpi.Comm, cfg Config) *Layer {
	n := comm.Size()
	l := &Layer{
		comm:                 comm,
		cfg:                  cfg,
		rank:                 comm.Rank(),
		size:                 n,
		Saver:                ckpt.NewSaver(),
		sendCount:            make([]int64, n),
		earlyIDs:             make([][]uint32, n),
		currentReceiveCount:  make([]int64, n),
		previousReceiveCount: make([]int64, n),
		totalSent:            make([]int64, n),
		log:                  NewLog(),
		suppress:             map[uint32]bool{},
		handles:              newHandleTable(),
		ctlStates:            make([]byte, n),
	}
	for i := range l.totalSent {
		l.totalSent[i] = -1
	}
	l.clk = clock.Or(cfg.Clock)
	if cfg.Ctx != nil {
		l.done = cfg.Ctx.Done()
	}
	if cfg.FlushBandwidth > 0 {
		l.pace = newFlushPacer(l.clk, l.done, cfg.FlushBandwidth)
	}
	// Rank 0 carries the replicated-data copies (Section 7's distributed
	// redundant data optimization) and plays the initiator.
	l.Saver.VDS.Primary = l.rank == 0
	l.Saver.Incremental = cfg.IncrementalFreeze
	if l.rank == 0 && cfg.Mode >= NoAppState {
		l.init = &initiatorState{lastStart: l.clk.Now()}
	}
	return l
}

// Rank returns this process's rank.
func (l *Layer) Rank() int { return l.rank }

// Size returns the number of processes.
func (l *Layer) Size() int { return l.size }

// Epoch returns the current epoch number (Section 2).
func (l *Layer) Epoch() int { return l.epoch }

// Logging reports whether the layer is currently logging (amLogging).
func (l *Layer) Logging() bool { return l.amLogging }

// Restarted reports whether this incarnation was restored from a
// checkpoint.
func (l *Layer) Restarted() bool { return l.restarted }

// Comm exposes the underlying communicator (tests, baselines).
func (l *Layer) Comm() *mpi.Comm { return l.comm }

// Config returns the configuration NewLayer was given (tests of the policy
// plumbing).
func (l *Layer) Config() Config { return l.cfg }

func (l *Layer) color() bool { return l.epoch%2 == 1 }

func (l *Layer) active() bool { return l.cfg.Mode != Unmodified }

// enterOp runs at the top of every protocol-layer call: it observes
// cancellation, services pending control messages, and lets the initiator
// start a new global checkpoint when its trigger fires.
func (l *Layer) enterOp() {
	l.raiseIfCanceled()
	if !l.active() {
		return
	}
	l.drainControl()
	if l.init != nil {
		l.maybeInitiate(false)
	}
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
		idx, m := l.comm.PollSelect(controlSpecs)
		if m == nil {
			return
		}
		l.handleControl(idx, m)
	}
}

func (l *Layer) handleControl(specIdx int, m *mpi.Message) {
	switch controlSpecs[specIdx].Tag {
	case tagPleaseCheckpoint:
		target := int(ctlU64(m.Data, 0))
		if target > l.epoch && target > l.requestedEpoch {
			l.checkpointRequested = true
			l.requestedEpoch = target
			if l.finished {
				l.declineCheckpoint(target)
			}
		}
	case tagMySendCount:
		epoch := int(ctlU64(m.Data, 0))
		count := int64(ctlU64(m.Data, 1))
		// The count describes the sender's previous epoch and is meant for
		// our logging phase of checkpoint `epoch`. Accept it if we are in
		// that epoch (logging) or one behind (we have not checkpointed
		// yet); anything else is stale and impossible under the protocol's
		// ordering guarantees.
		if epoch == l.epoch || epoch == l.epoch+1 {
			l.totalSent[m.Source] = count
			if l.amLogging {
				l.receivedAll()
			}
		} else if l.cfg.Debug {
			panic(fmt.Sprintf("protocol: rank %d: stale mySendCount(epoch=%d) in epoch %d", l.rank, epoch, l.epoch))
		}
	case tagStopLogging:
		epoch := int(ctlU64(m.Data, 0))
		if epoch == l.epoch && l.amLogging {
			l.finalizeLog()
		}
	case tagReadyToStop:
		if l.init == nil {
			panic("protocol: readyToStopLogging received by non-initiator")
		}
		if int(ctlU64(m.Data, 0)) == l.init.target && l.init.inProgress {
			l.init.ready++
			if l.init.ready == l.size {
				// Phase 3: every process has taken its local checkpoint;
				// no further message can be early, so logging may stop.
				for q := 0; q < l.size; q++ {
					l.sendCtl(q, tagStopLogging, uint64(l.init.target))
				}
			}
		}
	case tagStoppedLogging:
		if l.init == nil {
			panic("protocol: stoppedLogging received by non-initiator")
		}
		if int(ctlU64(m.Data, 0)) == l.init.target && l.init.inProgress {
			l.init.stopped++
			if l.init.stopped == l.size {
				// Phase 4 completion: record the new global checkpoint as
				// the one to use for recovery.
				if err := l.cfg.Store.Commit(l.init.target); err != nil {
					// An error value, not a string: the engine's classifier
					// keeps the store category.
					panic(fmt.Errorf("protocol: commit checkpoint %d: %w: %w", l.init.target, cerr.ErrStore, err))
				}
				l.trace(TraceCommit, -1, 0, 0, l.init.target)
				l.init.inProgress = false
				// Epochs older than the newly committed one are
				// unreachable (recovery always starts from the newest
				// commit): delete their blobs and sweep orphaned chunks.
				// Safe against concurrent writers because the next
				// pleaseCheckpoint is only broadcast after this returns.
				// GC is best-effort — the commit record is already durable,
				// so a prune failure must not kill a job whose checkpoints
				// are all intact; the next commit's sweep retries anything
				// still unreferenced.
				if err := l.cfg.Store.Prune(l.init.target); err != nil {
					fmt.Fprintf(os.Stderr, "protocol: prune epochs below %d (non-fatal): %v\n", l.init.target, err)
				}
			}
		}
	case tagCannotCheckpoint:
		if l.init == nil {
			panic("protocol: cannotCheckpoint received by non-initiator")
		}
		if int(ctlU64(m.Data, 0)) == l.init.target && l.init.inProgress {
			// A rank's program returned before it could do its part of
			// this checkpoint, and it will take part in no other: give the
			// global checkpoint up instead of waiting for a commit that
			// cannot happen, and start no further one.
			l.init.inProgress, l.init.closed = false, true
		}
	case tagFlushDone:
		l.flushDone()
	}
}

// declineCheckpoint tells the initiator that this rank's program has
// returned with its part of checkpoint epoch undone, and that it
// never will be done: the local checkpoint not taken (no PotentialCheckpoint
// is left to take it at), or taken with a logging phase that cannot end (a
// late message the program never received). The rank's share of that
// checkpoint ends here.
func (l *Layer) declineCheckpoint(epoch int) {
	l.checkpointRequested, l.amLogging = false, false
	l.sendCtl(0, tagCannotCheckpoint, uint64(epoch))
}

// maybeInitiate starts a new global checkpoint when the configured trigger
// fires (or when forced). Only one global checkpoint may be in progress at
// a time, and none starts that could not complete: every rank, the
// initiator included, must still reach a PotentialCheckpoint to take part.
func (l *Layer) maybeInitiate(force bool) {
	if l.init == nil || l.init.inProgress || l.init.closed {
		return
	}
	fire := force
	if !fire && l.cfg.EveryN > 0 && l.init.sincePrev >= int64(l.cfg.EveryN) {
		fire = true
	}
	if !fire && l.cfg.Interval > 0 && l.clk.Since(l.init.lastStart) >= l.cfg.Interval {
		fire = true
	}
	if !fire {
		return
	}
	l.init.inProgress = true
	l.init.target = l.epoch + 1
	l.init.ready = 0
	l.init.stopped = 0
	l.init.lastStart = l.clk.Now()
	l.init.sincePrev = 0
	for q := 0; q < l.size; q++ {
		l.sendCtl(q, tagPleaseCheckpoint, uint64(l.init.target))
	}
}

// RequestCheckpoint forces the initiator to start a global checkpoint now
// (rank 0 only); used by tests and the recovery demo driver.
func (l *Layer) RequestCheckpoint() {
	if l.init == nil {
		panic("protocol: RequestCheckpoint on non-initiator rank")
	}
	l.maybeInitiate(true)
}

// CheckpointInProgress reports whether the initiator is mid-protocol.
func (l *Layer) CheckpointInProgress() bool {
	return l.init != nil && l.init.inProgress
}

func (l *Layer) sendCtl(dst, tag int, words ...uint64) {
	var arr [16]byte // a control message is one or two words, and Send copies what it is given
	buf := arr[:8*len(words)]
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	l.Stats.ControlMessages++
	l.comm.Send(dst, tag, buf)
}

func ctlU64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[8*i:])
}

// receivedAll implements receivedAll?() of Figure 4: once this process has
// received every late message from the previous epoch, it tells the
// initiator it is ready to stop logging.
func (l *Layer) receivedAll() {
	for p := 0; p < l.size; p++ {
		if l.previousReceiveCount[p] != l.totalSent[p] {
			if l.cfg.Debug && l.totalSent[p] >= 0 && l.previousReceiveCount[p] > l.totalSent[p] {
				panic(fmt.Sprintf("protocol: rank %d received %d late/intra messages from %d but only %d were sent",
					l.rank, l.previousReceiveCount[p], p, l.totalSent[p]))
			}
			if l.finished && l.totalSent[p] >= 0 {
				// p's count is known and this rank's program, which has
				// returned, will receive nothing more: the counts can never
				// meet.
				l.declineCheckpoint(l.epoch)
			}
			return
		}
	}
	l.sendCtl(0, tagReadyToStop, uint64(l.epoch))
	l.readySent = true
	for p := range l.totalSent {
		l.totalSent[p] = -1
	}
}

// finalizeLog implements finalizeLog() of Figure 4: write the log to stable
// storage and stop logging. The stoppedLogging report to the initiator is
// sent through maybeReportStopped, which additionally waits for this
// epoch's state flush — the commit record must never be written while any
// rank's checkpoint is still in flight.
func (l *Layer) finalizeLog() {
	blob := l.log.Marshal()
	if err := l.cfg.Store.PutLog(l.epoch, l.rank, blob); err != nil {
		panic(fmt.Errorf("protocol: persist log (epoch %d, rank %d): %w: %w", l.epoch, l.rank, cerr.ErrStore, err))
	}
	if l.ring[0] != nil {
		l.ring[0].Log = blob
	}
	l.Stats.LogBytes += int64(len(blob))
	l.amLogging = false
	l.trace(TraceLogFinalized, -1, 0, 0, len(blob))
	l.logDone = true
	l.maybeReportStopped()
}

// PotentialCheckpoint is the application's checkpoint opportunity. A local
// checkpoint is taken only if one has been requested, and — the deferral
// rule — only once any previous log replay has been fully consumed and all
// suppressed re-sends have been re-executed, so that the counts and logs of
// the new checkpoint are complete.
func (l *Layer) PotentialCheckpoint() {
	if l.init != nil {
		l.init.sincePrev++
	}
	l.enterOp()
	if l.cfg.Mode != NoAppState && l.cfg.Mode != Full {
		return
	}
	if !l.checkpointRequested {
		return
	}
	if l.replay != nil && (!l.replay.Exhausted() || l.suppressPending > 0) {
		return
	}
	l.takeCheckpoint()
}

// takeCheckpoint performs potentialCheckpoint()'s state transition from
// Figure 4 plus the state saving of Section 5. The state save is split
// into snapshot-now (captureState: protocol counters + a frozen copy of
// the application state, the only part the rank blocks for) and
// flush (writeState: serialize + chunked durable write), which
// startFlush runs as a task beside the rank, or inline under Policy.Sync.
func (l *Layer) takeCheckpoint() {
	start := l.clk.Now()
	l.epoch++
	if l.cfg.Mode == Full {
		l.retainEpoch() // ahead of the freeze, which reuses the slabs this releases
	}

	// Save node state: application state (Section 5.1) + MPI library state
	// (Section 5.2) + the early-message IDs and epoch (Figure 4).
	p, err := l.captureState()
	if err != nil {
		// Panic with the error value so the engine's classifier keeps the
		// category (a freeze cross-check failure carries ErrProgram).
		panic(fmt.Errorf("protocol: snapshot state: %w", err))
	}
	l.logDone = false
	l.stopSent = false
	l.startFlush(p)
	l.Stats.CheckpointsTaken++
	l.Stats.CheckpointBlockedNs += l.clk.Since(start).Nanoseconds()
	l.emitStats()

	// Tell every receiver how many messages we sent it in the epoch that
	// just ended.
	for q := 0; q < l.size; q++ {
		l.sendCtl(q, tagMySendCount, uint64(l.epoch), uint64(l.sendCount[q]))
	}
	for p := 0; p < l.size; p++ {
		l.previousReceiveCount[p] = l.currentReceiveCount[p]
		// Early messages we received in the old epoch were sent in the new
		// one, so they seed the new epoch's receive counts.
		l.currentReceiveCount[p] = int64(len(l.earlyIDs[p]))
		l.earlyIDs[p] = nil
		l.sendCount[p] = 0
	}
	l.checkpointRequested = false
	l.amLogging = true
	l.readySent = false
	l.nextMessageID = 0
	l.recvSeq = 0
	l.collSeq = 0
	l.eventSeq = 0
	l.log = NewLog()
	l.replay = nil
	l.suppress = map[uint32]bool{}
	l.suppressPending = 0
	l.receivedAll()
}

// Finish marks the application as complete on this rank; afterwards the
// layer only services control traffic via ServiceControlUntil.
//
// End-of-program rule: a global checkpoint in flight when the program
// returns is carried to its commit, not abandoned. The initiator does not
// come back from Finish — and so does not announce its completion — while
// the checkpoint is in progress; the other ranks, held in
// ServiceControlUntil by that missing announcement, flush, report and let it
// commit. A run therefore commits every checkpoint all of its ranks took
// part in, whatever the flushes' speed, and ends later only by the commit
// round trip (Shutdown waits for the rank's own state write in any case).
//
// The checkpoint that is given up is the one some rank cannot do its part
// of because its program has returned: it was asked for a local checkpoint
// and no PotentialCheckpoint is left to take it at, or it took one and is
// short of a late message it will now never receive. That rank declines
// (declineCheckpoint — here, or when the request or the sender's count
// reaches it later) and the initiator gives the checkpoint up, so the wait
// below always ends: every rank either does its part or says it cannot. A
// trigger that fires in the program's last iterations buys nothing.
func (l *Layer) Finish() {
	l.finished = true
	if l.checkpointRequested {
		l.declineCheckpoint(l.requestedEpoch)
	} else if l.amLogging {
		l.receivedAll() // declines if a known count can no longer be met
	}
	if l.init != nil {
		l.init.closed = true
		l.ServiceControlUntil(func() bool { return !l.init.inProgress })
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

// ServiceControl processes pending control traffic once; callers that
// poll on their own schedule (tests, external drivers) use this, while
// finished ranks should prefer ServiceControlUntil, which blocks instead
// of spinning.
func (l *Layer) ServiceControl() { l.enterOp() }

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
		if idx, m := l.comm.SelectWait(controlSpecs, stop); m != nil {
			l.handleControl(idx, m)
		}
	}
}
