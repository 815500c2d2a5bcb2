// Package mpi is an in-process message-passing substrate with MPI-like
// semantics: point-to-point sends and receives with tag and source
// matching (including wildcards and therefore non-FIFO application-level
// delivery, Section 3.3 of the paper) and collective operations implemented
// in terms of point-to-point messages (butterfly/binomial trees, as the
// paper's benchmark codes do), on the one communicator a world has.
//
// Ranks are goroutines sharing a World. The transport is reliable — the
// paper assumes a reliable message-delivery layer (LA-MPI) and builds on
// that abstraction — but processes may stop-fail at any operation, which is
// the fault model under study.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Wildcards for Recv, Select and Iprobe.
const (
	AnySource = -1
	AnyTag    = -1
)

// Sentinel failures. These are delivered by panicking, because a stop
// failure terminates the process at an arbitrary instruction, not at an
// error-check boundary; the rank supervisor recovers them.
var (
	// ErrKilled is the panic value of a rank that hits an injected stop
	// failure.
	ErrKilled = errors.New("mpi: rank stop-failed")
	// ErrWorldDead is the panic value raised in surviving ranks once the
	// failure detector has declared the computation dead and a rollback is
	// in progress.
	ErrWorldDead = errors.New("mpi: world shut down")
	// ErrCanceled is the panic value raised in every rank once the run's
	// context is canceled (World.Cancel): unlike ErrWorldDead it means the
	// caller asked the whole computation to stop, so the supervisor aborts
	// instead of rolling back.
	ErrCanceled = errors.New("mpi: run canceled")
)

// Options configure a World.
type Options struct {
	// KillPlan maps rank -> operation index (1-based count of that rank's
	// substrate operations) at which the rank stop-fails.
	KillPlan map[int]int64
	// OnKill, when non-nil, is invoked with the rank as its KillPlan entry
	// fires, before the simulated stop-failure is raised. A cross-process
	// worker uses this to deliver a real SIGKILL to its own process — in
	// that case the call never returns and the simulated path below it is
	// dead code.
	OnKill func(rank int)
	// NewTransport, when non-nil, builds the wire substrate for the world;
	// nil selects the in-process indexed-mailbox transport. Alternative
	// backends (latency models, cross-process shims) plug in here without
	// the communicator or protocol layers changing.
	NewTransport func(*World) Transport
}

// World owns the transport and failure state for one incarnation of the
// computation. A rollback discards the World and builds a fresh one.
type World struct {
	size  int
	tr    Transport
	boxes []*mailbox // in-process transport's mailboxes (tests/diagnostics); nil for custom transports
	opts  Options

	dead     atomic.Bool
	canceled atomic.Bool
	killed   []atomic.Bool
	opCount  []atomic.Int64

	failMu   sync.Mutex
	failures []int // ranks that stop-failed, in detection order

	// free recycles messages and the payload buffers they carry (see
	// message and Release). It belongs to the world, so a rollback, which
	// builds a fresh one, starts from an empty list: nothing a dead
	// incarnation released can surface in the next.
	free sync.Pool
	// releaseHook, when set, sees every message Release is about to put
	// on the free list (tests poison or record it).
	releaseHook func(*Message)
}

// NewWorld creates a world with n ranks.
func NewWorld(n int, opts Options) *World {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: NewWorld(%d): need at least one rank", n))
	}
	w := &World{
		size:    n,
		opts:    opts,
		killed:  make([]atomic.Bool, n),
		opCount: make([]atomic.Int64, n),
	}
	if opts.NewTransport != nil {
		w.tr = opts.NewTransport(w)
	} else {
		inproc := newInprocTransport(w)
		w.tr = inproc
		w.boxes = inproc.boxes
	}
	return w
}

// Transport returns the wire substrate the world runs on.
func (w *World) Transport() Transport { return w.tr }

// Size reports the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns rank's handle on the world communicator.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: Comm(%d): out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// checkRank panics unless rank is one of the world's.
func (w *World) checkRank(rank int) {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
}

// message returns a message with an n-byte payload buffer for sendh to
// fill: one from the free list when there is one (its buffer too, when that
// is large enough), a fresh one otherwise.
func (w *World) message(n int) *Message {
	m, _ := w.free.Get().(*Message)
	if m == nil {
		m = new(Message)
	}
	if m.Data == nil || cap(m.Data) < n { // never nil: an empty payload is empty, as it always was
		m.Data = make([]byte, n)
	}
	m.Data = m.Data[:n]
	m.recyclable = true
	return m
}

// Release hands m back to the world once nothing will read it or its
// payload again. The ownership rule: a receive that has copied or combined
// the payload into its caller's buffer releases the message (every
// collective does); a payload that is returned to the caller — a
// point-to-point receive's — is the caller's forever and is never
// released. A Transport that serialises messages in Send may release
// one as soon as it is encoded. Only a message that owns its payload
// outright is taken — one sendh filled, or one DecodeMessage built; a
// Notify and a second Release of the same message are ignored, so a
// transport need not know which kind it was handed.
func (w *World) Release(m *Message) {
	if !m.recyclable {
		return
	}
	m.recyclable = false
	if w.releaseHook != nil {
		w.releaseHook(m)
	}
	w.free.Put(m)
}

// PoisonReleased is a test seam, not an option: from here on every released
// payload is overwritten before it goes back on the free list, so a reader
// that kept a released buffer sees poison instead of plausible stale data.
// Call it before any rank runs.
func (w *World) PoisonReleased() {
	w.releaseHook = func(m *Message) {
		for i := range m.Data {
			m.Data[i] = 0xDB
		}
	}
}

// Killed reports whether rank has stop-failed (failure-detector plumbing:
// a stopped process's runtime no longer heartbeats).
func (w *World) Killed(rank int) bool { return w.killed[rank].Load() }

// Kill marks rank as stop-failed; its next substrate operation panics with
// ErrKilled. Messages already sent by the rank remain deliverable (they are
// "in flight"); nothing more will be sent.
func (w *World) Kill(rank int) { w.killed[rank].Store(true) }

// Shutdown declares the incarnation dead: all blocked and future substrate
// operations on every rank panic with ErrWorldDead. The rollback driver
// calls this once the failure detector has fired.
func (w *World) Shutdown() {
	w.dead.Store(true)
	w.tr.Interrupt()
}

// Cancel aborts the incarnation on behalf of the caller's context: all
// blocked and future substrate operations on every rank panic with
// ErrCanceled. Unlike Shutdown this is not a failure — the supervisor maps
// it to the context's error instead of scheduling a rollback.
func (w *World) Cancel() {
	w.canceled.Store(true)
	w.tr.Interrupt()
}

// Canceled reports whether Cancel has been called.
func (w *World) Canceled() bool { return w.canceled.Load() }

// raiseIfHalted panics with the halt sentinel when the world has been
// canceled or shut down; blocking paths call it whenever they wake.
func (w *World) raiseIfHalted() {
	if w.canceled.Load() {
		panic(ErrCanceled)
	}
	if w.dead.Load() {
		panic(ErrWorldDead)
	}
}

// Interrupt wakes every blocked receiver without changing any state, so
// conditions passed to Comm.SelectWait are re-evaluated. The engine uses
// this as its completion signal to finished ranks parked in event-driven
// control servicing.
func (w *World) Interrupt() { w.tr.Interrupt() }

// Dead reports whether Shutdown has been called.
func (w *World) Dead() bool { return w.dead.Load() }

// RankObserver is an optional Transport extension: a transport that
// tracks per-rank goroutine lifecycle (the simulated substrate's
// quiescence accounting) implements it to learn when a rank's goroutine
// has exited for good this incarnation.
type RankObserver interface {
	RankDone(rank int)
}

// RankDone tells the transport that rank's goroutine has exited — by
// completing, or by unwinding from a failure. The engine calls it exactly
// once per rank per incarnation; transports that don't observe rank
// lifecycle ignore it.
func (w *World) RankDone(rank int) {
	if o, ok := w.tr.(RankObserver); ok {
		o.RankDone(rank)
	}
}

// Failures returns the ranks observed to have stop-failed so far.
func (w *World) Failures() []int {
	w.failMu.Lock()
	defer w.failMu.Unlock()
	out := make([]int, len(w.failures))
	copy(out, w.failures)
	return out
}

// OpCount reports how many substrate operations rank has executed; useful
// for constructing kill plans from observed traces.
func (w *World) OpCount(rank int) int64 { return w.opCount[rank].Load() }

// enter is called at the top of every substrate operation executed by rank.
// It advances the rank's operation counter and raises injected failures.
func (w *World) enter(rank int) {
	w.raiseIfHalted()
	n := w.opCount[rank].Add(1)
	if plan, ok := w.opts.KillPlan[rank]; ok && n == plan {
		if w.opts.OnKill != nil {
			w.opts.OnKill(rank)
		}
		w.killed[rank].Store(true)
	}
	if w.killed[rank].Load() {
		w.failMu.Lock()
		w.failures = append(w.failures, rank)
		w.failMu.Unlock()
		panic(ErrKilled)
	}
}
