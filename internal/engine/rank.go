package engine

import (
	"encoding/binary"
	"math/rand"

	"ccift/internal/ckpt"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

// Rank is the application's view of one process: MPI-like communication
// routed through the checkpointing protocol layer, plus the state-saving
// hooks the CCIFT precompiler targets (variable registration, position
// stack, heap) and a logged source of non-determinism.
type Rank struct {
	l          *protocol.Layer
	restarting bool
	rng        *rand.Rand
	// regs mirrors the VDS's push order for registrations made through this
	// Rank, so Unregister can verify push/pop pairing by depth instead of
	// blindly popping whatever is on top.
	regs []string
}

func newRank(l *protocol.Layer, seed int64, incarnation int) *Rank {
	// Mix the incarnation into the seed: raw re-execution genuinely
	// diverges, and only the protocol's event log makes recovery
	// consistent — as on a real machine, where a restarted process sees
	// fresh randomness.
	s := seed ^ int64(l.Rank()+1)*0x1E3779B97F4A7C15 ^ int64(incarnation+1)*0x3F58476D1CE4E5B9
	return &Rank{l: l, rng: rand.New(rand.NewSource(s))}
}

// Rank returns this process's rank in the world communicator.
func (r *Rank) Rank() int { return r.l.Rank() }

// Size returns the number of processes.
func (r *Rank) Size() int { return r.l.Size() }

// Epoch returns the current checkpoint epoch.
func (r *Rank) Epoch() int { return r.l.Epoch() }

// Restarting reports whether this incarnation resumed from a checkpoint.
// Code guarded by !Restarting() is initialization that must not re-execute
// on recovery (its effects are part of the restored state).
func (r *Rank) Restarting() bool { return r.restarting }

// Layer exposes the protocol layer: to the typed receive (ccift.Recv),
// to tests and to bench.
func (r *Rank) Layer() *protocol.Layer { return r.l }

// --- point-to-point ---

// Send sends data to dst with the given non-negative tag.
func (r *Rank) Send(dst, tag int, data []byte) { r.l.Send(dst, tag, data) }

// Recv receives a message matching (src, tag); src may be AnySource and
// tag AnyTag.
func (r *Rank) Recv(src, tag int) *protocol.AppMessage { return r.l.Recv(src, tag) }

// Isend posts a non-blocking send, returning a pseudo-handle.
func (r *Rank) Isend(dst, tag int, data []byte) protocol.Handle { return r.l.Isend(dst, tag, data) }

// Irecv posts a non-blocking receive, returning a pseudo-handle.
func (r *Rank) Irecv(src, tag int) protocol.Handle { return r.l.Irecv(src, tag) }

// Wait completes a pseudo-handle, returning the message for receives.
func (r *Rank) Wait(h protocol.Handle) *protocol.AppMessage { return r.l.Wait(h) }

// Test checks a pseudo-handle without blocking.
func (r *Rank) Test(h protocol.Handle) (*protocol.AppMessage, bool) { return r.l.Test(h) }

// WaitF64Into completes the receive request h into dst, which is the
// caller's: its length must equal the payload's in elements (anything else
// panics), and once the payload is decoded into it the message goes back to
// the world. A program that waits into the same vector every iteration — a
// halo exchange into its ghost row — allocates nothing here.
func (r *Rank) WaitF64Into(h protocol.Handle, dst []float64) {
	mpi.Fill(dst, func(w []byte) { r.l.WaitInto(h, w) })
}

// --- collectives ---
//
// Each fills a result the caller provides, of the length every rank knows
// (see mpi's collectives); a root-only result is ignored on the other ranks.

// Barrier synchronizes all ranks; on recovery a barrier that crossed the
// recovery line — executed while logging, with a participant still in the
// old epoch — is not re-executed (see protocol.Layer.Barrier).
func (r *Rank) Barrier() { r.l.Barrier() }

// AlignedBarrier is the paper's barrier treatment: all participants execute
// it in the same epoch, with laggards checkpointing at the barrier site.
// Only position-stack-instrumented programs (precompiler output) may use
// it, because resume must land at the barrier itself.
func (r *Rank) AlignedBarrier() { r.l.AlignedBarrier() }

// AllreduceInto combines byte payloads across ranks into dst (len(data)
// bytes): the form the typed front ends build on, so a result is allocated
// once, with its element type.
func (r *Rank) AllreduceInto(dst, data []byte, op mpi.Op) { r.l.AllreduceInto(dst, data, op) }

// AllreduceF64Into combines float64 vectors across ranks into dst, which
// is the caller's: len(xs) long, not overlapping xs, and — being rewritten
// by every call — scratch that needs no Register. The collective fills
// dst's memory and sends xs from its own, so a program that keeps dst
// across iterations allocates nothing here.
func (r *Rank) AllreduceF64Into(dst, xs []float64, op mpi.Op) {
	mpi.Fill(dst, func(w []byte) { r.l.AllreduceInto(w, mpi.Wire(xs), op) })
}

// AllreduceF64 is AllreduceF64Into a fresh result, the caller's forever.
func (r *Rank) AllreduceF64(xs []float64, op mpi.Op) []float64 {
	out := make([]float64, len(xs))
	r.AllreduceF64Into(out, xs, op)
	return out
}

// AllgatherInto concatenates equal-sized payloads from all ranks into dst
// (Size()·len(data) bytes).
func (r *Rank) AllgatherInto(dst, data []byte) { r.l.AllgatherInto(dst, data) }

// AllgatherF64Into concatenates equal-length float64 vectors from all ranks
// into dst (Size()·len(xs) long; see AllreduceF64Into for the rule).
func (r *Rank) AllgatherF64Into(dst, xs []float64) {
	mpi.Fill(dst, func(w []byte) { r.l.AllgatherInto(w, mpi.Wire(xs)) })
}

// GatherInto concatenates payloads in root's dst (Size()·len(data) bytes).
func (r *Rank) GatherInto(root int, dst, data []byte) { r.l.GatherInto(root, dst, data) }

// GatherF64Into concatenates float64 vectors in root's dst (Size()·len(xs)
// long; see AllreduceF64Into for the rule).
func (r *Rank) GatherF64Into(root int, dst, xs []float64) {
	mpi.Fill(dst, func(w []byte) { r.l.GatherInto(root, w, mpi.Wire(xs)) })
}

// BcastInto distributes root's buf into every rank's buf.
func (r *Rank) BcastInto(root int, buf []byte) { r.l.BcastInto(root, buf) }

// ReduceInto combines payloads with op into root's dst (len(data) bytes).
func (r *Rank) ReduceInto(root int, dst, data []byte, op mpi.Op) { r.l.ReduceInto(root, dst, data, op) }

// ScatterInto distributes root's data in equal blocks, one to each rank's
// dst.
func (r *Rank) ScatterInto(root int, dst, data []byte) { r.l.ScatterInto(root, dst, data) }

// AlltoallInto exchanges equal-sized blocks between all ranks into dst
// (len(data) bytes).
func (r *Rank) AlltoallInto(dst, data []byte) { r.l.AlltoallInto(dst, data) }

// ScanInto computes the inclusive prefix reduction across ranks 0..i into
// dst (len(data) bytes).
func (r *Rank) ScanInto(dst, data []byte, op mpi.Op) { r.l.ScanInto(dst, data, op) }

// ReducescatterInto combines per-rank blocks across all ranks into this
// rank's block of the result, dst (len(data)/Size() bytes).
func (r *Rank) ReducescatterInto(dst, data []byte, op mpi.Op) { r.l.ReducescatterInto(dst, data, op) }

// Sendrecv sends to dst and receives from src in one deadlock-free call.
func (r *Rank) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) *protocol.AppMessage {
	return r.l.Sendrecv(dst, sendTag, data, src, recvTag)
}

// --- checkpointing hooks (what the precompiler inserts) ---

// PotentialCheckpoint marks a program location where a local checkpoint may
// be taken (the one annotation the paper requires from the programmer).
//
// Placement rule for hand-instrumented programs: everything the program
// re-executes after a restart (from its registered-state resume point to
// this call) must be free of communication side effects that the
// checkpoint already captured. In practice: call PotentialCheckpoint at
// the top of the iteration body, before the iteration's sends, or register
// the straddling request handles (plus a posted flag) so the restart
// resumes Wait on the revived requests instead of re-posting them —
// re-executing a pre-checkpoint send duplicates a message the receiver's
// restored state or log already accounts for. Precompiled programs are
// exempt: Position Stack instrumentation resumes at the checkpoint
// statement itself.
func (r *Rank) PotentialCheckpoint() { r.l.PotentialCheckpoint() }

// Register pushes a variable descriptor: ptr's value is saved with every
// checkpoint and restored through ptr on restart. Names must be unique per
// live scope. ptr points to a type the checkpoint codec lays out — int,
// int64, uint64, float64, bool, string, []byte, []float64, []int, []int64
// or [][]float64 — or to a protocol.Handle or protocol.CommHandle; any
// other type panics here, and the run ends with ErrProgram naming the
// variable: register a struct's fields one by one.
func (r *Rank) Register(name string, ptr any) {
	fresh := !r.l.Saver.VDS.Live(name)
	if err := r.l.Saver.VDS.Push(name, handleWord(ptr)); err != nil {
		panic(err)
	}
	r.trackReg(name, fresh)
}

// handleWord passes a request or communicator handle to the VDS as the
// int64 it is: the handle types are named, and the checkpoint codec lays out
// int64. Every other pointer goes as it is.
func handleWord(ptr any) any {
	switch p := ptr.(type) {
	case *protocol.Handle:
		return (*int64)(p)
	case *protocol.CommHandle:
		return (*int64)(p)
	}
	return ptr
}

// trackReg records a registration made through this Rank. A re-registration
// of a live name rebinds the existing descriptor in place (the VDS does not
// grow), so only fresh pushes extend the pairing stack.
func (r *Rank) trackReg(name string, fresh bool) {
	if fresh {
		r.regs = append(r.regs, name)
	}
}

// RegisterComputed pushes a descriptor whose value is excluded from
// checkpoints (Section 7's recomputation checkpointing): only a
// fingerprint is saved, and on restart recompute must regenerate the
// identical value — read-only data like CG's matrix block is the common
// case, with the original initializer as the recomputation.
func (r *Rank) RegisterComputed(name string, ptr any, recompute func() error) {
	fresh := !r.l.Saver.VDS.Live(name)
	if err := r.l.Saver.VDS.PushComputed(name, handleWord(ptr), recompute); err != nil {
		panic(err)
	}
	r.trackReg(name, fresh)
}

// RegisterReplicated pushes a descriptor for data every rank holds
// identically (Section 7's distributed redundant data): only rank 0's
// checkpoint carries the value; on restart the other ranks restore from
// rank 0's copy.
func (r *Rank) RegisterReplicated(name string, ptr any) {
	fresh := !r.l.Saver.VDS.Live(name)
	if err := r.l.Saver.VDS.PushReplicated(name, handleWord(ptr)); err != nil {
		panic(err)
	}
	r.trackReg(name, fresh)
}

// Touch records write intent on registered variables: the next
// checkpoint's freeze re-copies touched regions and re-references the
// previous epoch's frozen copy for clean ones.
//
// Placement rule: call Touch after the last write to a variable and
// before the next PotentialCheckpoint — every mutation of a registered
// slice (element writes, reslicing or swapping slice headers) must be
// covered by a Touch, or the checkpoint freezes stale bytes and a recovery
// silently diverges. Scalar values (the non-slice types Register lists,
// handles included) are always re-copied and never need touching;
// touching them anyway is harmless. For heap blocks use Heap().Touch(id).
// A program that cannot track its writes Touches every registered name,
// and Heap().Touch every block it writes, before each PotentialCheckpoint;
// the precompiler emits the Touch of the names it registers.
// Touching a name with no live registration panics — a typo here would
// otherwise surface as silently corrupt recovered state.
//
// Touch and TouchRange stay calls: inlined into the benchmark applications'
// iteration loops, they move the kernels (ROADMAP 7(k)).
//
//go:noinline
func (r *Rank) Touch(names ...string) {
	for _, name := range names {
		if err := r.l.Saver.VDS.Touch(name); err != nil {
			panic(err)
		}
	}
}

// TouchRange records write intent on a sub-range of a registered large
// slice: elements [off, off+n) of a *[]float64 or bytes [off, off+n) of a
// *[]byte. Values above the page threshold (64KB) are tracked in
// page-granular form, so a stencil that updates one halo row of a 16MB
// grid re-copies only the pages that row lands on at the next
// checkpoint, instead of the whole grid.
//
// Placement rule: as with Touch, call it after the last write to the
// range and before the next PotentialCheckpoint. Ranges are clamped to
// the value's current length; for values at or below the page threshold
// (or types without a page form) TouchRange degrades to a whole-value
// Touch, so it is always safe to call. Resizing or swapping the slice
// header still requires a full Touch — TouchRange covers element writes
// through the existing header only.
//
//go:noinline
func (r *Rank) TouchRange(name string, off, n int) {
	if err := r.l.Saver.VDS.TouchRange(name, off, n); err != nil {
		panic(err)
	}
}

// Unregister pops the most recently registered variable (scope exit). The
// pop is verified against this Rank's registration depth: calling
// Unregister without a matching Register — or when the VDS top was pushed
// behind the Rank's back — panics naming the variable involved, so a
// missing Register surfaces at the unbalanced call site instead of as a
// silently corrupted checkpoint.
func (r *Rank) Unregister() {
	if len(r.regs) == 0 {
		panic("engine: Rank.Unregister without a matching Register")
	}
	name := r.regs[len(r.regs)-1]
	if err := r.l.Saver.VDS.PopExpect(name); err != nil {
		panic(err)
	}
	r.regs = r.regs[:len(r.regs)-1]
}

// PS returns the position stack for precompiler-instrumented code.
func (r *Rank) PS() *ckpt.PositionStack { return r.l.Saver.PS }

// Heap returns the checkpointable heap manager.
func (r *Rank) Heap() *ckpt.Heap { return r.l.Saver.Heap }

// --- MPI library opaque objects ---

// CommDup duplicates a communicator (collective); the pseudo-handle
// survives recovery via call replay.
func (r *Rank) CommDup(parent protocol.CommHandle) protocol.CommHandle { return r.l.CommDup(parent) }

// CommSplit splits a communicator (collective).
func (r *Rank) CommSplit(parent protocol.CommHandle, color, key int) protocol.CommHandle {
	return r.l.CommSplit(parent, color, key)
}

// SubComm resolves a communicator pseudo-handle.
func (r *Rank) SubComm(h protocol.CommHandle) *mpi.Comm { return r.l.SubComm(h) }

// --- logged non-determinism ---

// Random returns a uniform float64 in [0,1). The draw is one Nondet
// decision, 8 little-endian bytes: logged while a global checkpoint is in
// progress and replayed on recovery, so recovered executions agree with the
// state other processes checkpointed.
func (r *Rank) Random() float64 {
	b := r.Nondet(func() []byte {
		return binary.LittleEndian.AppendUint64(nil, uint64(r.rng.Int63()))
	})
	return float64(binary.LittleEndian.Uint64(b)&((1<<53)-1)) / (1 << 53)
}

// Nondet routes an arbitrary non-deterministic decision through the
// protocol's event log.
func (r *Rank) Nondet(gen func() []byte) []byte { return r.l.NondetBytes(gen) }

// Iprobe reports whether a message matching (src, tag) is available
// without receiving it; src may be AnySource and tag AnyTag.
func (r *Rank) Iprobe(src, tag int) (ok bool, msgSrc, msgTag int) { return r.l.Iprobe(src, tag) }
