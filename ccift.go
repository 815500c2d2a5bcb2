// Package ccift is a Go reproduction of the C3 system from "Automated
// Application-level Checkpointing of MPI Programs" (Bronevetsky, Marques,
// Pingali, Stodghill; PPoPP 2003): application-level, coordinated,
// non-blocking checkpointing for message-passing programs.
//
// A program is a function executed by every rank. It communicates only
// through its Rank, registers its recoverable state, and calls
// PotentialCheckpoint wherever a checkpoint may be taken:
//
//	prog := func(r *ccift.Rank) (any, error) {
//		it := ccift.Reg[int](r, "it")
//		x := ccift.Reg[[]float64](r, "x")
//		if !r.Restarting() {
//			*x = make([]float64, 1024)
//		}
//		for ; *it < 1000; *it++ {
//			r.PotentialCheckpoint()
//			// exchange with ccift.Send / ccift.Recv, compute …
//		}
//		return (*x)[0], nil
//	}
//	res, err := ccift.Launch(ctx, ccift.NewSpec(
//		ccift.WithRanks(16), ccift.WithMode(ccift.Full),
//		ccift.WithInterval(30*time.Second)), prog)
//
// Launch is the single entry point for every substrate. By default the
// ranks run as goroutines over an in-process MPI-like substrate; with
// WithDistributed the identical program runs as one OS process per rank
// over a TCP mesh, with checkpoints in a shared on-disk store and failures
// delivered as real SIGKILLs. Either way the system drives the paper's
// coordination protocol (epochs, piggybacked control information,
// late-message and non-determinism logs, early-send suppression), injects
// any configured stopping failures, and transparently rolls the
// computation back to the last committed global checkpoint until the
// program completes. The run can be cancelled or deadlined through ctx and
// fails with a structured *RunError.
//
// Programs may be written directly against this API (registering state and
// looping on a registered counter, as above), or written as plain code and
// instrumented by the cmd/ccift precompiler, which inserts Position Stack
// and Variable Descriptor Stack bookkeeping so that checkpoints may sit
// anywhere in the call tree.
package ccift

import (
	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Rank is a process's handle on the system: MPI-style point-to-point and
// collective communication, checkpoint opportunities, state registration,
// and logged non-determinism. See engine.Rank for the full method set.
type Rank = engine.Rank

// Program is the application entry point executed by every rank.
type Program = engine.Program

// Failure schedules a stopping failure for fault-injection runs: the given
// rank dies at its AtOp-th substrate operation of the given incarnation.
type Failure = engine.Failure

// Result reports a completed run: per-rank return values, the number of
// rollback-restarts performed, and protocol statistics.
type Result = engine.Result

// Stats aggregates one rank's protocol-layer counters: messages and bytes
// sent, piggyback and control overhead, log volume, checkpoints taken.
type Stats = protocol.Stats

// RankStats pins one rank's final counters together with the incarnation
// that produced them; Result.PerRank holds one per rank on both
// substrates.
type RankStats = protocol.RankStats

// Mode selects how much of the system is active — the four program
// versions measured in the paper's Figure 8.
type Mode = protocol.Mode

// The four Figure 8 program versions.
const (
	// Unmodified bypasses the protocol layer entirely.
	Unmodified = protocol.Unmodified
	// PiggybackOnly attaches piggybacks and the collectives' control
	// information but never takes checkpoints.
	PiggybackOnly = protocol.PiggybackOnly
	// NoAppState runs the full protocol but skips application state.
	NoAppState = protocol.NoAppState
	// Full takes complete checkpoints and recovers from failures.
	Full = protocol.Full
)

// Wildcards for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = mpi.AnySource
	// AnyTag matches a message with any tag.
	AnyTag = mpi.AnyTag
)

// Stable is the stable-storage interface checkpoints are written to. Put
// must not retain data, or any part of it, after it returns: a checkpoint's
// chunks are views of the frozen state, which is reused once the flush is
// over, and every in-tree store copies.
type Stable = storage.Stable

// NewMemoryStore returns an in-memory stable store (tests, benchmarks).
func NewMemoryStore() *storage.Memory { return storage.NewMemory() }

// NewDiskStore returns an on-disk stable store rooted at dir.
func NewDiskStore(dir string) (*storage.Disk, error) { return storage.NewDisk(dir) }

// NewThrottledStore wraps a store with a write-bandwidth throttle,
// modelling the paper's 40 MB/s local checkpoint disks.
func NewThrottledStore(inner Stable, bytesPerSecond float64) *storage.Throttled {
	return storage.NewThrottled(inner, bytesPerSecond)
}

// Op combines reduction payloads; used with Allreduce and Reduce.
type Op = mpi.Op

// Built-in reduction operators over packed []float64 / []int64 payloads.
var (
	// SumF64 adds float64 vectors elementwise.
	SumF64 = mpi.SumF64
	// MaxF64 takes the elementwise float64 maximum.
	MaxF64 = mpi.MaxF64
	// MinF64 takes the elementwise float64 minimum.
	MinF64 = mpi.MinF64
	// SumI64 adds int64 vectors elementwise.
	SumI64 = mpi.SumI64
	// MaxI64 takes the elementwise int64 maximum.
	MaxI64 = mpi.MaxI64
	// MinI64 takes the elementwise int64 minimum.
	MinI64 = mpi.MinI64
)

// F64Bytes packs a float64 slice into the wire format used by Send and the
// collectives.
func F64Bytes(xs []float64) []byte { return mpi.F64Bytes(xs) }

// BytesF64 unpacks a wire payload into a float64 slice.
func BytesF64(b []byte) []float64 { return mpi.BytesF64(b) }
