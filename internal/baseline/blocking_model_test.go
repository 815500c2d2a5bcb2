package baseline

import (
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// Blocking is the blocking coordinated checkpointer of Section 1.2:
// "Software blocking techniques exploit barriers — when processes reach a
// global barrier, each one saves its own state on stable storage. This is
// essentially the solution used today by applications programmers who roll
// their own application-level state-saving code."
//
// Its fundamental flaw, quoted from the same paragraph: "this solution can
// fail for some MPI programs since MPI allows messages to cross barriers.
// These messages would not be saved with the global checkpoint." Checkpoint
// reports such crossing messages so the tests can demonstrate the loss.
type Blocking struct {
	comm  *mpi.Comm
	store *storage.CheckpointStore

	// Epoch counts completed global checkpoints, starting at 0 like the
	// protocol layer's epochs.
	Epoch int
	// Crossed accumulates the messages observed in-flight at checkpoint
	// barriers. Each one is a message that recovery will lose: its send
	// precedes the sender's saved state (so it is not re-sent) and its
	// receive follows the receiver's saved state (so the receiver still
	// expects it).
	Crossed int
}

// NewBlocking builds a blocking checkpointer for one rank.
func NewBlocking(comm *mpi.Comm, store *storage.CheckpointStore) *Blocking {
	return &Blocking{comm: comm, store: store}
}

// Checkpoint runs the barrier-based global checkpoint: synchronize, save
// local state, synchronize again, and (on rank 0) commit. It returns the
// number of messages that crossed the checkpoint barrier at this rank —
// messages already delivered to this rank's mailbox but not yet received by
// the application. A correct checkpointer would have to save them; this one,
// faithfully to the technique it models, does not.
//
// All ranks must call Checkpoint collectively, like an MPI collective.
func (b *Blocking) Checkpoint(state []byte) (crossed int, err error) {
	b.comm.Barrier(0)
	// Between the barriers every rank is inside Checkpoint, so any queued
	// application message was sent before its sender's state was saved and
	// will be received after this rank's state was saved: a crossing
	// message. (Internal barrier traffic is excluded; a real blocking
	// checkpointer's own synchronization does not cross itself.)
	crossed = b.comm.World().Transport().PendingApp(b.comm.Rank(), 0)
	b.Crossed += crossed

	epoch := b.Epoch + 1
	if err := b.store.PutState(epoch, b.comm.Rank(), state); err != nil {
		return crossed, fmt.Errorf("baseline: blocking checkpoint: %w", err)
	}
	// The log slot is written empty so the shared CheckpointStore layout
	// stays uniform; blocking checkpointing has no logging phase.
	if err := b.store.PutLog(epoch, b.comm.Rank(), nil); err != nil {
		return crossed, fmt.Errorf("baseline: blocking checkpoint: %w", err)
	}
	// Second barrier: every rank's state is durable before the commit
	// record moves; third barrier: the commit is visible before any rank
	// leaves the checkpoint (otherwise a racing Restore could miss it).
	b.comm.Barrier(0)
	if b.comm.Rank() == 0 {
		if err := b.store.Commit(epoch); err != nil {
			return crossed, fmt.Errorf("baseline: blocking commit: %w", err)
		}
	}
	b.comm.Barrier(0)
	b.Epoch = epoch
	return crossed, nil
}

// Restore loads this rank's state from the committed global checkpoint.
// Crossing messages are gone: nothing re-creates them, which is the data
// loss the tests demonstrate.
func (b *Blocking) Restore() (state []byte, epoch int, err error) {
	epoch, ok, err := b.store.Committed()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("%w: baseline: no committed blocking checkpoint", cerr.ErrWorldDead)
	}
	state, err = b.store.GetState(epoch, b.comm.Rank())
	if err != nil {
		return nil, 0, err
	}
	b.Epoch = epoch
	return state, epoch, nil
}
