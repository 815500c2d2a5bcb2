package protocol

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/storage"
)

// Recovery gather: what a restart needs to know before any rank re-executes.
//
// Each rank's checkpoint carries its early-message ID sets (Section 4.2);
// on rollback every SENDER must learn which of its messages the receivers
// already hold, so the union of all receivers' sets, re-indexed by sender,
// is the world's suppression table. Historically each recovering worker
// rebuilt that table itself by reading every rank's full state blob —
// O(world) full-blob reads per worker, O(world²) for the world. Two things
// fix that:
//
//   - a per-rank recovery-metadata sidecar (storage.MetaKey) holding just
//     the early IDs, written right after the state manifest commits, so a
//     gather reads O(world) tiny blobs instead of full states;
//   - a single gather (GatherRecovery) run once by the recovery driver —
//     engine.Supervisor, on every substrate — which then ships
//     each rank only its own slice (RankRecovery).

// recoveryMeta is the sidecar blob's gob schema. Epoch is recorded so a
// reader can detect a sidecar that somehow outlived its epoch directory.
type recoveryMeta struct {
	Epoch    int
	EarlyIDs [][]uint32
}

// saveRecoveryMeta writes the sidecar for one rank's checkpoint. Called
// after the state manifest commit: the sidecar is an accelerator, so it
// must never exist without the state it summarizes.
func saveRecoveryMeta(store *storage.CheckpointStore, epoch, rank int, earlyIDs [][]uint32) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(&recoveryMeta{Epoch: epoch, EarlyIDs: earlyIDs}); err != nil {
		return fmt.Errorf("protocol: encode recovery meta: %w", err)
	}
	return store.PutMeta(epoch, rank, b.Bytes())
}

// loadRecoveryEarlyIDs reads one rank's early-ID sets for an epoch: from
// the sidecar when present, else from the full state blob (checkpoints
// written before the sidecar existed).
func loadRecoveryEarlyIDs(store *storage.CheckpointStore, epoch, rank int) ([][]uint32, error) {
	raw, err := store.GetMeta(epoch, rank)
	if err != nil {
		if errors.Is(err, storage.ErrNotFound) {
			return LoadEarlyIDs(store, epoch, rank)
		}
		return nil, err
	}
	var m recoveryMeta
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&m); err != nil {
		return nil, fmt.Errorf("protocol: decode recovery meta (epoch %d, rank %d): %w", epoch, rank, err)
	}
	if m.Epoch != epoch {
		return nil, fmt.Errorf("protocol: %w: recovery meta of rank %d records epoch %d, requested epoch %d", cerr.ErrStore, rank, m.Epoch, epoch)
	}
	return m.EarlyIDs, nil
}

// RecoveryPlan is everything a world needs to roll back to one committed
// epoch: per-SENDER suppression lists and the primary's replicated values.
// Built once per restart by the recovery driver with O(world) small store
// reads, then sliced per rank.
type RecoveryPlan struct {
	// Epoch is the committed epoch the plan restores, or -1 for a restart
	// from the beginning (no checkpoint committed yet).
	Epoch int
	// Suppress is indexed by SENDING rank: Suppress[s] lists the message
	// IDs rank s must not re-send during recovery.
	Suppress [][]uint32
	// Replicas holds the primary rank's replicated values (Section 7);
	// nil when the primary's checkpoint carries no application state.
	Replicas map[string][]byte
}

// GatherRecovery builds the world's recovery plan for a committed epoch:
// ranks sidecar reads (tiny blobs) plus one full state read (rank 0, for
// the replicated values). The suppression re-index preserves the historic
// order — receiver-major, each receiver's per-sender set appended whole —
// so recovery behaves byte-identically to the old per-worker scan.
func GatherRecovery(store *storage.CheckpointStore, epoch, ranks int) (*RecoveryPlan, error) {
	plan := &RecoveryPlan{Epoch: epoch, Suppress: make([][]uint32, ranks)}
	for r := 0; r < ranks; r++ {
		ids, err := loadRecoveryEarlyIDs(store, epoch, r)
		if err != nil {
			return nil, fmt.Errorf("protocol: gather early IDs of rank %d: %w", r, err)
		}
		for sender, set := range ids {
			if len(set) > 0 {
				plan.Suppress[sender] = append(plan.Suppress[sender], set...)
			}
		}
	}
	primaryApp, err := LoadAppState(store, epoch, 0)
	if err != nil {
		return nil, fmt.Errorf("protocol: gather primary app state: %w", err)
	}
	if len(primaryApp) > 0 {
		plan.Replicas, err = ckpt.ExtractReplicated(primaryApp)
		if err != nil {
			return nil, fmt.Errorf("protocol: extract replicated data: %w", err)
		}
	}
	return plan, nil
}

// RankRecovery is one rank's slice of a RecoveryPlan — what a driver ships
// to a single recovering worker. Epoch -1 means "fresh start, do not
// restore" (the world rolled back before any commit).
type RankRecovery struct {
	Epoch    int
	Suppress []uint32
	Replicas map[string][]byte
}

// ForRank slices the plan for one rank; a nil plan is a fresh start.
func (p *RecoveryPlan) ForRank(r int) *RankRecovery {
	if p == nil {
		return &RankRecovery{Epoch: -1}
	}
	return &RankRecovery{Epoch: p.Epoch, Suppress: p.Suppress[r], Replicas: p.Replicas}
}

// RetainedState is a surviving rank's in-memory copy of one epoch's
// serialized checkpoint — the exact bytes its flusher streamed to the
// store. A rank that did not die rolls back from these instead of
// re-reading the store, so a single death in a large world touches the
// store O(1) per survivor.
type RetainedState struct {
	Epoch      int
	State, Log []byte
}

// retainedRing keeps the newest two epochs of one blob kind. Two, not one:
// at rollback time the committed epoch may trail the newest locally
// written one (a death mid-checkpoint), and retaining only the newest
// would miss exactly the epoch recovery wants.
type retainedRing struct {
	epochs [2]int
	blobs  [2][]byte
}

func (r *retainedRing) put(epoch int, blob []byte) {
	if r.epochs[0] == epoch || r.blobs[0] == nil {
		r.epochs[0], r.blobs[0] = epoch, blob
		return
	}
	if epoch > r.epochs[0] {
		r.epochs[1], r.blobs[1] = r.epochs[0], r.blobs[0]
		r.epochs[0], r.blobs[0] = epoch, blob
	} else {
		r.epochs[1], r.blobs[1] = epoch, blob
	}
}

func (r *retainedRing) get(epoch int) []byte {
	for i, e := range r.epochs {
		if e == epoch && r.blobs[i] != nil {
			return r.blobs[i]
		}
	}
	return nil
}

// Retained returns the rank's in-memory checkpoint copies, newest first —
// the driver stores them across incarnations and hands them back through
// RestoreFrom. Nil when retention is off or nothing durable exists yet.
func (l *Layer) Retained() []*RetainedState {
	if !l.cfg.RetainForRecovery {
		return nil
	}
	var out []*RetainedState
	for _, e := range []int{l.retainStates.epochs[0], l.retainStates.epochs[1]} {
		st, lg := l.retainStates.get(e), l.retainLogs.get(e)
		if st != nil && lg != nil && !containsEpoch(out, e) {
			out = append(out, &RetainedState{Epoch: e, State: st, Log: lg})
		}
	}
	return out
}

func containsEpoch(rs []*RetainedState, e int) bool {
	for _, r := range rs {
		if r.Epoch == e {
			return true
		}
	}
	return false
}

// retainedFor picks the retained copy matching epoch, if any.
func retainedFor(rs []*RetainedState, epoch int) *RetainedState {
	for _, r := range rs {
		if r != nil && r.Epoch == epoch {
			return r
		}
	}
	return nil
}
