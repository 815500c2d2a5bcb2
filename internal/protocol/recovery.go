package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/storage"
)

// Recovery gather: what a restart needs to know before any rank re-executes.
//
// Section 4.2 is "roll back, hand senders their suppression lists,
// re-execute": on rollback every SENDER must learn which of its messages
// the receivers already hold, so the union of all receivers' early-ID
// sets, re-indexed by sender, is the world's suppression table. Nothing in
// that asks the coordinator to read application state, and it does not.
// Every local checkpoint ends with a recovery-metadata sidecar
// (storage.MetaKey) of about a hundred bytes; one gather (GatherRecovery),
// run once per rollback by engine.Supervisor on every substrate, reads
// exactly `ranks` of them and ships each rank only its slice
// (RankRecovery). The primary's state object is opened only when its
// sidecar counts replicated values (Section 7): the values stay in the
// state stream, where they dedup across epochs, rather than being stored
// a second time in the sidecar.
//
// The sidecar is required. The supervisor clears the commit record before
// incarnation 0, so a job only ever restores epochs it wrote itself; a
// committed epoch without a readable sidecar is a corrupt store
// (cerr.ErrStore), never a cue to read every rank's state instead.

// recoveryMeta is the sidecar's content. Epoch is recorded so a reader can
// detect a sidecar that somehow outlived its epoch directory.
type recoveryMeta struct {
	Epoch      int
	EarlyIDs   [][]uint32 // indexed by sending rank
	Replicated int        // replicated values carried by this rank's state
}

// metaMagic opens a sidecar, followed by uvarints: epoch, replicated count,
// sender count, then per sender an ID count and the IDs.
var metaMagic = []byte("C3RM0002")

func (m *recoveryMeta) marshal() []byte {
	b := append([]byte(nil), metaMagic...)
	b = binary.AppendUvarint(b, uint64(m.Epoch))
	b = binary.AppendUvarint(b, uint64(m.Replicated))
	b = binary.AppendUvarint(b, uint64(len(m.EarlyIDs)))
	for _, set := range m.EarlyIDs {
		b = binary.AppendUvarint(b, uint64(len(set)))
		for _, id := range set {
			b = binary.AppendUvarint(b, uint64(id))
		}
	}
	return b
}

// unmarshalRecoveryMeta decodes a sidecar. Every count is checked against
// the bytes that are left before anything is allocated from it.
func unmarshalRecoveryMeta(raw []byte) (*recoveryMeta, error) {
	rest, ok := bytes.CutPrefix(raw, metaMagic)
	bad := !ok
	next := func(limit uint64) uint64 {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > limit {
			bad, rest = true, nil
			return 0
		}
		rest = rest[n:]
		return v
	}
	count := func() uint64 { return next(uint64(len(rest))) } // an element is a byte or more
	m := &recoveryMeta{Epoch: int(next(1 << 31)), Replicated: int(next(1 << 31))}
	m.EarlyIDs = make([][]uint32, count())
	for s := range m.EarlyIDs {
		if n := count(); n > 0 {
			m.EarlyIDs[s] = make([]uint32, n)
			for i := range m.EarlyIDs[s] {
				m.EarlyIDs[s][i] = uint32(next(1<<32 - 1))
			}
		}
	}
	if bad || len(rest) != 0 {
		return nil, errors.New("truncated, overlong or not a sidecar")
	}
	return m, nil
}

// loadRecoveryMeta reads one rank's sidecar for a committed epoch.
func loadRecoveryMeta(store *storage.CheckpointStore, epoch, rank, ranks int) (*recoveryMeta, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("protocol: %w: recovery sidecar of rank %d, epoch %d: "+format, append([]any{cerr.ErrStore, rank, epoch}, args...)...)
	}
	raw, err := store.GetMeta(epoch, rank)
	if err != nil {
		return nil, corrupt("%w", err)
	}
	m, err := unmarshalRecoveryMeta(raw)
	if err != nil {
		return nil, corrupt("%w", err)
	}
	if m.Epoch != epoch || len(m.EarlyIDs) > ranks {
		return nil, corrupt("records epoch %d and %d senders in a world of %d", m.Epoch, len(m.EarlyIDs), ranks)
	}
	return m, nil
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
	// nil when the primary's checkpoint carries none.
	Replicas map[string][]byte
}

// GatherRecovery builds the world's recovery plan for a committed epoch
// from `ranks` sidecar reads, plus one read of the primary's state (its
// manifest and chunks) only when the primary's sidecar says that state
// carries replicated values. The suppression re-index is receiver-major,
// each receiver's per-sender set appended whole, so the order every sender
// sees is the same on every substrate.
func GatherRecovery(store *storage.CheckpointStore, epoch, ranks int) (*RecoveryPlan, error) {
	plan := &RecoveryPlan{Epoch: epoch, Suppress: make([][]uint32, ranks)}
	for r := 0; r < ranks; r++ {
		m, err := loadRecoveryMeta(store, epoch, r, ranks)
		if err != nil {
			return nil, err
		}
		for sender, set := range m.EarlyIDs {
			if len(set) > 0 {
				plan.Suppress[sender] = append(plan.Suppress[sender], set...)
			}
		}
		if r == 0 && m.Replicated > 0 {
			if plan.Replicas, err = loadReplicas(store, epoch, m.Replicated); err != nil {
				return nil, err
			}
		}
	}
	return plan, nil
}

// loadReplicas extracts the primary's replicated values from its state
// object; want is the count its sidecar promised.
func loadReplicas(store *storage.CheckpointStore, epoch, want int) (map[string][]byte, error) {
	raw, err := store.GetState(epoch, 0)
	if err != nil {
		return nil, fmt.Errorf("protocol: gather primary state (epoch %d): %w", epoch, err)
	}
	st, err := unmarshalState(raw)
	if err != nil {
		return nil, err
	}
	replicas, err := ckpt.ExtractReplicated(st.App)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w: extract replicated data (epoch %d): %w", cerr.ErrStore, epoch, err)
	}
	if len(replicas) != want {
		return nil, fmt.Errorf("protocol: %w: primary state of epoch %d carries %d replicated values, its sidecar says %d", cerr.ErrStore, epoch, len(replicas), want)
	}
	for name, view := range replicas {
		replicas[name] = bytes.Clone(view) // the plan outlives the gather; do not pin the whole state
	}
	return replicas, nil
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
