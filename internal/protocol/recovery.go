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

// RetainedState is a surviving rank's in-memory copy of one epoch's local
// checkpoint. The application section is not a second serialized copy but
// the frozen view the flush streamed to the store, so the views of
// consecutive epochs share every clean page and keeping them costs the
// dirty pages only. A rank that did not die rolls back from these instead
// of re-reading the store — its Saver restores straight out of the view,
// without serializing it — so a single death in a large world touches the
// store O(1) per survivor.
type RetainedState struct {
	Epoch  int
	Header []byte       // the bytes that open the epoch's state object (magic, framed protocol section)
	Frozen *ckpt.Frozen // Snapshot() would yield the bytes that follow Header there
	Log    []byte
}

// retainEpoch opens the ring entry of the local checkpoint being taken and
// releases the one that falls off: ring[0] is the epoch the rank is in,
// ring[1] the one before. Two, not one: at rollback time the committed
// epoch may trail the newest locally written one (a death mid-checkpoint),
// and retaining only the newest would miss exactly the epoch recovery
// wants. Not three: the previous epoch committed before any rank was asked
// for this one, so nothing older can be rolled back to — and releasing it
// here, ahead of the freeze, is what lets a program that dirties every page
// freeze into those very slabs.
func (l *Layer) retainEpoch() {
	if old := l.ring[1]; old != nil {
		old.Frozen.Release()
	}
	l.ring[1], l.ring[0] = l.ring[0], &RetainedState{Epoch: l.epoch}
}

// Retained hands the driver the rank's in-memory checkpoints, newest first,
// once the incarnation is over (after Shutdown): the driver carries them to
// the rank's next incarnation, which takes them over in RestoreFrom. Only
// an epoch with both halves — flushed state and finalized log — can be
// rolled back to; a half-taken one is released. The views outlive this
// layer's Saver, so they are cut loose from its pool. Nil outside Full mode
// or when nothing durable exists yet.
func (l *Layer) Retained() []*RetainedState {
	var out []*RetainedState
	for _, r := range l.ring {
		if r == nil {
			continue
		}
		if r.Frozen == nil || r.Log == nil {
			r.Frozen.Release()
			continue
		}
		r.Frozen.Disown()
		out = append(out, r)
	}
	return out
}
