package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// CheckpointStore layers the checkpoint naming scheme and the initiator's
// commit record on top of a Stable blob store.
//
// A global checkpoint for epoch e consists of one state blob (application
// state; none outside Full mode), one log and one protocol record per rank
// plus, once every rank has reported stoppedLogging, a commit record naming
// e as "the checkpoint to be used for recovery" (Section 4.1, Phase 4 of
// the paper). Recovery always starts from the newest committed epoch; a
// crash in the middle of checkpoint e+1 therefore falls back to epoch e.
type CheckpointStore struct {
	S Stable
}

// NewCheckpointStore wraps s.
func NewCheckpointStore(s Stable) *CheckpointStore { return &CheckpointStore{S: s} }

// BlobKind is one of the per-rank blobs an epoch directory holds. The key
// constructors below write the kinds and classify reads them back, so a
// kind added here is one every walker of the store sees.
type BlobKind string

const (
	StateBlob BlobKind = "state"
	LogBlob   BlobKind = "log"
	MetaBlob  BlobKind = "meta"
)

// LayoutDir is the directory of a store every key of this file and of
// chunk.go lives under; Walk is the one function that lists it.
const (
	LayoutDir  = "ckpt"
	layoutRoot = LayoutDir + "/"
)

func rankBlobKey(epoch int, kind BlobKind, rank int) string {
	return fmt.Sprintf(layoutRoot+"%08d/%s.%04d", epoch, kind, rank)
}

// StateKey names the application state object for (epoch, rank).
func StateKey(epoch, rank int) string { return rankBlobKey(epoch, StateBlob, rank) }

// LogKey names the message/non-determinism log blob for (epoch, rank).
func LogKey(epoch, rank int) string { return rankBlobKey(epoch, LogBlob, rank) }

// MetaKey names the protocol record of (epoch, rank): everything of the
// rank's local checkpoint that is not application state (epoch, early-
// message IDs, request records, persistent-object calls), and all a
// restart's gather reads of it. It is written after the state manifest and
// before the rank reports the epoch durable, pruned with the rest of the
// epoch directory, and a committed epoch without one is a corrupt store.
func MetaKey(epoch, rank int) string { return rankBlobKey(epoch, MetaBlob, rank) }

const commitKey = layoutRoot + "COMMIT"

// PutState durably stores a rank's local checkpoint state for an epoch. It
// is StateWriter fed one buffer: a state key always holds a chunk manifest.
func (c *CheckpointStore) PutState(epoch, rank int, data []byte) error {
	w := c.StateWriter(nil, epoch, rank, 0)
	defer w.Abort()
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, _, err := w.Commit()
	return err
}

// StateWriter returns a chunked streaming writer for a rank's state blob:
// content after each Cut is stored as content-hashed chunks shared across
// epochs and ranks, and Commit publishes the manifest under the state key.
// ctx, when non-nil, aborts an in-flight flush between chunks.
func (c *CheckpointStore) StateWriter(ctx context.Context, epoch, rank, chunkSize int) *ChunkedWriter {
	return NewChunkedWriter(ctx, c.S, StateKey(epoch, rank), chunkSize)
}

// GetState loads a rank's local checkpoint state for an epoch, reassembled
// from the chunks its manifest names. A state key holding anything but a
// manifest is a corrupt store.
func (c *CheckpointStore) GetState(epoch, rank int) ([]byte, error) {
	key := StateKey(epoch, rank)
	man, err := c.S.Get(key)
	if err != nil {
		return nil, err
	}
	state, err := Assemble(c.S, man)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return state, nil
}

// PutMeta durably stores a rank's protocol record for an epoch.
func (c *CheckpointStore) PutMeta(epoch, rank int, data []byte) error {
	return c.S.Put(MetaKey(epoch, rank), data)
}

// GetMeta loads a rank's protocol record for an epoch.
func (c *CheckpointStore) GetMeta(epoch, rank int) ([]byte, error) {
	return c.S.Get(MetaKey(epoch, rank))
}

// PutLog durably stores a rank's finalized log for an epoch.
func (c *CheckpointStore) PutLog(epoch, rank int, data []byte) error {
	return c.S.Put(LogKey(epoch, rank), data)
}

// GetLog loads a rank's finalized log for an epoch.
func (c *CheckpointStore) GetLog(epoch, rank int) ([]byte, error) {
	return c.S.Get(LogKey(epoch, rank))
}

// Commit atomically records epoch as the checkpoint to use for recovery.
func (c *CheckpointStore) Commit(epoch int) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(epoch)+1) // +1 so epoch 0 is distinguishable from "none"
	return c.S.Put(commitKey, b[:])
}

// ClearCommit removes the commit record, so recovery restarts from the
// beginning. A run's supervisor calls this before its first incarnation:
// a stale record a previous job left in a reused store would otherwise be
// restored by the first rollback of the new one.
func (c *CheckpointStore) ClearCommit() error {
	return c.S.Delete(commitKey)
}

// Committed returns the most recently committed epoch. ok is false when no
// global checkpoint has ever been committed.
func (c *CheckpointStore) Committed() (epoch int, ok bool, err error) {
	b, err := c.S.Get(commitKey)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return 0, false, nil
		}
		return 0, false, err
	}
	if len(b) != 8 {
		// A torn commit record would be a storage-layer atomicity bug;
		// surface it as an error rather than a panic in the recovering
		// process.
		return 0, false, fmt.Errorf("storage: commit record is %d bytes, want 8", len(b))
	}
	v := binary.LittleEndian.Uint64(b)
	if v == 0 {
		return 0, false, nil
	}
	return int(v - 1), true, nil
}

// Class says what a key under ckpt/ is.
type Class int

const (
	foreign      Class = iota // nothing this package writes; never touched
	commitRecord              // ckpt/COMMIT
	Chunk                     // ckpt/chunks/<hex>; Name is the content address
	RankBlob                  // ckpt/<epoch>/<kind>.<rank>
	EpochFile                 // anything else in an epoch directory: pruned with it, whatever it is
)

// Entry is one key of the store, classified. The prune, the admin views of
// package store and Disk's directory reclaim all read the layout through
// it, so an on-disk change is made in classify and the key constructors and
// nowhere else.
type Entry struct {
	Key   string
	Class Class
	Name  string   // Chunk, RankBlob, EpochFile: the key's last element
	Epoch int      // RankBlob, EpochFile
	Kind  BlobKind // RankBlob
	Rank  int      // RankBlob
}

// classify inverts commitKey, ChunkRef.Key, StateKey, LogKey and MetaKey.
func classify(key string) Entry {
	e := Entry{Key: key}
	if key == commitKey {
		e.Class = commitRecord
		return e
	}
	if name, ok := strings.CutPrefix(key, chunkPrefix); ok {
		e.Class, e.Name = Chunk, name
		return e
	}
	rest, ok := strings.CutPrefix(key, layoutRoot)
	if !ok || len(rest) < 9 || rest[8] != '/' {
		return e
	}
	epoch, err := strconv.Atoi(rest[:8])
	if err != nil {
		return e
	}
	e.Class, e.Epoch, e.Name = EpochFile, epoch, rest[9:]
	kind, suffix, found := strings.Cut(e.Name, ".")
	switch BlobKind(kind) {
	case StateBlob, LogBlob, MetaBlob:
		if rank, err := strconv.Atoi(suffix); found && err == nil {
			e.Class, e.Kind, e.Rank = RankBlob, BlobKind(kind), rank
		}
	}
	return e
}

// Walk enumerates the store: one List, every key classified once, in key
// order. It reads no blob; Read and Refs load what a walker needs of an
// entry, so the per-commit prune pays for the manifests it must see and
// nothing else.
func (c *CheckpointStore) Walk() ([]Entry, error) {
	keys, err := c.S.List(layoutRoot)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = classify(k)
	}
	return entries, nil
}

// Read loads the blob under a walked key. ok is false when the key has
// vanished since the walk — a running job's initiator pruned it — which
// every walker skips, as if it had listed the store a moment later.
func (c *CheckpointStore) Read(key string) (blob []byte, ok bool, err error) {
	blob, err = c.S.Get(key)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	return blob, err == nil, err
}

// Refs loads the chunk manifest under a state key; ok is as for Read. A
// state key that holds anything else is a corrupt store: an error of the
// ErrStore category.
func (c *CheckpointStore) Refs(key string) (refs []ChunkRef, ok bool, err error) {
	blob, ok, err := c.Read(key)
	if !ok {
		return nil, false, err
	}
	refs, err = ParseManifest(blob)
	return refs, err == nil, err
}

// PruneKeys lists what a prune to keepEpoch deletes, in deletion order:
// every key of an epoch older than keepEpoch — state, log, protocol
// record — then every content-hashed chunk that no remaining state
// manifest references (manifests of epochs newer than keepEpoch count).
// It is the whole decision: Delete removes exactly these keys, for Prune
// and for the admin prune that applies the plan it printed
// (store.PrunePlan). The commit record and foreign keys are never listed.
func (c *CheckpointStore) PruneKeys(keepEpoch int) ([]Entry, error) {
	entries, err := c.Walk()
	if err != nil {
		return nil, err
	}
	var doomed, chunks []Entry
	referenced := make(map[string]bool)
	for _, e := range entries {
		switch e.Class {
		case Chunk:
			chunks = append(chunks, e)
		case RankBlob, EpochFile:
			if e.Epoch < keepEpoch {
				doomed = append(doomed, e)
			} else if e.Kind == StateBlob {
				refs, _, err := c.Refs(e.Key)
				if err != nil {
					return nil, fmt.Errorf("storage: prune: %s: %w", e.Key, err)
				}
				for _, r := range refs {
					referenced[r.Key()] = true
				}
			}
		}
	}
	for _, e := range chunks {
		if !referenced[e.Key] {
			doomed = append(doomed, e)
		}
	}
	return doomed, nil
}

// Prune deletes what PruneKeys lists: every epoch older than keepEpoch and
// the chunks only those epochs referenced. The initiator calls it right
// after writing the commit record for keepEpoch: recovery always starts
// from the newest committed epoch, so older artifacts are unreachable —
// without pruning the store grows without bound.
//
// Multi-process safety: Prune runs only on the initiator, between the
// commit of keepEpoch (every rank's flush for it has completed) and the
// next pleaseCheckpoint broadcast — so no rank is writing state or chunks
// concurrently, and readers (recovering processes) only ever open the
// committed epoch, which is never touched.
func (c *CheckpointStore) Prune(keepEpoch int) error {
	doomed, err := c.PruneKeys(keepEpoch)
	if err != nil {
		return err
	}
	return c.Delete(doomed)
}

// Delete removes walked keys in the order given — a PruneKeys plan's: an
// epoch's blobs before the chunks only they referenced — and lists nothing.
func (c *CheckpointStore) Delete(doomed []Entry) error {
	for _, e := range doomed {
		if err := c.S.Delete(e.Key); err != nil {
			return err
		}
	}
	return nil
}
