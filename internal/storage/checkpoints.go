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
// A global checkpoint for epoch e consists of one state blob and one log
// blob per rank plus, once every rank has reported stoppedLogging, a commit
// record naming e as "the checkpoint to be used for recovery" (Section 4.1,
// Phase 4 of the paper). Recovery always starts from the newest committed
// epoch; a crash in the middle of checkpoint e+1 therefore falls back to
// epoch e.
type CheckpointStore struct {
	S Stable
}

// NewCheckpointStore wraps s.
func NewCheckpointStore(s Stable) *CheckpointStore { return &CheckpointStore{S: s} }

// BlobKind is one of the per-rank blobs an epoch directory holds. The key
// constructors below write the kinds and RankBlobOfKey reads them back, so
// a kind added here is one every lister of the store sees.
type BlobKind string

const (
	StateBlob BlobKind = "state"
	LogBlob   BlobKind = "log"
	MetaBlob  BlobKind = "meta"
)

func rankBlobKey(epoch int, kind BlobKind, rank int) string {
	return fmt.Sprintf("ckpt/%08d/%s.%04d", epoch, kind, rank)
}

// StateKey names the application+protocol state blob for (epoch, rank).
func StateKey(epoch, rank int) string { return rankBlobKey(epoch, StateBlob, rank) }

// LogKey names the message/non-determinism log blob for (epoch, rank).
func LogKey(epoch, rank int) string { return rankBlobKey(epoch, LogBlob, rank) }

// MetaKey names the recovery-metadata sidecar for (epoch, rank): a small
// blob holding what the recovery driver gathers from that rank's checkpoint
// (its early-message ID sets and how many replicated values its state
// carries), so a restart reads O(ranks) tiny blobs and no rank's state. It
// is part of the checkpoint, not an accelerator: written after the state
// manifest and before the rank reports the epoch durable, pruned with the
// rest of the epoch directory, and a committed epoch without one is a
// corrupt store.
func MetaKey(epoch, rank int) string { return rankBlobKey(epoch, MetaBlob, rank) }

const commitKey = "ckpt/COMMIT"

// PutState durably stores a rank's local checkpoint state for an epoch as
// one inline blob. The asynchronous pipeline streams through StateWriter
// instead; this path remains for the blocking baselines and small states.
func (c *CheckpointStore) PutState(epoch, rank int, data []byte) error {
	return c.S.Put(StateKey(epoch, rank), data)
}

// StateWriter returns a chunked streaming writer for a rank's state blob:
// content after each Cut is stored as content-hashed chunks shared across
// epochs and ranks, and Commit publishes the manifest under the state key.
// ctx, when non-nil, aborts an in-flight flush between chunks.
func (c *CheckpointStore) StateWriter(ctx context.Context, epoch, rank, chunkSize int) *ChunkedWriter {
	return NewChunkedWriter(ctx, c.S, StateKey(epoch, rank), chunkSize)
}

// GetState loads a rank's local checkpoint state for an epoch, reassembling
// it from chunks when the key holds a manifest.
func (c *CheckpointStore) GetState(epoch, rank int) ([]byte, error) {
	return c.getBlob(StateKey(epoch, rank))
}

func (c *CheckpointStore) getBlob(key string) ([]byte, error) {
	b, err := c.S.Get(key)
	if err != nil {
		return nil, err
	}
	if IsManifest(b) {
		return Assemble(c.S, b)
	}
	return b, nil
}

// PutMeta durably stores a rank's recovery-metadata sidecar for an epoch.
func (c *CheckpointStore) PutMeta(epoch, rank int, data []byte) error {
	return c.S.Put(MetaKey(epoch, rank), data)
}

// GetMeta loads a rank's recovery-metadata sidecar for an epoch.
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

// EpochOfKey splits a "ckpt/<8-digit epoch>/<name>" key into the epoch it
// belongs to and its name within the epoch directory; ok is false for the
// commit record, chunks and foreign keys. Prune goes by this alone: an old
// epoch directory is deleted whole, whatever it holds.
func EpochOfKey(key string) (epoch int, name string, ok bool) {
	rest, found := strings.CutPrefix(key, "ckpt/")
	if !found || len(rest) < 9 || rest[8] != '/' {
		return 0, "", false
	}
	epoch, err := strconv.Atoi(rest[:8])
	return epoch, rest[9:], err == nil
}

// RankBlobOfKey inverts StateKey, LogKey and MetaKey; ok is false for any
// other key.
func RankBlobOfKey(key string) (epoch, rank int, kind BlobKind, ok bool) {
	epoch, name, ok := EpochOfKey(key)
	k, suffix, found := strings.Cut(name, ".")
	rank, err := strconv.Atoi(suffix)
	switch kind = BlobKind(k); kind {
	case StateBlob, LogBlob, MetaBlob:
		return epoch, rank, kind, ok && found && err == nil
	}
	return 0, 0, "", false
}

// PruneKeys lists what a prune to keepEpoch deletes, in deletion order:
// every key of an epoch older than keepEpoch — state, log, recovery
// sidecar — then every content-hashed chunk that no remaining state
// manifest references (manifests of epochs newer than keepEpoch count).
// It is the whole decision: Prune deletes exactly these keys, and the
// admin dry run (store.PrunePlan) reports them. The commit record and
// foreign keys are never listed.
func (c *CheckpointStore) PruneKeys(keepEpoch int) ([]string, error) {
	keys, err := c.S.List("ckpt/")
	if err != nil {
		return nil, err
	}
	var doomed, chunkKeys []string
	referenced := make(map[string]bool)
	for _, k := range keys {
		if strings.HasPrefix(k, chunkPrefix) {
			chunkKeys = append(chunkKeys, k)
			continue
		}
		epoch, _, ok := EpochOfKey(k)
		if !ok {
			continue
		}
		if epoch < keepEpoch {
			doomed = append(doomed, k)
			continue
		}
		if _, _, kind, ok := RankBlobOfKey(k); !ok || kind != StateBlob {
			continue
		}
		blob, err := c.S.Get(k)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return nil, err
		}
		if !IsManifest(blob) {
			continue
		}
		refs, err := ParseManifest(blob)
		if err != nil {
			return nil, fmt.Errorf("storage: prune: %s: %w", k, err)
		}
		for _, r := range refs {
			referenced[r.Key()] = true
		}
	}
	for _, k := range chunkKeys {
		if !referenced[k] {
			doomed = append(doomed, k)
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
	keys, err := c.PruneKeys(keepEpoch)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := c.S.Delete(k); err != nil {
			return err
		}
	}
	return nil
}
