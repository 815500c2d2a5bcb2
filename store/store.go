// Package store is the read-mostly inspection API over on-disk ccift
// checkpoint stores — the directories a distributed Launch (or an
// in-process run with ccift.NewDiskStore) checkpoints into. It answers
// the operational questions a checkpoint directory raises: which epoch is
// committed, what does each epoch hold per rank, how well is chunk-level
// dedup working, which content-hashed chunks are orphaned, and what would
// a prune delete. cmd/c3admin is a thin CLI over this package.
//
// Everything except Prune is read-only and safe to run against the store
// of a live job; Prune (and a PrunePlan applied with it) must only run
// when no job is writing the store.
//
// Errors returned by this package wrap ccift.ErrStore (and
// ccift.ErrSpec for invalid arguments), so callers dispatch with
// errors.Is exactly as they do on Launch errors.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ccift/internal/cerr"
	"ccift/internal/storage"
)

// Store is an opened checkpoint directory.
type Store struct {
	dir string
	s   storage.Stable
	cs  *storage.CheckpointStore
}

// Open opens an existing checkpoint directory for inspection. The
// directory must already exist — Open never creates one (pointing an
// admin tool at a typo must not scaffold an empty store).
func Open(dir string) (*Store, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: open %s: %w", cerr.ErrStore, dir, err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("%w: open %s: not a directory", cerr.ErrStore, dir)
	}
	d, err := storage.NewDisk(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: open %s: %w", cerr.ErrStore, dir, err)
	}
	return &Store{dir: dir, s: d, cs: storage.NewCheckpointStore(d)}, nil
}

// Dir returns the directory the store was opened on.
func (st *Store) Dir() string { return st.dir }

// Committed returns the epoch named by the store's commit record — the
// checkpoint a recovering job would restore. ok is false when no global
// checkpoint has ever been committed.
func (st *Store) Committed() (epoch int, ok bool, err error) {
	epoch, ok, err = st.cs.Committed()
	if err != nil {
		return 0, false, fmt.Errorf("%w: %s: %w", cerr.ErrStore, st.dir, err)
	}
	return epoch, ok, nil
}

// RankBlob summarizes one rank's artifacts within an epoch.
type RankBlob struct {
	Rank int
	// StateBytes is the logical (assembled) size of the rank's state
	// blob; LogBytes the size of its message/non-determinism log;
	// MetaBytes the size of its recovery sidecar.
	StateBytes int64
	LogBytes   int64
	MetaBytes  int64
	// Chunked reports whether the state blob is stored as a chunk
	// manifest (the async pipeline's format) rather than inline; Chunks
	// is the manifest's reference count when it is.
	Chunked bool
	Chunks  int
}

// Epoch summarizes one global checkpoint epoch present in the store.
type Epoch struct {
	Epoch int
	// Committed marks the epoch the commit record names.
	Committed bool
	// Ranks holds one entry per rank with artifacts in this epoch,
	// ordered by rank.
	Ranks []RankBlob
	// StateBytes, LogBytes and MetaBytes are the logical totals over Ranks.
	StateBytes int64
	LogBytes   int64
	MetaBytes  int64
}

// Epochs lists every epoch with artifacts in the store, oldest first.
func (st *Store) Epochs() ([]Epoch, error) {
	keys, err := st.s.List("ckpt/")
	if err != nil {
		return nil, fmt.Errorf("%w: list %s: %w", cerr.ErrStore, st.dir, err)
	}
	committed, hasCommit, err := st.Committed()
	if err != nil {
		return nil, err
	}
	byEpoch := map[int]map[int]*RankBlob{}
	rank := func(epoch, r int) *RankBlob {
		if byEpoch[epoch] == nil {
			byEpoch[epoch] = map[int]*RankBlob{}
		}
		if byEpoch[epoch][r] == nil {
			byEpoch[epoch][r] = &RankBlob{Rank: r}
		}
		return byEpoch[epoch][r]
	}
	for _, k := range keys {
		epoch, r, kind, ok := storage.RankBlobOfKey(k)
		if !ok {
			continue
		}
		blob, err := st.s.Get(k)
		if err != nil {
			return nil, fmt.Errorf("%w: read %s: %w", cerr.ErrStore, k, err)
		}
		b := rank(epoch, r)
		switch kind {
		case storage.StateBlob:
			if storage.IsManifest(blob) {
				refs, err := storage.ParseManifest(blob)
				if err != nil {
					return nil, fmt.Errorf("%w: %s: %w", cerr.ErrStore, k, err)
				}
				b.Chunked, b.Chunks = true, len(refs)
				for _, ref := range refs {
					b.StateBytes += ref.Len
				}
			} else {
				b.StateBytes = int64(len(blob))
			}
		case storage.LogBlob:
			b.LogBytes = int64(len(blob))
		case storage.MetaBlob:
			b.MetaBytes = int64(len(blob))
		}
	}
	epochs := make([]Epoch, 0, len(byEpoch))
	for e, ranks := range byEpoch {
		ep := Epoch{Epoch: e, Committed: hasCommit && e == committed}
		for _, b := range ranks {
			ep.Ranks = append(ep.Ranks, *b)
			ep.StateBytes += b.StateBytes
			ep.LogBytes += b.LogBytes
			ep.MetaBytes += b.MetaBytes
		}
		sort.Slice(ep.Ranks, func(i, j int) bool { return ep.Ranks[i].Rank < ep.Ranks[j].Rank })
		epochs = append(epochs, ep)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i].Epoch < epochs[j].Epoch })
	return epochs, nil
}

// ChunkRef names one chunk of a manifest, in inspection form.
type ChunkRef struct {
	// Hash is the chunk's hex SHA-256 — its content address.
	Hash  string
	Bytes int64
}

// Manifest describes one rank's state blob within an epoch.
type Manifest struct {
	// Key is the store key the blob lives under.
	Key string
	// Chunked is false for inline (non-manifest) state blobs, in which
	// case Refs is empty and LogicalBytes is the blob length.
	Chunked      bool
	LogicalBytes int64
	Refs         []ChunkRef
}

// Manifest loads the state-blob manifest for (epoch, rank). Inline blobs
// (written by the blocking checkpoint path) are reported with Chunked
// false rather than as an error.
func (st *Store) Manifest(epoch, rank int) (*Manifest, error) {
	if epoch < 0 || rank < 0 {
		return nil, fmt.Errorf("%w: manifest wants epoch >= 0 and rank >= 0, got (%d, %d)", cerr.ErrSpec, epoch, rank)
	}
	key := storage.StateKey(epoch, rank)
	blob, err := st.s.Get(key)
	if err != nil {
		return nil, fmt.Errorf("%w: read %s: %w", cerr.ErrStore, key, err)
	}
	m := &Manifest{Key: key}
	if !storage.IsManifest(blob) {
		m.LogicalBytes = int64(len(blob))
		return m, nil
	}
	refs, err := storage.ParseManifest(blob)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", cerr.ErrStore, key, err)
	}
	m.Chunked = true
	m.Refs = make([]ChunkRef, len(refs))
	for i, r := range refs {
		m.Refs[i] = ChunkRef{Hash: strings.TrimPrefix(r.Key(), "ckpt/chunks/"), Bytes: r.Len}
		m.LogicalBytes += r.Len
	}
	return m, nil
}

// Chunk is one content-hashed chunk in the shared dedup namespace.
type Chunk struct {
	Hash  string
	Bytes int64
	// Refs counts how many state manifests (across all epochs and ranks
	// present in the store) reference the chunk; 0 marks an orphan left
	// behind by a crash between flush and prune.
	Refs int
}

// Chunks lists every stored chunk with its reference count, sorted by
// descending Refs then hash, so the most-shared content leads.
func (st *Store) Chunks() ([]Chunk, error) {
	chunks, _, err := st.chunkTable()
	if err != nil {
		return nil, err
	}
	return chunks, nil
}

// Orphans lists chunks no manifest references. A small number is normal
// transiently (a crash between a flush and the following commit's sweep);
// they are reclaimed by the next prune.
func (st *Store) Orphans() ([]Chunk, error) {
	chunks, _, err := st.chunkTable()
	if err != nil {
		return nil, err
	}
	var orphans []Chunk
	for _, c := range chunks {
		if c.Refs == 0 {
			orphans = append(orphans, c)
		}
	}
	return orphans, nil
}

// chunkTable builds the refcount table: every chunk key on disk joined
// against every manifest's references. The second result is the total
// logical bytes referenced (the pre-dedup volume).
func (st *Store) chunkTable() ([]Chunk, int64, error) {
	keys, err := st.s.List("ckpt/")
	if err != nil {
		return nil, 0, fmt.Errorf("%w: list %s: %w", cerr.ErrStore, st.dir, err)
	}
	table := map[string]*Chunk{}
	for _, k := range keys {
		if h, ok := strings.CutPrefix(k, "ckpt/chunks/"); ok {
			blob, err := st.s.Get(k)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: read %s: %w", cerr.ErrStore, k, err)
			}
			table[h] = &Chunk{Hash: h, Bytes: int64(len(blob))}
		}
	}
	var logical int64
	for _, k := range keys {
		if _, _, kind, ok := storage.RankBlobOfKey(k); !ok || kind != storage.StateBlob {
			continue
		}
		blob, err := st.s.Get(k)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: read %s: %w", cerr.ErrStore, k, err)
		}
		if !storage.IsManifest(blob) {
			logical += int64(len(blob))
			continue
		}
		refs, err := storage.ParseManifest(blob)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %s: %w", cerr.ErrStore, k, err)
		}
		for _, r := range refs {
			logical += r.Len
			h := strings.TrimPrefix(r.Key(), "ckpt/chunks/")
			if c := table[h]; c != nil {
				c.Refs++
			} else {
				// Referenced but missing on disk: surface it in the table
				// with Bytes from the manifest so `c3admin chunks` makes
				// the corruption visible instead of hiding it.
				table[h] = &Chunk{Hash: h, Bytes: r.Len, Refs: 1}
			}
		}
	}
	chunks := make([]Chunk, 0, len(table))
	for _, c := range table {
		chunks = append(chunks, *c)
	}
	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].Refs != chunks[j].Refs {
			return chunks[i].Refs > chunks[j].Refs
		}
		return chunks[i].Hash < chunks[j].Hash
	})
	return chunks, logical, nil
}

// Summary is the store-wide health report c3admin prints by default.
type Summary struct {
	Dir            string
	CommittedEpoch int
	HasCommit      bool
	Epochs         int
	// LogicalBytes is the pre-dedup state volume (every manifest's
	// assembled size plus inline blobs); ChunkBytes the unique chunk
	// bytes actually stored. DedupRatio is the fraction of logical bytes
	// dedup avoided storing (0 when nothing is chunked).
	LogicalBytes int64
	ChunkBytes   int64
	DedupRatio   float64
	Chunks       int
	Orphans      int
	OrphanBytes  int64
}

// Summary computes the store-wide report.
func (st *Store) Summary() (*Summary, error) {
	s := &Summary{Dir: st.dir}
	var err error
	s.CommittedEpoch, s.HasCommit, err = st.Committed()
	if err != nil {
		return nil, err
	}
	epochs, err := st.Epochs()
	if err != nil {
		return nil, err
	}
	s.Epochs = len(epochs)
	chunks, logical, err := st.chunkTable()
	if err != nil {
		return nil, err
	}
	s.LogicalBytes = logical
	s.Chunks = len(chunks)
	for _, c := range chunks {
		s.ChunkBytes += c.Bytes
		if c.Refs == 0 {
			s.Orphans++
			s.OrphanBytes += c.Bytes
		}
	}
	if s.LogicalBytes > 0 && s.ChunkBytes > 0 {
		s.DedupRatio = 1 - float64(s.ChunkBytes)/float64(s.LogicalBytes)
		if s.DedupRatio < 0 {
			s.DedupRatio = 0
		}
	}
	return s, nil
}

// VerifyIssue is one integrity failure Verify found: a chunk whose bytes
// no longer hash to their content address, a chunk a manifest references
// that is missing from disk, or a manifest that does not parse.
type VerifyIssue struct {
	// Key is the state-blob key whose verification surfaced the issue.
	Key string
	// Chunk is the offending chunk's hex content address ("" for
	// manifest-level issues).
	Chunk string
	// Detail says what is wrong, human-readably.
	Detail string
}

func (i VerifyIssue) String() string {
	if i.Chunk == "" {
		return fmt.Sprintf("%s: %s", i.Key, i.Detail)
	}
	return fmt.Sprintf("%s: chunk %s: %s", i.Key, i.Chunk, i.Detail)
}

// VerifyReport is the result of a full-store integrity pass.
type VerifyReport struct {
	// Manifests counts chunked state blobs checked; InlineBlobs counts
	// inline state blobs (which carry no content hash to re-check and are
	// reported for visibility only).
	Manifests   int
	InlineBlobs int
	// ChunksHashed counts unique chunks re-hashed; BytesHashed their
	// volume. Chunks shared by many manifests are hashed once.
	ChunksHashed int
	BytesHashed  int64
	// Issues is empty when the store is intact.
	Issues []VerifyIssue
}

// Verify re-reads every state manifest in the store and re-hashes every
// chunk it references, confirming each chunk's bytes still match its
// content address and declared length. It is read-only and safe against a
// live job's store; a non-empty Issues means recovery from the affected
// epoch would fail or — worse — silently restore corrupt state.
func (st *Store) Verify() (*VerifyReport, error) {
	keys, err := st.s.List("ckpt/")
	if err != nil {
		return nil, fmt.Errorf("%w: list %s: %w", cerr.ErrStore, st.dir, err)
	}
	rep := &VerifyReport{}
	// verdicts caches per-chunk results so dedup-shared chunks are hashed
	// once; "" marks a chunk that verified clean.
	verdicts := map[string]string{}
	for _, k := range keys {
		if _, _, kind, ok := storage.RankBlobOfKey(k); !ok || kind != storage.StateBlob {
			continue
		}
		blob, err := st.s.Get(k)
		if err != nil {
			return nil, fmt.Errorf("%w: read %s: %w", cerr.ErrStore, k, err)
		}
		if !storage.IsManifest(blob) {
			rep.InlineBlobs++
			continue
		}
		refs, err := storage.ParseManifest(blob)
		if err != nil {
			rep.Issues = append(rep.Issues, VerifyIssue{Key: k, Detail: fmt.Sprintf("corrupt manifest: %v", err)})
			continue
		}
		rep.Manifests++
		for _, r := range refs {
			h := hex.EncodeToString(r.Sum[:])
			detail, seen := verdicts[h]
			if !seen {
				detail = st.verifyChunk(r, rep)
				verdicts[h] = detail
			}
			if detail != "" {
				rep.Issues = append(rep.Issues, VerifyIssue{Key: k, Chunk: h, Detail: detail})
			}
		}
	}
	return rep, nil
}

// verifyChunk re-hashes one chunk; the returned string is empty when it is
// intact and a human-readable defect otherwise.
func (st *Store) verifyChunk(r storage.ChunkRef, rep *VerifyReport) string {
	blob, err := st.s.Get(r.Key())
	if err != nil {
		return fmt.Sprintf("missing from store (%v)", err)
	}
	rep.ChunksHashed++
	rep.BytesHashed += int64(len(blob))
	if int64(len(blob)) != r.Len {
		return fmt.Sprintf("length %d, manifest says %d", len(blob), r.Len)
	}
	if sha256.Sum256(blob) != r.Sum {
		return "content does not hash to its address"
	}
	return ""
}

// PrunePlan is the dry-run result of a prune: exactly what Prune would
// delete, without deleting it.
type PrunePlan struct {
	// KeepEpoch is the newest epoch the plan preserves (everything older
	// is deleted, plus chunks only older epochs referenced).
	KeepEpoch int
	// Epochs lists the epoch numbers whose blobs the plan deletes.
	Epochs []int
	// Keys lists every store key the plan deletes, sorted.
	Keys []string
	// ReclaimBytes is the on-disk volume those keys hold.
	ReclaimBytes int64
}

// PrunePlan computes what pruning to keepEpoch would delete: the key list
// is storage's own (CheckpointStore.PruneKeys, which Prune executes), so
// the dry run cannot drift from the prune. keepEpoch < 0 selects the
// committed epoch — the invariant the running system itself maintains.
// Planning with no commit record and keepEpoch < 0 is an error rather
// than a plan that deletes everything.
func (st *Store) PrunePlan(keepEpoch int) (*PrunePlan, error) {
	if keepEpoch < 0 {
		committed, ok, err := st.Committed()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: prune: store has no commit record; pass an explicit keep epoch", cerr.ErrSpec)
		}
		keepEpoch = committed
	}
	keys, err := st.cs.PruneKeys(keepEpoch)
	if err != nil {
		return nil, fmt.Errorf("%w: prune plan %s: %w", cerr.ErrStore, st.dir, err)
	}
	plan := &PrunePlan{KeepEpoch: keepEpoch, Keys: keys}
	doomedEpochs := map[int]bool{}
	for _, k := range keys {
		if epoch, _, ok := storage.EpochOfKey(k); ok {
			doomedEpochs[epoch] = true
		}
		blob, err := st.s.Get(k)
		if err != nil {
			return nil, fmt.Errorf("%w: read %s: %w", cerr.ErrStore, k, err)
		}
		plan.ReclaimBytes += int64(len(blob))
	}
	for e := range doomedEpochs {
		plan.Epochs = append(plan.Epochs, e)
	}
	sort.Ints(plan.Epochs)
	sort.Strings(plan.Keys)
	return plan, nil
}

// Prune applies a prune to keepEpoch (< 0 selects the committed epoch,
// as in PrunePlan): epoch blobs older than keepEpoch are deleted and
// unreferenced chunks swept. Run it only when no job is writing the
// store — the running system prunes after every commit on its own, so
// manual pruning is for stores a job left behind.
func (st *Store) Prune(keepEpoch int) error {
	if keepEpoch < 0 {
		committed, ok, err := st.Committed()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%w: prune: store has no commit record; pass an explicit keep epoch", cerr.ErrSpec)
		}
		keepEpoch = committed
	}
	if err := st.cs.Prune(keepEpoch); err != nil {
		return fmt.Errorf("%w: prune %s: %w", cerr.ErrStore, st.dir, err)
	}
	return nil
}

// Job is one checkpoint store found under a root directory.
type Job struct {
	// Dir is the store directory (the one to pass to Open).
	Dir string
	// CommittedEpoch/HasCommit mirror Store.Committed; Epochs counts the
	// epochs with artifacts present.
	CommittedEpoch int
	HasCommit      bool
	Epochs         int
}

// Jobs scans root for checkpoint stores: root itself and any descendant
// directory holding a ckpt/ tree. Launchers typically give each job its
// own store directory under a shared root; Jobs is how an operator finds
// them all.
func Jobs(root string) ([]Job, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "ckpt" {
			dirs = append(dirs, filepath.Dir(path))
			return filepath.SkipDir // a store's ckpt tree holds no nested stores
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: scan %s: %w", cerr.ErrStore, root, err)
	}
	sort.Strings(dirs)
	jobs := make([]Job, 0, len(dirs))
	for _, dir := range dirs {
		st, err := Open(dir)
		if err != nil {
			return nil, err
		}
		j := Job{Dir: dir}
		j.CommittedEpoch, j.HasCommit, err = st.Committed()
		if err != nil {
			return nil, err
		}
		epochs, err := st.Epochs()
		if err != nil {
			return nil, err
		}
		j.Epochs = len(epochs)
		jobs = append(jobs, j)
	}
	return jobs, nil
}
