// Package store is the read-mostly inspection API over on-disk ccift
// checkpoint stores — the directories a distributed Launch (or an
// in-process run with ccift.NewDiskStore) checkpoints into. It answers
// the operational questions a checkpoint directory raises: which epoch is
// committed, what does each epoch hold per rank, how well is chunk-level
// dedup working, which content-hashed chunks are orphaned, and what would
// a prune delete. cmd/c3admin is a thin CLI over this package.
//
// The package is a view. The layout — key names, the manifest format, the
// chunk check — belongs to the checkpoint store the runtime itself writes
// through (internal/storage); every function here projects one enumeration
// of it and reads each blob it needs once.
//
// Everything except Prune is read-only and safe to run against the store
// of a live job: a key the job prunes between the enumeration and its read
// is skipped, as if the enumeration had run a moment later. Prune, which
// applies a PrunePlan, must only run when no job is writing the store.
//
// Errors returned by this package wrap ccift.ErrStore (and
// ccift.ErrSpec for invalid arguments), so callers dispatch with
// errors.Is exactly as they do on Launch errors.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"ccift/internal/cerr"
	"ccift/internal/storage"
)

// Store is an opened checkpoint directory.
type Store struct {
	dir string
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
	return &Store{dir: dir, cs: storage.NewCheckpointStore(d)}, nil
}

// Dir returns the directory the store was opened on.
func (st *Store) Dir() string { return st.dir }

// bad puts a storage error in the ErrStore category, naming the directory
// and, when the error is about one, the key.
func (st *Store) bad(err error, key ...string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %s: %w", cerr.ErrStore, filepath.Join(append([]string{st.dir}, key...)...), err)
}

// Committed returns the epoch named by the store's commit record — the
// checkpoint a recovering job would restore. ok is false when no global
// checkpoint has ever been committed.
func (st *Store) Committed() (epoch int, ok bool, err error) {
	epoch, ok, err = st.cs.Committed()
	return epoch, ok, st.bad(err)
}

// RankBlob summarizes one rank's artifacts within an epoch.
type RankBlob struct {
	Rank int
	// StateBytes is the logical (assembled) size of the rank's state blob —
	// its application state; Chunks the number of chunks its manifest
	// references; LogBytes the size of its message/non-determinism log;
	// MetaBytes the size of its protocol record (epoch, early-message IDs,
	// request records and persistent-object calls), which the recovery
	// gather reads. A rank of a NoAppState run has no state blob.
	StateBytes int64
	Chunks     int
	LogBytes   int64
	MetaBytes  int64
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
	committed, hasCommit, err := st.Committed()
	if err != nil {
		return nil, err
	}
	entries, err := st.cs.Walk()
	if err != nil {
		return nil, st.bad(err)
	}
	var epochs []Epoch // the walk is in key order: an epoch's keys are adjacent, older epochs first
	for _, e := range entries {
		if e.Class != storage.RankBlob {
			continue
		}
		var size int64
		var chunks int
		var ok bool
		if e.Kind == storage.StateBlob {
			var refs []storage.ChunkRef
			refs, ok, err = st.cs.Refs(e.Key)
			size, chunks = logicalBytes(refs), len(refs)
		} else {
			var blob []byte
			blob, ok, err = st.cs.Read(e.Key)
			size = int64(len(blob))
		}
		if err != nil {
			return nil, st.bad(err, e.Key)
		}
		if !ok {
			continue
		}
		if n := len(epochs); n == 0 || epochs[n-1].Epoch != e.Epoch {
			epochs = append(epochs, Epoch{Epoch: e.Epoch, Committed: hasCommit && e.Epoch == committed})
		}
		ep := &epochs[len(epochs)-1]
		i := sort.Search(len(ep.Ranks), func(i int) bool { return ep.Ranks[i].Rank >= e.Rank })
		if i == len(ep.Ranks) || ep.Ranks[i].Rank != e.Rank {
			ep.Ranks = slices.Insert(ep.Ranks, i, RankBlob{Rank: e.Rank})
		}
		switch b := &ep.Ranks[i]; e.Kind {
		case storage.StateBlob:
			b.StateBytes, b.Chunks = size, chunks
			ep.StateBytes += size
		case storage.LogBlob:
			b.LogBytes = size
			ep.LogBytes += size
		case storage.MetaBlob:
			b.MetaBytes = size
			ep.MetaBytes += size
		}
	}
	return epochs, nil
}

func logicalBytes(refs []storage.ChunkRef) (n int64) {
	for _, r := range refs {
		n += r.Len
	}
	return n
}

// countEpochs counts the epochs with rank blobs in a walk; it reads nothing.
func countEpochs(entries []storage.Entry) int {
	seen := map[int]bool{}
	for _, e := range entries {
		if e.Class == storage.RankBlob {
			seen[e.Epoch] = true
		}
	}
	return len(seen)
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
	Key          string
	LogicalBytes int64
	Refs         []ChunkRef
}

// Manifest loads the state-blob manifest for (epoch, rank).
func (st *Store) Manifest(epoch, rank int) (*Manifest, error) {
	if epoch < 0 || rank < 0 {
		return nil, fmt.Errorf("%w: manifest wants epoch >= 0 and rank >= 0, got (%d, %d)", cerr.ErrSpec, epoch, rank)
	}
	key := storage.StateKey(epoch, rank)
	refs, ok, err := st.cs.Refs(key)
	if err == nil && !ok {
		err = storage.ErrNotFound
	}
	if err != nil {
		return nil, st.bad(err, key)
	}
	m := &Manifest{Key: key, LogicalBytes: logicalBytes(refs), Refs: make([]ChunkRef, len(refs))}
	for i, r := range refs {
		m.Refs[i] = ChunkRef{Hash: r.Hex(), Bytes: r.Len}
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
	chunks, _, err := st.scan()
	return chunks, err
}

// Orphans lists chunks no manifest references. A small number is normal
// transiently (a crash between a flush and the following commit's sweep);
// they are reclaimed by the next prune.
func (st *Store) Orphans() ([]Chunk, error) {
	chunks, err := st.Chunks()
	for i, c := range chunks {
		if c.Refs == 0 { // sorted by descending Refs: the orphans are the tail
			return chunks[i:], err
		}
	}
	return nil, err
}

// Summary is the store-wide health report c3admin prints by default.
type Summary struct {
	Dir            string
	CommittedEpoch int
	HasCommit      bool
	Epochs         int
	// LogicalBytes is the pre-dedup state volume (every manifest's
	// assembled size); ChunkBytes the unique chunk bytes actually stored.
	// DedupRatio is the fraction of logical bytes dedup avoided storing.
	LogicalBytes int64
	ChunkBytes   int64
	DedupRatio   float64
	Chunks       int
	Orphans      int
	OrphanBytes  int64
}

// Summary computes the store-wide report.
func (st *Store) Summary() (*Summary, error) {
	_, s, err := st.scan()
	return s, err
}

// scan walks the store once and joins every chunk key against every
// manifest's references: the refcount table, sorted as Chunks promises,
// and the Summary that totals it. A referenced chunk's size is the one its
// manifest records, so only an orphan — a chunk no manifest names — is
// read.
func (st *Store) scan() ([]Chunk, *Summary, error) {
	s := &Summary{Dir: st.dir}
	var err error
	if s.CommittedEpoch, s.HasCommit, err = st.Committed(); err != nil {
		return nil, nil, err
	}
	entries, err := st.cs.Walk()
	if err != nil {
		return nil, nil, st.bad(err)
	}
	s.Epochs = countEpochs(entries)
	table := map[string]*Chunk{}
	for _, e := range entries {
		if e.Kind != storage.StateBlob {
			continue
		}
		refs, _, err := st.cs.Refs(e.Key)
		if err != nil {
			return nil, nil, st.bad(err, e.Key)
		}
		s.LogicalBytes += logicalBytes(refs)
		for _, r := range refs {
			// A chunk referenced but missing on disk stays in the table
			// with the manifest's length, so `c3admin chunks` makes the
			// corruption visible instead of hiding it.
			c := table[r.Hex()]
			if c == nil {
				c = &Chunk{Hash: r.Hex(), Bytes: r.Len}
				table[c.Hash] = c
			}
			c.Refs++
		}
	}
	for _, e := range entries {
		if e.Class != storage.Chunk || table[e.Name] != nil {
			continue
		}
		blob, ok, err := st.cs.Read(e.Key)
		if err != nil {
			return nil, nil, st.bad(err, e.Key)
		}
		if ok {
			table[e.Name] = &Chunk{Hash: e.Name, Bytes: int64(len(blob))}
		}
	}
	chunks := make([]Chunk, 0, len(table))
	for _, c := range table {
		chunks = append(chunks, *c)
		s.ChunkBytes += c.Bytes
		if c.Refs == 0 {
			s.Orphans++
			s.OrphanBytes += c.Bytes
		}
	}
	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].Refs != chunks[j].Refs {
			return chunks[i].Refs > chunks[j].Refs
		}
		return chunks[i].Hash < chunks[j].Hash
	})
	if s.Chunks = len(chunks); s.LogicalBytes > 0 && s.ChunkBytes > 0 {
		s.DedupRatio = 1 - float64(s.ChunkBytes)/float64(s.LogicalBytes)
		if s.DedupRatio < 0 {
			s.DedupRatio = 0
		}
	}
	return chunks, s, nil
}

// VerifyIssue is one integrity failure Verify found: a state key that does
// not hold a well-formed manifest, a chunk a manifest references that is
// missing from disk, or a chunk whose bytes no longer have the length or
// the hash its manifest records.
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
	// Manifests counts the state manifests checked.
	Manifests int
	// ChunksHashed counts unique chunks re-hashed; BytesHashed their
	// volume. Chunks shared by many manifests are hashed once.
	ChunksHashed int
	BytesHashed  int64
	// Issues is empty when the store is intact.
	Issues []VerifyIssue
}

// Verify re-reads every state manifest in the store and puts every chunk
// it references through the check recovery itself applies: the bytes must
// have the declared length and hash to their content address. It is
// read-only and safe against a live job's store; a non-empty Issues means
// recovery from the affected epoch would fail or — worse — silently
// restore corrupt state.
func (st *Store) Verify() (*VerifyReport, error) {
	entries, err := st.cs.Walk()
	if err != nil {
		return nil, st.bad(err)
	}
	rep := &VerifyReport{}
	// verdicts caches per-chunk results so dedup-shared chunks are hashed
	// once; "" marks a chunk that verified clean.
	verdicts := map[string]string{}
	for _, e := range entries {
		if e.Kind != storage.StateBlob {
			continue
		}
		refs, ok, err := st.cs.Refs(e.Key)
		if err != nil { // unreadable, or read and not a manifest: reported, and the pass goes on
			rep.Issues = append(rep.Issues, VerifyIssue{Key: e.Key, Detail: err.Error()})
		}
		if !ok {
			continue
		}
		rep.Manifests++
		for _, r := range refs {
			h := r.Hex()
			detail, seen := verdicts[h]
			if !seen {
				if blob, ok, err := st.cs.Read(r.Key()); err != nil {
					detail = err.Error()
				} else if !ok {
					detail = "missing from store"
				} else {
					rep.ChunksHashed++
					rep.BytesHashed += int64(len(blob))
					detail = r.Defect(blob)
				}
				verdicts[h] = detail
			}
			if detail != "" {
				rep.Issues = append(rep.Issues, VerifyIssue{Key: e.Key, Chunk: h, Detail: detail})
			}
		}
	}
	return rep, nil
}

// PrunePlan is the dry-run result of a prune: exactly what Prune deletes
// when it applies the plan.
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
	// doomed are Keys in the order Prune deletes them.
	doomed []storage.Entry
}

// PrunePlan computes what pruning to keepEpoch would delete: the key list
// is storage's own (CheckpointStore.PruneKeys), and Prune deletes exactly
// the keys of the plan, so the dry run cannot drift from the prune. keepEpoch < 0 selects the
// committed epoch — the invariant the running system itself maintains.
// Planning with no commit record and keepEpoch < 0 is an error rather
// than a plan that deletes everything.
func (st *Store) PrunePlan(keepEpoch int) (*PrunePlan, error) {
	if keepEpoch < 0 {
		committed, ok, err := st.Committed()
		if err == nil && !ok {
			err = fmt.Errorf("%w: prune: store has no commit record; pass an explicit keep epoch", cerr.ErrSpec)
		}
		if err != nil {
			return nil, err
		}
		keepEpoch = committed
	}
	doomed, err := st.cs.PruneKeys(keepEpoch)
	if err != nil {
		return nil, st.bad(err)
	}
	plan := &PrunePlan{KeepEpoch: keepEpoch}
	for _, e := range doomed {
		blob, ok, err := st.cs.Read(e.Key)
		if err != nil {
			return nil, st.bad(err, e.Key)
		}
		if !ok {
			continue
		}
		if e.Class != storage.Chunk && !slices.Contains(plan.Epochs, e.Epoch) {
			plan.Epochs = append(plan.Epochs, e.Epoch)
		}
		plan.Keys = append(plan.Keys, e.Key)
		plan.doomed = append(plan.doomed, e)
		plan.ReclaimBytes += int64(len(blob))
	}
	sort.Ints(plan.Epochs)
	sort.Strings(plan.Keys)
	return plan, nil
}

// Prune applies a plan: it deletes the plan's keys — epoch blobs older
// than its KeepEpoch, then the chunks only they referenced — and nothing
// else, without enumerating the store again. Run it only when no job is
// writing the store — the running system prunes after every commit on its
// own, so manual pruning is for stores a job left behind.
func (st *Store) Prune(plan *PrunePlan) error {
	return st.bad(st.cs.Delete(plan.doomed))
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
// directory holding a checkpoint tree. Launchers typically give each job
// its own store directory under a shared root; Jobs is how an operator
// finds them all.
func Jobs(root string) ([]Job, error) {
	var jobs []Job
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || d.Name() != storage.LayoutDir {
			return err
		}
		st, err := Open(filepath.Dir(path))
		if err != nil {
			return err
		}
		j := Job{Dir: st.dir}
		if j.CommittedEpoch, j.HasCommit, err = st.Committed(); err != nil {
			return err
		}
		entries, err := st.cs.Walk()
		if err != nil {
			return st.bad(err)
		}
		j.Epochs = countEpochs(entries)
		jobs = append(jobs, j)
		return filepath.SkipDir // a store's tree holds no nested stores
	})
	if err != nil {
		if !errors.Is(err, cerr.ErrStore) {
			err = fmt.Errorf("%w: scan %s: %w", cerr.ErrStore, root, err)
		}
		return nil, err
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Dir < jobs[j].Dir })
	return jobs, nil
}
