package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ccift/internal/cerr"
	"ccift/internal/storage"
)

// seedStore writes a two-epoch checkpoint tree the way the runtime does:
// chunked state per rank (epoch 1 re-uses epoch 0's chunks except one
// dirty chunk per rank), recovery sidecars, logs, a commit record for epoch
// 1, and one orphaned chunk. Returns the store dir.
func seedStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	disk, err := storage.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := storage.NewCheckpointStore(disk)
	const ranks, chunk = 2, 1 << 10
	for epoch := 0; epoch <= 1; epoch++ {
		for rank := 0; rank < ranks; rank++ {
			w := cs.StateWriter(context.Background(), epoch, rank, chunk)
			// Three chunks: a shared prefix identical across epochs and
			// ranks, a per-rank stable chunk, and a per-epoch dirty chunk.
			if _, err := w.Write(bytes.Repeat([]byte{0xAA}, chunk)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(bytes.Repeat([]byte{byte(rank)}, chunk)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(bytes.Repeat([]byte{0xF0 | byte(epoch)}, chunk)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := cs.PutMeta(epoch, rank, []byte("sidecar")); err != nil {
				t.Fatal(err)
			}
			if err := cs.PutLog(epoch, rank, []byte("log")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cs.Commit(1); err != nil {
		t.Fatal(err)
	}
	orphan := []byte("orphaned chunk content")
	sum := sha256.Sum256(orphan)
	if err := disk.Put(storage.ChunkRef{Sum: sum, Len: int64(len(orphan))}.Key(), orphan); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestOpenRejectsMissingDir(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "no-such-store"))
	if !errors.Is(err, cerr.ErrStore) {
		t.Fatalf("Open on a missing dir: err=%v, want ErrStore", err)
	}
	// Open must not have scaffolded the directory.
	if _, err2 := Open(filepath.Join(t.TempDir(), "no-such-store")); err2 == nil {
		t.Fatal("second Open succeeded: Open created the directory")
	}
}

func TestEpochsAndManifest(t *testing.T) {
	st, err := Open(seedStore(t))
	if err != nil {
		t.Fatal(err)
	}
	epochs, err := st.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 {
		t.Fatalf("epochs=%d, want 2", len(epochs))
	}
	for i, e := range epochs {
		if e.Epoch != i {
			t.Errorf("epochs[%d].Epoch=%d", i, e.Epoch)
		}
		if e.Committed != (i == 1) {
			t.Errorf("epoch %d committed=%v", e.Epoch, e.Committed)
		}
		if len(e.Ranks) != 2 {
			t.Fatalf("epoch %d ranks=%d, want 2", e.Epoch, len(e.Ranks))
		}
		if e.StateBytes != 2*3*1024 {
			t.Errorf("epoch %d StateBytes=%d, want %d", e.Epoch, e.StateBytes, 2*3*1024)
		}
		if want := int64(2 * len("sidecar")); e.MetaBytes != want {
			t.Errorf("epoch %d MetaBytes=%d, want %d", e.Epoch, e.MetaBytes, want)
		}
		for _, r := range e.Ranks {
			if r.Chunks != 3 || r.StateBytes != 3*1024 {
				t.Errorf("epoch %d rank %d: chunks=%d state=%d, want 3 chunks of 1 KiB", e.Epoch, r.Rank, r.Chunks, r.StateBytes)
			}
			if r.LogBytes != 3 {
				t.Errorf("epoch %d rank %d LogBytes=%d", e.Epoch, r.Rank, r.LogBytes)
			}
		}
	}

	m, err := st.Manifest(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Refs) != 3 || m.LogicalBytes != 3*1024 {
		t.Fatalf("manifest: refs=%d logical=%d", len(m.Refs), m.LogicalBytes)
	}
	if _, err := st.Manifest(7, 0); !errors.Is(err, cerr.ErrStore) {
		t.Errorf("missing manifest: err=%v, want ErrStore", err)
	}
	if _, err := st.Manifest(-1, 0); !errors.Is(err, cerr.ErrSpec) {
		t.Errorf("negative epoch: err=%v, want ErrSpec", err)
	}
}

func TestChunksOrphansSummary(t *testing.T) {
	st, err := Open(seedStore(t))
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := st.Chunks()
	if err != nil {
		t.Fatal(err)
	}
	// Unique chunks: shared 0xAA (4 refs), rank-0 and rank-1 stable (2
	// refs each), epoch-0 and epoch-1 dirty (2 refs each), plus the
	// seeded orphan.
	if len(chunks) != 6 {
		t.Fatalf("chunks=%d, want 6", len(chunks))
	}
	if chunks[0].Refs != 4 {
		t.Errorf("most-shared chunk refs=%d, want 4", chunks[0].Refs)
	}
	orphans, err := st.Orphans()
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 || orphans[0].Refs != 0 {
		t.Fatalf("orphans=%+v, want exactly the seeded one", orphans)
	}

	s, err := st.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasCommit || s.CommittedEpoch != 1 || s.Epochs != 2 {
		t.Fatalf("summary commit/epochs: %+v", s)
	}
	if s.LogicalBytes != 4*3*1024 {
		t.Errorf("LogicalBytes=%d, want %d", s.LogicalBytes, 4*3*1024)
	}
	// 12 logical chunks dedup to 5 stored (+ orphan bytes): ratio > 0.
	if s.DedupRatio <= 0 {
		t.Errorf("DedupRatio=%v, want > 0", s.DedupRatio)
	}
	if s.Orphans != 1 || s.OrphanBytes == 0 {
		t.Errorf("summary orphans: %+v", s)
	}
}

func TestPrunePlanAndPrune(t *testing.T) {
	dir := seedStore(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.PrunePlan(-1) // default: the committed epoch (1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.KeepEpoch != 1 {
		t.Fatalf("KeepEpoch=%d, want 1", plan.KeepEpoch)
	}
	if len(plan.Epochs) != 1 || plan.Epochs[0] != 0 {
		t.Fatalf("plan.Epochs=%v, want [0]", plan.Epochs)
	}
	// Epoch 0's 6 blobs (2 states + 2 sidecars + 2 logs), the
	// epoch-0-only dirty chunk, and the orphan.
	if len(plan.Keys) != 8 {
		t.Fatalf("plan.Keys=%v, want 8 keys", plan.Keys)
	}
	before := diskKeys(t, dir)
	var planned int64
	for _, k := range plan.Keys {
		planned += before[k]
	}
	if plan.ReclaimBytes != planned {
		t.Fatalf("ReclaimBytes=%d, the planned keys hold %d", plan.ReclaimBytes, planned)
	}

	// The dry run deleted nothing.
	if epochs, _ := st.Epochs(); len(epochs) != 2 {
		t.Fatalf("dry run mutated the store: %d epochs", len(epochs))
	}

	if err := st.Prune(-1); err != nil {
		t.Fatal(err)
	}
	// The dry run previews the prune exactly: the keys gone from the store
	// are the plan's keys, no more and no fewer.
	after := diskKeys(t, dir)
	var removed []string
	for k := range before {
		if _, kept := after[k]; !kept {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	if !reflect.DeepEqual(removed, plan.Keys) {
		t.Fatalf("prune removed\n  %v\nthe plan listed\n  %v", removed, plan.Keys)
	}
	epochs, err := st.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0].Epoch != 1 || !epochs[0].Committed {
		t.Fatalf("after prune: %+v", epochs)
	}
	if orphans, _ := st.Orphans(); len(orphans) != 0 {
		t.Fatalf("orphans survived prune: %+v", orphans)
	}
	// The committed epoch must still assemble byte-perfectly.
	disk, err := storage.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	state, err := storage.NewCheckpointStore(disk).GetState(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 3*1024 {
		t.Fatalf("recovered state is %d bytes, want %d", len(state), 3*1024)
	}
}

// diskKeys maps every key under ckpt/ in the store at dir to its size.
func diskKeys(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	disk, err := storage.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := disk.List("ckpt/")
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[string]int64, len(keys))
	for _, k := range keys {
		blob, err := disk.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		sizes[k] = int64(len(blob))
	}
	return sizes
}

func TestPruneWithoutCommitNeedsExplicitEpoch(t *testing.T) {
	dir := t.TempDir()
	disk, err := storage.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.NewCheckpointStore(disk).PutState(0, 0, []byte("state")); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PrunePlan(-1); !errors.Is(err, cerr.ErrSpec) {
		t.Errorf("PrunePlan(-1) with no commit: err=%v, want ErrSpec", err)
	}
	if err := st.Prune(-1); !errors.Is(err, cerr.ErrSpec) {
		t.Errorf("Prune(-1) with no commit: err=%v, want ErrSpec", err)
	}
}

func TestJobs(t *testing.T) {
	root := t.TempDir()
	// Two stores under the root, one of them nested deeper; a decoy dir
	// with no ckpt tree is skipped.
	for _, rel := range []string{"jobA", "deeper/jobB"} {
		dir := filepath.Join(root, rel)
		disk, err := storage.NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		cs := storage.NewCheckpointStore(disk)
		if err := cs.PutState(0, 0, []byte("s")); err != nil {
			t.Fatal(err)
		}
		if rel == "jobA" {
			if err := cs.Commit(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := storage.NewDisk(filepath.Join(root, "decoy")); err != nil {
		t.Fatal(err)
	}

	jobs, err := Jobs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs=%+v, want 2", jobs)
	}
	// Sorted by dir: deeper/jobB before jobA.
	if jobs[0].HasCommit || jobs[0].Epochs != 1 {
		t.Errorf("jobB: %+v", jobs[0])
	}
	if !jobs[1].HasCommit || jobs[1].CommittedEpoch != 0 || jobs[1].Epochs != 1 {
		t.Errorf("jobA: %+v", jobs[1])
	}
}

func TestVerifyIntactStore(t *testing.T) {
	st, err := Open(seedStore(t))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 0 {
		t.Fatalf("intact store reported issues: %v", rep.Issues)
	}
	// 4 manifests (2 epochs x 2 ranks); the 5 referenced unique chunks are
	// hashed once each despite 12 references (the orphan is unreferenced
	// and not hashed).
	if rep.Manifests != 4 {
		t.Fatalf("manifests=%d, want 4", rep.Manifests)
	}
	if rep.ChunksHashed != 5 || rep.BytesHashed != 5*1024 {
		t.Fatalf("hashed %d chunks / %d bytes, want 5 / %d", rep.ChunksHashed, rep.BytesHashed, 5*1024)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := seedStore(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Find the most-shared chunk (the 0xAA prefix, referenced by all four
	// manifests) and flip a byte in place, preserving the length.
	chunks, err := st.Chunks()
	if err != nil {
		t.Fatal(err)
	}
	shared := chunks[0]
	p := filepath.Join(dir, "ckpt", "chunks", shared.Hash)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0xFF
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	// Delete one single-referenced chunk outright.
	var missing Chunk
	for _, c := range chunks {
		if c.Refs == 2 {
			missing = c
			break
		}
	}
	if err := os.Remove(filepath.Join(dir, "ckpt", "chunks", missing.Hash)); err != nil {
		t.Fatal(err)
	}

	rep, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	// The flipped chunk is referenced by 4 manifests, the deleted one by
	// 2: six issues, each naming the manifest and the chunk.
	if len(rep.Issues) != 6 {
		t.Fatalf("issues=%d (%v), want 6", len(rep.Issues), rep.Issues)
	}
	var mismatches, gone int
	for _, i := range rep.Issues {
		switch i.Chunk {
		case shared.Hash:
			mismatches++
		case missing.Hash:
			gone++
		default:
			t.Errorf("unexpected issue %v", i)
		}
		if i.Key == "" || i.Detail == "" {
			t.Errorf("issue missing key or detail: %+v", i)
		}
	}
	if mismatches != 4 || gone != 2 {
		t.Fatalf("mismatches=%d gone=%d, want 4/2", mismatches, gone)
	}
	// The corrupt chunk was still hashed only once.
	if rep.ChunksHashed != 4 {
		t.Fatalf("hashed %d chunks, want 4 (5 referenced, 1 missing)", rep.ChunksHashed)
	}
}

// pruningStable is the store of a live job as an inspector meets it: the
// job's initiator commits and prunes right after the inspector's List, so
// the enumeration names keys that are gone by the time they are read.
type pruningStable struct {
	storage.Stable
	keep   int
	pruned bool
}

func (p *pruningStable) List(prefix string) ([]string, error) {
	keys, err := p.Stable.List(prefix)
	if err == nil && !p.pruned {
		p.pruned = true
		err = storage.NewCheckpointStore(p.Stable).Prune(p.keep)
	}
	return keys, err
}

// TestInspectionSurvivesAConcurrentPrune is the package doc's promise:
// every read-only view is safe against the store of a live job.
func TestInspectionSurvivesAConcurrentPrune(t *testing.T) {
	views := map[string]func(*Store) (epochs int, err error){
		"Epochs": func(st *Store) (int, error) {
			epochs, err := st.Epochs()
			return len(epochs), err
		},
		"Summary": func(st *Store) (int, error) {
			s, err := st.Summary()
			if err == nil && (s.Orphans != 0 || s.LogicalBytes != 2*3*1024) {
				err = fmt.Errorf("summary saw half a prune: %+v", s)
			}
			return 1, err
		},
		"Verify": func(st *Store) (int, error) {
			rep, err := st.Verify()
			if err == nil && (len(rep.Issues) != 0 || rep.Manifests != 2) {
				err = fmt.Errorf("verify of a store pruned under it: %+v", rep)
			}
			return 1, err
		},
	}
	for name, view := range views {
		t.Run(name, func(t *testing.T) {
			dir := seedStore(t)
			disk, err := storage.NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			live := &pruningStable{Stable: disk, keep: 1}
			st := &Store{dir: dir, cs: storage.NewCheckpointStore(live)}
			epochs, err := view(st)
			if err != nil {
				t.Fatalf("%s against a store pruned after its List: %v", name, err)
			}
			if !live.pruned || epochs != 1 {
				t.Fatalf("%s: pruned=%v, %d epochs; want the one epoch the prune kept", name, live.pruned, epochs)
			}
		})
	}
}

// TestCorruptStores: each way a state object can be wrong is one Issue of a
// Verify that still finishes, and an ErrStore naming the key from the views
// that need the manifest.
func TestCorruptStores(t *testing.T) {
	key := storage.StateKey(1, 0)
	firstRef := func(t *testing.T, disk *storage.Disk) storage.ChunkRef {
		refs, ok, err := storage.NewCheckpointStore(disk).Refs(key)
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		return refs[0]
	}
	rewrite := func(f func([]byte) []byte) func(*testing.T, *storage.Disk, string) {
		return func(t *testing.T, disk *storage.Disk, k string) {
			blob, err := disk.Get(k)
			if err == nil {
				err = disk.Put(k, f(blob))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, tc := range map[string]struct {
		damage   func(t *testing.T, disk *storage.Disk, chunkKey string)
		manifest bool // the defect is in the state object itself, not in a chunk
	}{
		"not a manifest": {manifest: true, damage: func(t *testing.T, disk *storage.Disk, _ string) {
			rewrite(func([]byte) []byte { return []byte("raw state bytes") })(t, disk, key)
		}},
		"truncated manifest": {manifest: true, damage: func(t *testing.T, disk *storage.Disk, _ string) {
			rewrite(func(b []byte) []byte { return b[:len(b)-5] })(t, disk, key)
		}},
		"missing chunk": {damage: func(t *testing.T, disk *storage.Disk, chunkKey string) {
			if err := disk.Delete(chunkKey); err != nil {
				t.Fatal(err)
			}
		}},
		"wrong length":  {damage: rewrite(func(b []byte) []byte { return b[:len(b)-1] })},
		"wrong content": {damage: rewrite(func(b []byte) []byte { b[7] ^= 1; return b })},
	} {
		t.Run(name, func(t *testing.T) {
			// One epoch, one rank, one chunk: every defect is exactly one Issue.
			dir := t.TempDir()
			disk, err := storage.NewDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			cs := storage.NewCheckpointStore(disk)
			if err := cs.PutState(1, 0, bytes.Repeat([]byte("x"), 4<<10)); err != nil {
				t.Fatal(err)
			}
			ref := firstRef(t, disk)
			tc.damage(t, disk, ref.Key())

			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := st.Verify()
			if err != nil {
				t.Fatalf("Verify did not finish: %v", err)
			}
			if len(rep.Issues) != 1 || rep.Issues[0].Key != key || rep.Issues[0].Detail == "" {
				t.Fatalf("issues %v, want one on %s", rep.Issues, key)
			}
			if got := rep.Issues[0].Chunk; tc.manifest != (got == "") || (!tc.manifest && got != ref.Hex()) {
				t.Fatalf("issue names chunk %q (manifest-level defect: %v, chunk %s)", got, tc.manifest, ref.Hex())
			}
			_, eerr := st.Epochs()
			_, merr := st.Manifest(1, 0)
			_, serr := st.Summary()
			for view, err := range map[string]error{"Epochs": eerr, "Manifest": merr, "Summary": serr} {
				if tc.manifest && (!errors.Is(err, cerr.ErrStore) || !strings.Contains(err.Error(), key)) {
					t.Errorf("%s over a state key that holds no manifest: %v; want ErrStore naming %s", view, err, key)
				}
				if !tc.manifest && err != nil {
					t.Errorf("%s reads no chunk, yet: %v", view, err)
				}
			}
		})
	}
}
