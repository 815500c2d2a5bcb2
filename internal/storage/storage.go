// Package storage provides the stable-storage abstraction used by the
// checkpointing protocol. The paper assumes each node can write local
// checkpoints to stable storage (local disk at roughly 40 MB/s on the CMI
// cluster); we provide an in-memory backend for tests, an on-disk backend,
// and a bandwidth-throttled wrapper that models the disk of the paper's
// evaluation platform.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNotFound is returned by Get when no blob exists under the given key.
var ErrNotFound = errors.New("storage: key not found")

// Stable is a minimal reliable blob store. Writes are atomic: a blob is
// either fully stored or absent. Implementations must be safe for
// concurrent use by multiple ranks.
type Stable interface {
	// Put durably stores data under key, replacing any previous blob.
	Put(key string, data []byte) error
	// Get returns the blob stored under key, or ErrNotFound.
	Get(key string) ([]byte, error)
	// Delete removes the blob under key. Deleting a missing key is not an
	// error.
	Delete(key string) error
	// List returns all keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// hasProber is the optional existence probe: implementations that can
// answer "is key present?" cheaper than a full Get (all in-tree stores)
// provide it; Has falls back to Get for external Stable implementations,
// which keeps the v1 ccift.Stable surface source-compatible.
type hasProber interface {
	Has(key string) (bool, error)
}

// Has reports whether a blob exists under key, via the store's fast probe
// when it has one and a Get otherwise. The chunked writer's dedup check
// goes through here.
func Has(s Stable, key string) (bool, error) {
	if h, ok := s.(hasProber); ok {
		return h.Has(key)
	}
	_, err := s.Get(key)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	return err == nil, err
}

// intoReader is the optional read-into-buffer path: a store that can place
// a blob in memory the caller already owns (Disk) spares the read side a
// slice and a copy per blob.
type intoReader interface {
	GetInto(key string, dst []byte) (int, error)
}

// GetInto reads the blob under key into dst, a buffer of the size the
// caller expects the blob to have, and returns the size the blob does have.
// dst holds the blob only when the two are equal: a caller that checks
// nothing else must check that, and a blob longer or shorter than expected
// is never cut or padded to fit. Stores without the fast path are read
// with Get and copied, to the same bytes. Assemble's chunk reads go through
// here.
func GetInto(s Stable, key string, dst []byte) (int, error) {
	if r, ok := s.(intoReader); ok {
		return r.GetInto(key, dst)
	}
	b, err := s.Get(key)
	if err != nil {
		return 0, err
	}
	copy(dst, b)
	return len(b), nil
}

// Memory is an in-memory Stable implementation for tests and benchmarks
// that want to exclude I/O cost.
type Memory struct {
	mu    sync.Mutex
	blobs map[string][]byte

	// BytesWritten counts the total payload bytes accepted by Put; it is
	// used by ablation benchmarks to compare checkpoint volumes.
	bytesWritten int64
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{blobs: make(map[string][]byte)}
}

// Put implements Stable.
func (m *Memory) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blobs[key] = cp
	m.bytesWritten += int64(len(data))
	return nil
}

// Get implements Stable.
func (m *Memory) Get(key string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, nil
}

// Has implements the optional fast existence probe.
func (m *Memory) Has(key string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.blobs[key]
	return ok, nil
}

// Delete implements Stable.
func (m *Memory) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.blobs, key)
	return nil
}

// List implements Stable.
func (m *Memory) List(prefix string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []string
	for k := range m.blobs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Disk stores blobs as files under a directory. Keys may contain '/'
// separators, which map to subdirectories. Writes go through a uniquely
// named temporary file, an fsync, a rename, and directory fsyncs up to the
// store root: atomic on POSIX even when several *processes* write the same
// key — the shared store's commit record is written by one rank's process
// while restarting processes poll it, and a fixed temp name would let one
// writer truncate the file another is about to rename, exposing a torn
// blob. No lock is needed: MkdirAll tolerates concurrent creation and each
// writer owns its temp file, so ranks checkpoint in parallel.
type Disk struct {
	root string
}

// tmpPrefix marks in-flight temp files; List hides them. The "*" in the
// CreateTemp pattern gives every writer (in any process) its own file.
const tmpPrefix = ".tmp-"

// NewDisk returns a disk-backed store rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create root: %w", err)
	}
	// Clean so syncToRoot's ancestor walk terminates exactly at the root.
	return &Disk{root: filepath.Clean(dir)}, nil
}

func (d *Disk) path(key string) string {
	return filepath.Join(d.root, filepath.FromSlash(key))
}

// Put implements Stable.
func (d *Disk) Put(key string, data []byte) error {
	p := d.path(key)
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tmpPrefix+filepath.Base(p)+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		// CreateTemp makes the file 0600; published blobs keep the store's
		// historical world-readable mode.
		werr = tmp.Chmod(0o644)
	}
	if werr == nil {
		werr = tmp.Sync() // the blob must be durable before the rename publishes it
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// The rename publishes the blob to other processes, but only directory
	// fsyncs make the new entries survive a machine crash — without them
	// the commit record (or a subdirectory MkdirAll just created) could
	// vanish on power loss.
	return d.syncToRoot(dir)
}

// syncToRoot fsyncs dir and every ancestor up to and including the store
// root, covering both a rename into dir and any directory entries MkdirAll
// created on the way down.
func (d *Disk) syncToRoot(dir string) error {
	for {
		if err := syncDir(dir); err != nil {
			return err
		}
		if dir == d.root {
			return nil
		}
		parent := filepath.Dir(dir)
		if parent == dir { // filesystem root: never sync outside the store
			return nil
		}
		dir = parent
	}
}

// syncDir fsyncs a directory, making entry changes within it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements Stable.
func (d *Disk) Get(key string) ([]byte, error) {
	b, err := os.ReadFile(d.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return b, err
}

// GetInto implements the optional read-into-buffer path: the file is read
// straight into dst when it is exactly len(dst) bytes long, and only
// measured when it is not.
func (d *Disk) GetInto(key string, dst []byte) (int, error) {
	f, err := os.Open(d.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() != int64(len(dst)) {
		return int(st.Size()), nil
	}
	return io.ReadFull(f, dst)
}

// Has implements the optional fast existence probe.
func (d *Disk) Has(key string) (bool, error) {
	_, err := os.Stat(d.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// Delete implements Stable.
func (d *Disk) Delete(key string) error {
	p := d.path(key)
	err := os.Remove(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if c := classify(key).Class; (c == RankBlob || c == EpochFile) && reclaimDir(dir) {
		dir = filepath.Dir(dir)
	}
	// Make the removal durable too: a cleared commit record that
	// resurrects after a crash would resume a foreign job's state.
	return syncDir(dir)
}

// reclaimDir removes an epoch directory that holds no published key any
// more, together with the temp files a writer killed mid-Put orphaned in it
// (List hides those, so no prune would ever name them), and reports whether
// it did. Only a prune deletes epoch keys, and only of epochs older than the
// committed one, which nothing writes into; ckpt/ and ckpt/chunks/ are never
// candidates — a rank may be creating a file in them right now.
func reclaimDir(dir string) bool {
	left, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, f := range left {
		if !strings.HasPrefix(f.Name(), tmpPrefix) {
			return false
		}
	}
	for _, f := range left {
		os.Remove(filepath.Join(dir, f.Name())) // a temp file that stays makes the Remove below fail
	}
	return os.Remove(dir) == nil
}

// List implements Stable.
func (d *Disk) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) && !strings.HasPrefix(filepath.Base(path), tmpPrefix) {
			keys = append(keys, key)
		}
		return nil
	})
	sort.Strings(keys)
	return keys, err
}

// Throttled wraps a Stable and limits Put throughput to a fixed bandwidth,
// modelling the 40 MB/s local-disk path of the paper's cluster. Each rank
// writes its own checkpoint, so the throttle is applied per call (the CMI
// nodes had independent local disks).
type Throttled struct {
	Inner Stable
	// BytesPerSecond is the simulated write bandwidth. Zero disables
	// throttling.
	BytesPerSecond float64
	// Sleep is the clock used for throttling; tests may replace it.
	Sleep func(time.Duration)
}

// NewThrottled wraps inner with a write-bandwidth limit.
func NewThrottled(inner Stable, bytesPerSecond float64) *Throttled {
	return &Throttled{Inner: inner, BytesPerSecond: bytesPerSecond, Sleep: time.Sleep}
}

// Put implements Stable, sleeping long enough that the effective write
// bandwidth matches BytesPerSecond.
func (t *Throttled) Put(key string, data []byte) error {
	start := time.Now()
	if err := t.Inner.Put(key, data); err != nil {
		return err
	}
	if t.BytesPerSecond > 0 {
		want := time.Duration(float64(len(data)) / t.BytesPerSecond * float64(time.Second))
		if elapsed := time.Since(start); elapsed < want {
			t.Sleep(want - elapsed)
		}
	}
	return nil
}

// Get implements Stable.
func (t *Throttled) Get(key string) ([]byte, error) { return t.Inner.Get(key) }

// Has probes the inner store; probing costs no bandwidth, so it is never
// throttled — which is exactly how chunk dedup saves wall-clock time on a
// slow disk.
func (t *Throttled) Has(key string) (bool, error) { return Has(t.Inner, key) }

// Delete implements Stable.
func (t *Throttled) Delete(key string) error { return t.Inner.Delete(key) }

// List implements Stable.
func (t *Throttled) List(prefix string) ([]string, error) { return t.Inner.List(prefix) }
