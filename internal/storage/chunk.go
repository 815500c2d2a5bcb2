package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ccift/internal/cerr"
	"ccift/internal/wire"
)

// Chunked streaming storage: a large blob is stored as content-hashed
// chunks plus a small manifest of chunk references under the blob's own
// key. Chunks are addressed by their SHA-256, so a chunk whose content is
// unchanged between two epochs (or identical across ranks) is stored once
// and re-referenced — repeat checkpoints of mostly-unchanged state write
// only the dirty chunks. Orphaned chunks are swept by the checkpoint
// store's pruning pass after a commit.

// DefaultChunkSize is the chunk granularity when the caller does not
// choose one: large enough that manifest overhead is negligible, small
// enough that a few dirty pages do not force a whole-state rewrite.
const DefaultChunkSize = 256 << 10

// defaultPipelineDepth bounds the chunks Assemble has read and its
// verifiers have not yet taken up: deep enough to keep every verifier busy
// while a Get is out, shallow enough that a chunk is hashed while it is
// still in cache.
const defaultPipelineDepth = 4

// chunkPrefix is the shared content-addressed chunk namespace.
const chunkPrefix = layoutRoot + "chunks/"

// manifestMagic opens every chunk manifest, the one format a state key holds.
var manifestMagic = []byte("C3CM0001")

// ChunkRef names one chunk of a manifest.
type ChunkRef struct {
	Sum [sha256.Size]byte
	Len int64
}

// Hex returns the chunk's content address as it appears in its key.
func (r ChunkRef) Hex() string { return hex.EncodeToString(r.Sum[:]) }

// Key returns the store key the referenced chunk lives under.
func (r ChunkRef) Key() string { return chunkPrefix + r.Hex() }

// Defect is the one chunk verifier, behind Assemble and the admin verify
// pass alike: it says what is wrong with chunk, as the store returned it,
// as the chunk r names — "" when it has r's length and hashes to r's address.
func (r ChunkRef) Defect(chunk []byte) string {
	return r.defectAt(len(chunk), chunk)
}

// defectAt is Defect for a chunk read into its slot (GetInto): size is the
// length the store holds, and chunk holds the bytes only when that is r.Len.
func (r ChunkRef) defectAt(size int, chunk []byte) string {
	if int64(size) != r.Len {
		return fmt.Sprintf("is %d bytes, manifest says %d", size, r.Len)
	}
	if sha256.Sum256(chunk) != r.Sum {
		return "does not hash to its content address"
	}
	return ""
}

// ChunkedWriter streams a blob into content-hashed chunks. It implements
// io.Writer plus Cut, the dedup boundary hook: Cut closes the current
// chunk early so that content after the boundary hashes independently of
// content before it — serializers call it between sections and around
// large values. Commit writes the manifest under the writer's key.
//
// Like Assemble on the read side, the writer has one path. Every store call
// of a stream — the dedup probe and the Put of each chunk, then the
// manifest — is issued by the goroutine that calls Write/Cut/Commit, in
// stream order, so a store on virtual time (internal/sim's SlowStore: a
// sleep and a PRNG draw per call) sees exactly what a serial writer would
// show it, and there is no serial writer to select. What overlaps is the
// SHA-256: from a stream's second full chunk on, a full chunk is handed to
// one lazily spawned worker and stored one flush later, so chunk N is
// hashed while chunk N+1 fills and chunk N-1 is Put. A blob that never
// fills a second chunk spawns nothing.
//
// The writer is single-use and not safe for concurrent use. Its chunk
// buffers come from a free list shared by every writer and go back to it
// when the writer is finished — Commit has returned, or the owner called
// Abort — so a steady-state flush fills the buffers the previous one gave
// back instead of allocating two chunks' worth.
type ChunkedWriter struct {
	s         Stable
	ctx       context.Context
	key       string
	chunkSize int
	buf       []byte // the chunk being filled
	refs      []ChunkRef
	total     int64 // logical blob bytes
	written   int64 // bytes actually Put (manifest + dedup-missed chunks)
	committed bool
	err       error // the first failed store call (the stream has a hole, nothing more is stored), or errFinished

	// The hash worker (nil until a second full chunk) and the two buffers
	// that rotate around it: ahead is the chunk the worker holds, flushed
	// but not yet stored; spare is free. Exactly one of them is set once
	// the worker runs.
	sawFull      bool
	hashIn       chan []byte
	hashOut      chan [sha256.Size]byte
	ahead, spare []byte

	// held are the free-list entries behind buf, ahead and spare: however
	// those three rotate, they are views of these two buffers, which go back
	// to the free list as they are when the writer finishes.
	held [2]*[]byte
}

// chunkFree is the free list of chunk buffers. A sync.Pool drops what it
// holds across two collections, so an idle process keeps no chunk buffer.
var chunkFree sync.Pool

// poisonFreed is the PoisonReleasedChunks seam.
var poisonFreed atomic.Bool

// PoisonReleasedChunks is a test seam, not an option: from here on, for the
// life of the process, every chunk buffer a finished writer hands back is
// overwritten before it goes on the free list. A Stable that kept a view of
// a buffer it was given in Put, instead of a copy, then holds poison where
// the chunk's bytes were, and the next read that verifies the chunk fails.
func PoisonReleasedChunks() { poisonFreed.Store(true) }

// errFinished is what a finished writer answers every later call with.
var errFinished = errors.New("storage: chunked writer already finished")

// chunkBuffer takes a buffer of at least n bytes' capacity off the free
// list, or makes one.
func chunkBuffer(n int) *[]byte {
	if p, _ := chunkFree.Get().(*[]byte); p != nil && cap(*p) >= n {
		return p
	}
	b := make([]byte, 0, n)
	return &b
}

// NewChunkedWriter returns a writer that stores chunks in s and, on
// Commit, a manifest under key. chunkSize <= 0 selects DefaultChunkSize.
// ctx, when non-nil, aborts the stream between chunk writes — a canceled
// flush returns ctx.Err() instead of finishing a write nobody will commit.
func NewChunkedWriter(ctx context.Context, s Stable, key string, chunkSize int) *ChunkedWriter {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	w := &ChunkedWriter{s: s, ctx: ctx, key: key, chunkSize: chunkSize}
	w.held[0] = chunkBuffer(chunkSize)
	w.buf = (*w.held[0])[:0]
	return w
}

// Pipeline selects nothing: the writer overlaps hashing on its own once a
// stream is long enough (see the type comment). The method remains for
// callers written against a writer that took a pipeline depth here.
func (w *ChunkedWriter) Pipeline(int) *ChunkedWriter { return w }

// Abort finishes a writer that will not be committed: it joins the hash
// worker and hands the chunk buffers back, after which every call fails.
// Safe to call in any state, including after Commit (which finishes the
// writer itself) and more than once, so callers can simply defer it.
func (w *ChunkedWriter) Abort() {
	if w.hashIn != nil {
		close(w.hashIn)
		for range w.hashOut { // a sum nobody stored; the worker closes hashOut as it exits
		}
		w.hashIn = nil
	}
	if w.err == nil {
		w.err = errFinished
	}
	// The worker is joined and every Put has returned — and a store copies
	// on Put — so nothing reads the buffers any more.
	w.buf, w.ahead, w.spare = nil, nil, nil
	for i, p := range w.held {
		if p == nil {
			continue
		}
		if poisonFreed.Load() {
			b := (*p)[:cap(*p)]
			for j := range b {
				b[j] = 0xDB
			}
		}
		chunkFree.Put(p)
		w.held[i] = nil
	}
}

// Write implements io.Writer, spilling every full chunk to the store.
func (w *ChunkedWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		room := w.chunkSize - len(w.buf)
		if room > len(p) {
			room = len(p)
		}
		w.buf = append(w.buf, p[:room]...)
		p = p[room:]
		if len(w.buf) == w.chunkSize {
			if err := w.flush(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// Cut closes the current chunk (if any) at the present offset. Serializers
// call it at section boundaries so unchanged sections re-chunk identically
// across epochs regardless of earlier length changes.
func (w *ChunkedWriter) Cut() error {
	if len(w.buf) == 0 {
		return w.err
	}
	return w.flush()
}

// flush closes the chunk in w.buf.
func (w *ChunkedWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	full := len(w.buf) == w.chunkSize
	if !full || !w.sawFull {
		// A stream's first full chunk, and every short chunk a Cut closes,
		// is hashed here and stored at once, behind the chunk the worker
		// may still hold.
		w.sawFull = w.sawFull || full
		if err := w.storeAhead(); err != nil {
			return err
		}
		err := w.store(sha256.Sum256(w.buf), w.buf)
		w.buf = w.buf[:0]
		return err
	}
	if w.hashIn == nil {
		w.hashIn, w.hashOut = make(chan []byte), make(chan [sha256.Size]byte, 1)
		w.held[1] = chunkBuffer(w.chunkSize)
		w.spare = (*w.held[1])[:0]
		go func(in <-chan []byte, out chan<- [sha256.Size]byte) {
			defer close(out)
			for b := range in {
				out <- sha256.Sum256(b)
			}
		}(w.hashIn, w.hashOut)
	}
	// Hand this chunk to the worker, then store the one it has finished:
	// that Put runs while this chunk is hashed.
	prev := w.ahead
	var sum [sha256.Size]byte
	if prev != nil {
		sum = <-w.hashOut
	}
	w.hashIn <- w.buf
	w.ahead = w.buf
	if prev == nil {
		w.buf, w.spare = w.spare, nil
		return nil
	}
	err := w.store(sum, prev)
	w.buf = prev[:0]
	return err
}

// storeAhead stores the chunk the hash worker holds, if any.
func (w *ChunkedWriter) storeAhead() error {
	if w.ahead == nil {
		return nil
	}
	err := w.store(<-w.hashOut, w.ahead)
	w.ahead, w.spare = nil, w.ahead[:0]
	return err
}

// store probes for one hashed chunk, Puts it if the store lacks it, and
// appends its manifest ref. The stores copy on Put, so chunk's buffer is
// reusable the moment this returns.
func (w *ChunkedWriter) store(sum [sha256.Size]byte, chunk []byte) error {
	ref := ChunkRef{Sum: sum, Len: int64(len(chunk))}
	ok, err := Has(w.s, ref.Key())
	if err != nil {
		w.err = fmt.Errorf("storage: probe chunk: %w", err)
		return w.err
	}
	if !ok {
		if err := w.s.Put(ref.Key(), chunk); err != nil {
			w.err = fmt.Errorf("storage: put chunk: %w", err)
			return w.err
		}
		w.written += ref.Len
	}
	w.total += ref.Len
	w.refs = append(w.refs, ref)
	return nil
}

// Commit flushes the final partial chunk and durably stores the manifest
// under the writer's key. It reports the logical blob size and the bytes
// actually written to the store (chunks that deduplicated against existing
// content cost nothing).
func (w *ChunkedWriter) Commit() (total, written int64, err error) {
	if w.committed {
		return 0, 0, fmt.Errorf("%w: storage: ChunkedWriter for %s committed twice", cerr.ErrStore, w.key)
	}
	// However this ends the worker is joined: nothing outlives the writer.
	defer w.Abort()
	if err := w.Cut(); err != nil {
		return 0, 0, err
	}
	// A stream that ended on a chunk boundary left its last chunk ahead.
	if err := w.storeAhead(); err != nil {
		return 0, 0, err
	}
	if w.total > maxBlobBytes {
		return 0, 0, fmt.Errorf("%w: blob %s is %d bytes; no reader accepts more than %d", cerr.ErrStore, w.key, w.total, maxBlobBytes)
	}
	man := marshalManifest(w.refs)
	if err := w.s.Put(w.key, man); err != nil {
		return 0, 0, fmt.Errorf("storage: put manifest: %w", err)
	}
	w.committed = true
	w.written += int64(len(man))
	return w.total, w.written, nil
}

// manifest is a blob's chunk references, in blob order.
type manifest []ChunkRef

// code is the manifest's one layout: the ref count, then per ref its
// length (a uvarint) and its sum. Decoded, every length is in
// (0, maxBlobBytes] and the lengths sum to at most maxBlobBytes.
func (m *manifest) code(c *wire.Codec) {
	var total int64
	wire.Seq(c, "ref", (*[]ChunkRef)(m), 1+sha256.Size, func(r *ChunkRef) {
		wire.Uint(c, &r.Len)
		total += r.Len
		c.Require(r.Len > 0 && r.Len <= maxBlobBytes && total <= maxBlobBytes, "%d bytes (blob so far %d, bound %d)", r.Len, total, maxBlobBytes)
		wire.Fixed(c, r.Sum[:])
	})
}

// marshalManifest encodes chunk references as a manifest blob.
func marshalManifest(refs []ChunkRef) []byte {
	m := manifest(refs)
	return wire.Encode(bytes.Clone(manifestMagic), m.code)
}

// maxBlobBytes bounds a chunked blob and each of its chunks: the 1 GiB of
// a frame, which carries a replicated value. A manifest's lengths are
// checked against it, and Commit refuses to publish a blob past it.
const maxBlobBytes = wire.MaxFrame

// ParseManifest decodes a manifest blob. Every ref it returns has a length
// in (0, maxBlobBytes] and the lengths sum to at most maxBlobBytes.
func ParseManifest(blob []byte) ([]ChunkRef, error) {
	rest, ok := bytes.CutPrefix(blob, manifestMagic)
	if !ok {
		return nil, fmt.Errorf("%w: not a chunk manifest", cerr.ErrStore)
	}
	var m manifest
	if err := wire.Decode(rest, m.code); err != nil {
		return nil, fmt.Errorf("%w: corrupt manifest: %w", cerr.ErrStore, err)
	}
	return m, nil
}

// fetched is one chunk read into its slot (ref.Len bytes of the memory the
// run is read into), and the size the store holds it at.
type fetched struct {
	ref  ChunkRef
	size int
	slot []byte
}

// verify is the chunk check on a fetched slot, as an error naming the chunk.
func (f fetched) verify() error {
	if defect := f.ref.defectAt(f.size, f.slot); defect != "" {
		return fmt.Errorf("%w: assemble: chunk %s %s", cerr.ErrStore, f.ref.Key(), defect)
	}
	return nil
}

// Object is a chunked blob opened by its manifest, read a run of chunks at
// a time into memory the caller names: a whole blob (Assemble), or the part
// of a state object one variable keeps, read straight into that variable.
type Object struct {
	s    Stable
	refs []ChunkRef
}

// Chunks is how many chunks the object has.
func (o *Object) Chunks() int { return len(o.refs) }

// ChunkLen is the length of chunk i.
func (o *Object) ChunkLen(i int) int { return int(o.refs[i].Len) }

// Run returns the end of the run of chunks from first on that holds exactly
// n bytes; a run that ends inside a chunk, or past the last, is an error of
// the ErrStore category.
func (o *Object) Run(first, n int) (end int, err error) {
	for end = first; n > 0 && end < len(o.refs); end++ {
		n -= int(o.refs[end].Len)
	}
	if n != 0 || first > len(o.refs) {
		return 0, fmt.Errorf("%w: no run of whole chunks from chunk %d holds the bytes asked for", cerr.ErrStore, first)
	}
	return end, nil
}

// ReadInto reads the run of chunks from first on that fills dst, each
// straight into its slot of dst, and verifies each chunk's length and
// content hash in place (a torn or swept chunk must surface as an error,
// never as silently corrupt state). It is the one read-and-verify pipeline.
//
// The reads are issued here, on the caller's goroutine, in manifest order
// (GetInto: no slice and no copy per chunk on a store that can, Get and a
// copy on one that cannot); hashing runs in place behind them on
// min(GOMAXPROCS, chunks) verifiers, so while chunk N+1 is read the chunks
// before it are hashed on every core the process has. A store on virtual
// time therefore sees the calls a serial reader would make, from the same
// goroutine in the same order — which is why there is no serial variant to
// select. A run of one chunk has nothing to overlap and is verified by the
// caller, as a ChunkedWriter short of a second full chunk spawns no worker.
// The first bad chunk a verifier reports ends the reading: the caller
// issues no read once it has seen it, joins every verifier and returns that
// one error. Every error is of the ErrStore category, and a chunk's names
// the chunk.
func (o *Object) ReadInto(first int, dst []byte) error {
	end, err := o.Run(first, len(dst))
	if err != nil {
		return err
	}
	refs := o.refs[first:end]
	workers := min(runtime.GOMAXPROCS(0), len(refs))
	if len(refs) < 2 {
		workers = 0
	}
	jobs, bad := make(chan fetched, defaultPipelineDepth), make(chan error, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range jobs {
				if err := f.verify(); err != nil {
					bad <- err // buffered: one per verifier
					return
				}
			}
		}()
	}
	off := int64(0)
	for _, r := range refs {
		select {
		case err = <-bad:
		default:
		}
		if err != nil {
			break
		}
		f := fetched{ref: r, slot: dst[off : off+r.Len]}
		off += r.Len
		if f.size, err = GetInto(o.s, r.Key(), f.slot); err != nil {
			err = fmt.Errorf("%w: assemble: chunk %s: %w", cerr.ErrStore, r.Key(), err)
			break
		}
		if workers == 0 {
			err = f.verify()
			continue
		}
		select {
		case jobs <- f:
		case err = <-bad:
		}
	}
	close(jobs)
	wg.Wait()
	if err == nil && len(bad) > 0 {
		err = <-bad
	}
	return err
}

// Assemble reassembles a chunked blob from its manifest: one buffer of the
// blob's size, every chunk read into its slot and verified there
// (Object.ReadInto).
func Assemble(s Stable, manifest []byte) ([]byte, error) {
	refs, err := ParseManifest(manifest)
	if err != nil {
		return nil, err
	}
	var size int64
	for _, r := range refs {
		size += r.Len
	}
	out := make([]byte, size)
	if err := (&Object{s: s, refs: refs}).ReadInto(0, out); err != nil {
		return nil, err
	}
	return out, nil
}
