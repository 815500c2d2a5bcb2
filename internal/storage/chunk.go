package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"

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

// ChunkedWriter streams a blob into content-hashed chunks. It is a
// wire.Sink that also takes lent views: Write copies bytes in, Lend takes
// them as they are, and Cut, the dedup boundary hook, closes the current
// chunk early so that content after the boundary hashes independently of
// content before it (serializers call it between sections and around large
// values). Commit writes the manifest under the writer's key.
//
// A chunk is a run of parts: the views Lend was given, kept as they are, and
// the bytes Write copied into the writer's one buffer, which grows to what
// arrives (a chunk at most) and is refilled from its start for every chunk.
// A frozen state lends its pages and slabs (ckpt's Frozen.WriteTo), so the
// bulk of a checkpoint is hashed and stored from where the freeze put it,
// in parts (PutParts), and only its head is copied.
//
// Like Assemble on the read side, the writer has one path. Every store call
// of a stream — the dedup probe and the Put of each chunk, then the
// manifest — is issued by the goroutine that calls Write/Lend/Cut/Commit,
// in stream order, and each chunk is hashed there just before its probe, so
// a store on virtual time (internal/sim's SlowStore: a sleep and a PRNG draw
// per call) sees exactly what a serial writer would show it, and there is no
// serial writer to select. The writer starts no goroutine.
//
// The writer is single-use and not safe for concurrent use. It is finished
// when Commit has returned or the owner called Abort; a view it was lent must
// stay unmodified until then.
type ChunkedWriter struct {
	s         Stable
	ctx       context.Context
	key       string
	chunkSize int
	parts     [][]byte // the chunk being filled, in order
	fill      int      // its length
	tail      bool     // its last part is buf's tail, which a Write extends
	buf       []byte   // the bytes Write copied into it
	digest    hash.Hash
	sum       []byte // the digest's output
	refs      []ChunkRef
	total     int64 // logical blob bytes
	written   int64 // bytes actually Put (manifest + dedup-missed chunks)
	committed bool
	err       error // the first failed store call (the stream has a hole, nothing more is stored), or errFinished
}

// errFinished is what a finished writer answers every later call with.
var errFinished = errors.New("storage: chunked writer already finished")

// NewChunkedWriter returns a writer that stores chunks in s and, on
// Commit, a manifest under key. chunkSize <= 0 selects DefaultChunkSize.
// ctx, when non-nil, aborts the stream between chunk writes — a canceled
// flush returns ctx.Err() instead of finishing a write nobody will commit.
func NewChunkedWriter(ctx context.Context, s Stable, key string, chunkSize int) *ChunkedWriter {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ChunkedWriter{s: s, ctx: ctx, key: key, chunkSize: chunkSize, digest: sha256.New()}
}

// Pipeline selects nothing: the writer hashes each chunk as it stores it
// (see the type comment). The method remains for callers written against a
// writer that took a pipeline depth here.
func (w *ChunkedWriter) Pipeline(int) *ChunkedWriter { return w }

// Abort finishes a writer that will not be committed: it drops the views it
// holds, after which every call fails. Safe to call in any state, including
// after Commit (which finishes the writer itself) and more than once, so
// callers can simply defer it.
func (w *ChunkedWriter) Abort() {
	if w.err == nil {
		w.err = errFinished
	}
	w.parts, w.buf = nil, nil
}

// Write implements io.Writer: p is copied into the chunk being filled, and
// every chunk it fills is stored.
func (w *ChunkedWriter) Write(p []byte) (int, error) { return w.add(p, false) }

// Lend is Write without the copy: p's runs become parts of the chunks as
// they are, and the writer reads them until it is finished, so p must stay
// unmodified until Commit or Abort has returned.
func (w *ChunkedWriter) Lend(p []byte) error {
	_, err := w.add(p, true)
	return err
}

// add appends p to the chunk being filled, as views when lent and onto the
// buffer's tail otherwise, and stores every chunk it fills.
func (w *ChunkedWriter) add(p []byte, lent bool) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		k := min(len(p), w.chunkSize-w.fill)
		part := p[:k]
		if !lent {
			// A part before the tail may view an array the buffer has
			// outgrown: nothing writes that array again.
			at := len(w.buf)
			if w.tail {
				at -= len(w.parts[len(w.parts)-1])
				w.parts = w.parts[:len(w.parts)-1]
			}
			w.buf = append(w.buf, part...)
			part = w.buf[at:]
		}
		w.parts, w.tail = append(w.parts, part), !lent
		w.fill += k
		p = p[k:]
		if w.fill == w.chunkSize {
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
	if w.fill == 0 {
		return w.err
	}
	return w.flush()
}

// flush hashes the chunk being filled and stores it.
func (w *ChunkedWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	w.digest.Reset()
	for _, part := range w.parts {
		w.digest.Write(part)
	}
	w.sum = w.digest.Sum(w.sum[:0])
	ref := ChunkRef{Len: int64(w.fill)}
	copy(ref.Sum[:], w.sum)
	err := w.store(ref)
	clear(w.parts)
	w.parts, w.fill, w.tail, w.buf = w.parts[:0], 0, false, w.buf[:0]
	return err
}

// store probes for one hashed chunk, Puts it if the store lacks it, and
// appends its manifest ref. A store keeps nothing of what Put is given, so
// the parts are free again the moment this returns.
func (w *ChunkedWriter) store(ref ChunkRef) error {
	ok, err := Has(w.s, ref.Key())
	if err != nil {
		w.err = fmt.Errorf("storage: probe chunk: %w", err)
		return w.err
	}
	if !ok {
		if err := PutParts(w.s, ref.Key(), w.parts...); err != nil {
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
	// However this ends the writer is finished: it holds no view past it.
	defer w.Abort()
	if err := w.Cut(); err != nil {
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
// caller.
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
