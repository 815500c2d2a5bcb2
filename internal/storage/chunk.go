package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"ccift/internal/cerr"
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

// DefaultPipelineDepth is the chunk pipeline depth when Pipeline is asked
// for one: deep enough to keep the hash worker busy while a chunk fills,
// shallow enough that the in-flight buffers stay cache-friendly.
const DefaultPipelineDepth = 4

// chunkPrefix is the shared content-addressed chunk namespace.
const chunkPrefix = "ckpt/chunks/"

// manifestMagic marks a blob as a chunk manifest rather than inline data.
// (Inline blobs in this store are gob or codec streams, which cannot begin
// with these eight bytes.)
var manifestMagic = []byte("C3CM0001")

// ChunkRef names one chunk of a manifest.
type ChunkRef struct {
	Sum [sha256.Size]byte
	Len int64
}

// Key returns the store key the referenced chunk lives under.
func (r ChunkRef) Key() string { return chunkPrefix + hex.EncodeToString(r.Sum[:]) }

// ChunkedWriter streams a blob into content-hashed chunks. It implements
// io.Writer plus Cut, the dedup boundary hook: Cut closes the current
// chunk early so that content after the boundary hashes independently of
// content before it — serializers call it between sections and around
// large values. Commit writes the manifest under the writer's key.
//
// The writer is single-use and not safe for concurrent use.
type ChunkedWriter struct {
	s         Stable
	ctx       context.Context
	key       string
	chunkSize int
	buf       []byte
	refs      []ChunkRef
	total     int64 // logical blob bytes
	written   int64 // bytes actually Put (manifest + dedup-missed chunks)
	committed bool
	pipeDepth int            // >0: pipeline requested, spawned on first full chunk
	pipe      *chunkPipeline // nil until the pipeline actually spawns
}

// NewChunkedWriter returns a writer that stores chunks in s and, on
// Commit, a manifest under key. chunkSize <= 0 selects DefaultChunkSize.
// ctx, when non-nil, aborts the stream between chunk writes — a canceled
// flush returns ctx.Err() instead of finishing a write nobody will commit.
func NewChunkedWriter(ctx context.Context, s Stable, key string, chunkSize int) *ChunkedWriter {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ChunkedWriter{s: s, ctx: ctx, key: key, chunkSize: chunkSize, buf: make([]byte, 0, chunkSize)}
}

// Pipeline switches the writer into pipelined mode: chunk N is hashed and
// dedup-probed on a worker while chunk N+1 fills on the caller, and Put
// runs on a second worker behind the probe — so the `Has` probe for chunk
// N+1 overlaps the store write of chunk N. Chunk boundaries, hashes, and
// the manifest are identical to serial mode; only wall-clock overlap
// changes. depth bounds the chunks in flight (<= 0 selects
// DefaultPipelineDepth). Must be called before the first Write; returns
// the writer for chaining.
//
// The workers spawn lazily, on the first flush of a FULL chunk: a blob
// smaller than one chunk never fills one, so it takes the serial path
// with zero goroutine or channel overhead — pipelining only pays once
// there are at least two chunks to overlap.
func (w *ChunkedWriter) Pipeline(depth int) *ChunkedWriter {
	if w.pipe != nil || w.pipeDepth != 0 || w.total != 0 || len(w.buf) != 0 || len(w.refs) != 0 || w.committed {
		panic("storage: ChunkedWriter.Pipeline after first Write")
	}
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}
	w.pipeDepth = depth
	return w
}

// startPipeline spawns the hash and put workers. Called from flush once
// the stream has proven to be multi-chunk.
func (w *ChunkedWriter) startPipeline() {
	depth := w.pipeDepth
	p := &chunkPipeline{
		hashCh: make(chan []byte, depth),
		putCh:  make(chan chunkPut, depth),
		free:   make(chan []byte, depth+2),
	}
	// Seed the buffer free-list: one buffer per in-flight slot plus one for
	// each worker's hands. The caller's fill buffer is w.buf itself.
	for i := 0; i < depth+2; i++ {
		p.free <- make([]byte, 0, w.chunkSize)
	}
	p.wg.Add(2)
	go p.hashWorker(w.s, w.ctx)
	go p.putWorker(w.s)
	w.pipe = p
}

// chunkPipeline is the worker state behind a pipelined ChunkedWriter. The
// caller's flush hands a filled buffer to hashCh; the hash worker hashes
// it and probes the store, then forwards to putCh; the put worker stores
// missing chunks and appends manifest refs. Both channels are FIFO with a
// single consumer each, so refs accumulate in stream order. Buffers
// recycle through free — the stores copy on Put, so a buffer is reusable
// the moment its Put returns (the serial path relies on the same
// property).
type chunkPipeline struct {
	hashCh chan []byte
	putCh  chan chunkPut
	free   chan []byte
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error // first error from either worker; latched, drains continue

	// Owned by the put worker until wg.Wait returns.
	refs    []ChunkRef
	total   int64
	written int64

	closed bool // hashCh closed (Commit or Abort ran)
}

func (p *chunkPipeline) latch(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *chunkPipeline) errNow() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// hashWorker hashes each chunk and probes the store for it. On a latched
// error it keeps draining (recycling buffers) so the producer never
// blocks on a dead pipeline.
func (p *chunkPipeline) hashWorker(s Stable, ctx context.Context) {
	defer p.wg.Done()
	defer close(p.putCh)
	for buf := range p.hashCh {
		if p.errNow() != nil {
			p.free <- buf
			continue
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				p.latch(err)
				p.free <- buf
				continue
			}
		}
		sum := sha256.Sum256(buf)
		ref := ChunkRef{Sum: sum, Len: int64(len(buf))}
		ok, err := Has(s, ref.Key())
		if err != nil {
			p.latch(fmt.Errorf("storage: probe chunk: %w", err))
			p.free <- buf
			continue
		}
		p.putCh <- chunkPut{buf: buf, ref: ref, need: !ok}
	}
}

type chunkPut struct {
	buf  []byte
	ref  ChunkRef
	need bool
}

// putWorker stores missing chunks and builds the manifest ref list.
func (p *chunkPipeline) putWorker(s Stable) {
	defer p.wg.Done()
	for j := range p.putCh {
		if p.errNow() == nil {
			if j.need {
				if err := s.Put(j.ref.Key(), j.buf); err != nil {
					p.latch(fmt.Errorf("storage: put chunk: %w", err))
					p.free <- j.buf
					continue
				}
				p.written += j.ref.Len
			}
			p.total += j.ref.Len
			p.refs = append(p.refs, j.ref)
		}
		p.free <- j.buf
	}
}

// join closes the intake and waits for both workers. Idempotent.
func (p *chunkPipeline) join() {
	if !p.closed {
		p.closed = true
		close(p.hashCh)
	}
	p.wg.Wait()
}

// Abort tears down a pipelined writer that will not be committed, joining
// its workers. Safe to call in any state, including after Commit and on a
// serial writer (both no-ops), so callers can simply defer it.
func (w *ChunkedWriter) Abort() {
	if w.pipe != nil && !w.committed {
		w.pipe.join()
	}
}

// Write implements io.Writer, spilling every full chunk to the store.
func (w *ChunkedWriter) Write(p []byte) (int, error) {
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
		return nil
	}
	return w.flush()
}

func (w *ChunkedWriter) flush() error {
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return err
		}
	}
	if w.pipe == nil && w.pipeDepth > 0 && len(w.buf) == w.chunkSize {
		// First full chunk: the blob is large enough that overlap pays;
		// spawn the workers now. Partial-chunk flushes (Cut boundaries on a
		// sub-chunk blob) never reach here, so small blobs stay serial.
		w.startPipeline()
	}
	if w.pipe != nil {
		// Hand the filled buffer to the hash worker and take a recycled one;
		// the send blocks only when the full pipeline depth is in flight.
		if err := w.pipe.errNow(); err != nil {
			return err
		}
		w.pipe.hashCh <- w.buf
		w.buf = (<-w.pipe.free)[:0]
		return nil
	}
	sum := sha256.Sum256(w.buf)
	ref := ChunkRef{Sum: sum, Len: int64(len(w.buf))}
	ok, err := Has(w.s, ref.Key())
	if err != nil {
		return fmt.Errorf("storage: probe chunk: %w", err)
	}
	if !ok {
		if err := w.s.Put(ref.Key(), w.buf); err != nil {
			return fmt.Errorf("storage: put chunk: %w", err)
		}
		w.written += ref.Len
	}
	w.total += ref.Len
	w.refs = append(w.refs, ref)
	w.buf = w.buf[:0]
	return nil
}

// Commit flushes the final partial chunk and durably stores the manifest
// under the writer's key. It reports the logical blob size and the bytes
// actually written to the store (chunks that deduplicated against existing
// content cost nothing).
func (w *ChunkedWriter) Commit() (total, written int64, err error) {
	if w.committed {
		return 0, 0, fmt.Errorf("storage: ChunkedWriter for %s committed twice", w.key)
	}
	cutErr := w.Cut()
	if w.pipe != nil {
		// Join the workers even when the final Cut failed — a left-behind
		// worker blocked on its channel would leak.
		w.pipe.join()
		if err := w.pipe.errNow(); err != nil {
			return 0, 0, err
		}
		// Chunks cut before the pipeline spawned accumulated serially in
		// w.refs; the pipe's refs continue the same stream order after them.
		w.refs = append(w.refs, w.pipe.refs...)
		w.total += w.pipe.total
		w.written += w.pipe.written
	}
	if cutErr != nil {
		return 0, 0, cutErr
	}
	if w.total > MaxBlobBytes {
		return 0, 0, fmt.Errorf("%w: blob %s is %d bytes; no reader accepts more than %d", cerr.ErrStore, w.key, w.total, MaxBlobBytes)
	}
	man := MarshalManifest(w.refs)
	if err := w.s.Put(w.key, man); err != nil {
		return 0, 0, fmt.Errorf("storage: put manifest: %w", err)
	}
	w.committed = true
	w.written += int64(len(man))
	return w.total, w.written, nil
}

// MarshalManifest encodes chunk references as a manifest blob.
func MarshalManifest(refs []ChunkRef) []byte {
	var buf bytes.Buffer
	buf.Write(manifestMagic)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(refs)))])
	for _, r := range refs {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(r.Len))])
		buf.Write(r.Sum[:])
	}
	return buf.Bytes()
}

// IsManifest reports whether blob is a chunk manifest.
func IsManifest(blob []byte) bool { return bytes.HasPrefix(blob, manifestMagic) }

// MaxBlobBytes bounds a chunked blob and each of its chunks: the 1 GiB
// that internal/launch applies to a control frame. A manifest is stored
// data, so its lengths are checked against this before anything is
// allocated from them, and Commit refuses to publish a blob past it.
const MaxBlobBytes = 1 << 30

func corruptManifest(format string, args ...any) error {
	return fmt.Errorf("%w: corrupt manifest: "+format, append([]any{cerr.ErrStore}, args...)...)
}

// ParseManifest decodes a manifest blob. Every ref it returns has a length
// in (0, MaxBlobBytes] and the lengths sum to at most MaxBlobBytes.
func ParseManifest(blob []byte) ([]ChunkRef, error) {
	if !IsManifest(blob) {
		return nil, fmt.Errorf("%w: not a chunk manifest", cerr.ErrStore)
	}
	rd := bytes.NewReader(blob[len(manifestMagic):])
	n, err := binary.ReadUvarint(rd)
	if err != nil {
		return nil, corruptManifest("%w", err)
	}
	if n > uint64(rd.Len())/(1+sha256.Size) { // a ref is a length byte or more plus a sum
		return nil, corruptManifest("%d refs in %d bytes", n, rd.Len())
	}
	refs := make([]ChunkRef, 0, n)
	var total uint64
	for i := uint64(0); i < n; i++ {
		l, err := binary.ReadUvarint(rd)
		if err != nil {
			return nil, corruptManifest("%w", err)
		}
		if total += l; l == 0 || l > MaxBlobBytes || total > MaxBlobBytes {
			return nil, corruptManifest("ref %d is %d bytes (blob so far %d, bound %d)", i, l, total, MaxBlobBytes)
		}
		r := ChunkRef{Len: int64(l)}
		if _, err := io.ReadFull(rd, r.Sum[:]); err != nil {
			return nil, corruptManifest("truncated ref %d", i)
		}
		refs = append(refs, r)
	}
	if rd.Len() != 0 {
		return nil, corruptManifest("%d trailing bytes", rd.Len())
	}
	return refs, nil
}

// fetched is one chunk as the store returned it, and its slot (ref.Len
// bytes) in the blob being assembled.
type fetched struct {
	ref        ChunkRef
	chunk, dst []byte
}

// place verifies the chunk's length and content hash against its ref and
// copies it into its slot.
func (f fetched) place() error {
	if int64(len(f.chunk)) != f.ref.Len {
		return fmt.Errorf("%w: assemble: chunk %s is %d bytes, manifest says %d", cerr.ErrStore, f.ref.Key(), len(f.chunk), f.ref.Len)
	}
	if sha256.Sum256(f.chunk) != f.ref.Sum {
		return fmt.Errorf("%w: assemble: chunk %s fails content verification", cerr.ErrStore, f.ref.Key())
	}
	copy(f.dst, f.chunk)
	return nil
}

// Assemble reassembles a chunked blob from its manifest, verifying each
// chunk's length and content hash (a torn or swept chunk must surface as
// an error, never as silently corrupt state).
//
// The Gets are issued here, on the caller's goroutine, in manifest order;
// hashing and the copy into the pre-sized result run on one worker behind
// them, so chunk N is verified while chunk N+1 is read. A store on virtual
// time therefore sees the calls a serial reader would make, from the same
// goroutine in the same order — which is why there is no serial variant to
// select. A blob of one chunk has nothing to overlap and is placed by the
// caller, as a one-chunk ChunkedWriter spawns no pipeline.
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
	// As on the write side, the depth bounds the chunks read ahead of the
	// worker — and so the memory in flight — to a few.
	jobs, done := make(chan fetched, DefaultPipelineDepth), make(chan error, 1)
	placeAll := func() {
		for f := range jobs {
			if err := f.place(); err != nil {
				done <- err // the caller stops reading at its next hand-over
				return
			}
		}
		done <- nil
	}
	pipelined := len(refs) > 1
	if pipelined {
		go placeAll()
	}
	var getErr error
	off := int64(0)
	for _, r := range refs {
		chunk, err := s.Get(r.Key())
		if err != nil {
			getErr = fmt.Errorf("storage: assemble: %w", err)
			break
		}
		select {
		case jobs <- fetched{ref: r, chunk: chunk, dst: out[off : off+r.Len]}:
			off += r.Len
		case err := <-done: // the worker met a bad chunk and has returned
			return nil, err
		}
	}
	close(jobs)
	if !pipelined {
		placeAll()
	}
	if err := <-done; getErr == nil {
		getErr = err
	}
	if getErr != nil {
		return nil, getErr
	}
	return out, nil
}
