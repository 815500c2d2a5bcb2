package ckpt

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ccift/internal/mpi"
	"ccift/internal/wire"
)

// Checkpoint freezing: the blocking half of the asynchronous checkpoint
// pipeline. Saver.Freeze copies the live application state (PS trace, VDS
// values, heap blocks) into an immutable Frozen view — raw memcopies, no
// encoding — so the rank is stopped only for the duration of the copy.
// Serialization then runs the state blob's one layout, Frozen.code, which a
// restore parses with, over the view, typically on a background flusher
// while the rank computes on: WriteTo streams it into the chunked store
// writer, Snapshot encodes and StateBytes sizes it. Saver.Snapshot runs it
// over the live state, so every path writes the same bytes. While it
// flushes, the view is lent to the store: every page and slab a payload is
// made of goes to the chunked writer as it is, hashed and stored from where
// the freeze put it, so the freeze's copy is the only one the bulk of a
// checkpoint takes. The view stays unmodified until Release, which follows
// the flush, and only Release returns its slabs to the pool.
//
// With Saver.Incremental set, Freeze goes one step further: a region (VDS
// variable or heap block) whose write clock has not moved since the
// previous Freeze is not copied at all — the new Frozen re-references the
// previous epoch's frozen copy, so a mostly-clean epoch blocks the rank
// for O(dirty bytes) instead of O(state). The sharing is what the slab
// refcounts below exist for: Frozen.Release must not hand a buffer back to
// the pool while another epoch's view (or the Saver's own retention of the
// last frozen state) still reads it — which is also what lets a caller keep
// the views of the last few epochs for the price of their dirty pages.
// Scalar values are exempt from the tracking — their copies are a few
// bytes, and loop counters legitimately change every iteration without a
// Touch, so dirty-tracking them would trade a free copy for a stale-counter
// hazard.

// cutoverBytes is the record size from which the state layout isolates a
// VDS value or heap block between cuts: unchanged, it hashes to the same
// chunks in a later epoch whatever changed before it.
const cutoverBytes = 4096

// poisonReleased is the PoisonReleasedSlabs seam.
var poisonReleased atomic.Bool

// PoisonReleasedSlabs is a test seam, not an option: from here on, for the
// life of the process, every slab a released view hands back to its pool is
// overwritten first. A store that kept a view of what the flush lent it,
// instead of a copy, then holds poison where the chunk's bytes were, and the
// next read that verifies the chunk fails.
func PoisonReleasedSlabs() { poisonReleased.Store(true) }

// bufPool recycles the large slabs ([]float64 grids, []byte heap blocks)
// of released Frozen views. The protocol admits one outstanding checkpoint
// at a time, so in steady state every epoch's Freeze reuses an earlier
// epoch's warm, already-faulted pages — the epoch-buffered flavor of
// copy-on-write — and the blocking phase shrinks to a plain memcpy. The
// mutex makes get (during Freeze) safe against a put from a goroutine that
// releases a view elsewhere.
type bufPool struct {
	mu  sync.Mutex
	f64 [][]float64
	byt [][]byte
	// stream is the buffer WriteTo streams through (see streamBuffer): one
	// per Saver, lent to one WriteTo at a time; nil while lent.
	stream []byte
}

// streamBuffer is the size of the buffer WriteTo encodes through: one Write
// per 1024 floats keeps the stream near memory bandwidth (Figure 8's cost
// is dominated by this path), and the buffer stays in the L1 cache.
const streamBuffer = 8 << 10

// takeStream lends the stream buffer to a WriteTo: the pool's when it is
// in, else (another WriteTo holds it, or a disowned view) a fresh one.
func (p *bufPool) takeStream() []byte {
	var b []byte
	if p != nil {
		p.mu.Lock()
		b, p.stream = p.stream, nil
		p.mu.Unlock()
	}
	if b == nil {
		b = make([]byte, 0, streamBuffer)
	}
	return b
}

// giveStream takes the buffer back.
func (p *bufPool) giveStream(b []byte) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stream = b
	p.mu.Unlock()
}

// poolKeep bounds retained slabs per type; beyond it a released buffer is
// simply dropped for the GC. Page-granular freezing recycles one slab per
// dirty 64KB page rather than one per variable, so the bound is sized for
// a 16MB grid's worth of pages (256) — the retained set is still capped by
// the live state's own size, since a slab is only pooled when no frozen
// view references it.
const poolKeep = 256

// take removes and returns the smallest pooled buffer that holds n
// elements, or nil. Smallest, not first: a 4 KB vector that takes a 64 KB
// page slab keeps it for as long as some frozen view references the vector,
// while the next page capture allocates afresh — the pool would grow by a
// page every time the two met. An empty value takes nothing, for the same
// reason.
func take[T any](free *[][]T, n int) []T {
	if n == 0 {
		return nil
	}
	best := -1
	for i, b := range *free {
		if cap(b) >= n && (best < 0 || cap(b) < cap((*free)[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b, last := (*free)[best], len(*free)-1
	(*free)[best] = (*free)[last]
	(*free)[last] = nil
	*free = (*free)[:last]
	return b[:n]
}

func (p *bufPool) getF64(n int) []float64 {
	p.mu.Lock()
	b := take(&p.f64, n)
	p.mu.Unlock()
	if b == nil {
		b = make([]float64, n)
	}
	return b
}

func (p *bufPool) putF64(b []float64) {
	if cap(b) == 0 {
		return
	}
	if poisonReleased.Load() {
		for i := range b {
			b[i] = math.Float64frombits(0xDBDBDBDBDBDBDBDB)
		}
	}
	p.mu.Lock()
	if len(p.f64) < poolKeep {
		p.f64 = append(p.f64, b)
	}
	p.mu.Unlock()
}

func (p *bufPool) getBytes(n int) []byte {
	p.mu.Lock()
	b := take(&p.byt, n)
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, n)
	}
	return b
}

func (p *bufPool) putBytes(b []byte) {
	if cap(b) == 0 {
		return
	}
	if poisonReleased.Load() {
		for i := range b {
			b[i] = 0xDB
		}
	}
	p.mu.Lock()
	if len(p.byt) < poolKeep {
		p.byt = append(p.byt, b)
	}
	p.mu.Unlock()
}

// slab is one pooled frozen buffer. Incremental freezes share clean
// regions between consecutive Frozen views (and the Saver's retention of
// the last frozen epoch), so the buffer returns to the pool only when the
// LAST holder releases it. refs is atomic so that a Frozen may be released
// on another goroutine than the one that retains and releases during
// Freeze.
type slab struct {
	refs atomic.Int32
	// Exactly one of f64/byt is non-nil: the pooled buffer this slab owns.
	f64 []float64
	byt []byte
}

func newF64Slab(pool *bufPool, n int) *slab {
	sl := &slab{f64: pool.getF64(n)}
	sl.refs.Store(1)
	return sl
}

func newByteSlab(pool *bufPool, n int) *slab {
	sl := &slab{byt: pool.getBytes(n)}
	sl.refs.Store(1)
	return sl
}

func (sl *slab) retain() { sl.refs.Add(1) }

func (sl *slab) release(pool *bufPool) {
	switch n := sl.refs.Add(-1); {
	case n == 0:
		if sl.f64 != nil {
			pool.putF64(sl.f64)
		} else {
			pool.putBytes(sl.byt)
		}
	case n < 0:
		panic("ckpt: frozen slab over-released")
	}
}

// Frozen is an immutable snapshot of a Saver's state, produced by Freeze.
// It owns every byte it references: mutating the live application after
// Freeze does not affect it. (Under incremental freeze "owns" is shared
// ownership: clean regions reference the previous epoch's slabs, kept
// alive by their refcounts. A Frozen parsed from a state blob references
// the blob: see parseState.)
type Frozen struct {
	trace []int
	vds   []frozenEntry
	heap  frozenHeap

	// Copy accounting for the epoch's Stats: bytes memcopied into this
	// view, and how many of the regions (VDS entries + heap blocks) were
	// captured rather than re-referenced.
	copied  int64
	dirty   int
	regions int

	pool     *bufPool // origin Saver's slab pool; nil once disowned
	released bool
}

type frozenEntry struct {
	name string
	kind entryKind
	// Exactly one of enc/ptr/pages holds the value: enc an encoded record
	// (a computed entry's fingerprint, or any record parsed from a blob or
	// encoded live by Saver.Snapshot), ptr an owned deep copy of the value
	// (encoded lazily at write time), pages the page-granular capture of a
	// large slice. A parsed or Snapshot-encoded split record is its lead in
	// enc and its payload in body.
	enc  []byte
	ptr  any
	size int // the record's size, measured once at capture: its frame
	// gen is the live entry's write-clock stamp at capture; slab is the
	// refcounted pool buffer behind ptr for the pooled types (nil for
	// non-pooled copies, which the GC manages).
	gen  uint64
	slab *slab
	// pages is the page-granular form of a large *[]float64 / *[]byte
	// value: fixed pageBytes pages (the last one short), each owning its
	// refcounted slab, so an incremental Freeze shares clean pages across
	// epochs exactly as heap blocks are shared. elems is the value's
	// element count (floats or bytes); concatenating the page views in
	// order yields the identical payload a whole-value capture encodes.
	pages []frozenPage
	elems int
	// body is a split record's payload (see measure): its size, and where a
	// parsed state has it; ptr or pages write it otherwise.
	body payload
}

// frozenPage is one page of a page-granular frozenEntry. Exactly one of
// f64/byt is non-nil: the page's view into its slab's buffer.
type frozenPage struct {
	gen  uint64
	slab *slab
	f64  []float64
	byt  []byte
}

// retainSlabs takes one reference on every pooled slab behind the entry
// (the whole-value slab or each page's), for a holder that will outlive
// the Frozen the entry was captured into.
func (fe *frozenEntry) retainSlabs() {
	if fe.slab != nil {
		fe.slab.retain()
	}
	for i := range fe.pages {
		if sl := fe.pages[i].slab; sl != nil {
			sl.retain()
		}
	}
}

// releaseSlabs drops one reference on every pooled slab behind the entry.
func (fe *frozenEntry) releaseSlabs(pool *bufPool) {
	if fe.slab != nil {
		fe.slab.release(pool)
	}
	for i := range fe.pages {
		if sl := fe.pages[i].slab; sl != nil {
			sl.release(pool)
		}
	}
}

type frozenHeap struct {
	next   int
	blocks []frozenBlock // sorted by id
}

type frozenBlock struct {
	id   int
	data []byte
	gen  uint64
	slab *slab
}

// Freeze captures an immutable snapshot of the Saver's current state. The
// cost is one copy of the live bytes (plus fingerprinting for computed
// entries); no serialization or storage I/O happens here. With
// s.Incremental set, regions untouched since the previous Freeze are
// re-referenced from it instead of copied — see the Touch contract on
// VDS.Touch and Heap.Touch.
func (s *Saver) Freeze() (*Frozen, error) {
	if err := s.VDS.settle(); err != nil {
		return nil, err
	}
	f := &Frozen{trace: s.PS.Snapshot(), pool: &s.pool}
	var prevVDS map[string]frozenEntry
	var prevHeap map[int]frozenBlock
	if s.Incremental {
		prevVDS, prevHeap = s.lastVDS, s.lastHeap
	}
	vds, err := s.VDS.freeze(&s.pool, prevVDS, f)
	if err != nil {
		return nil, err
	}
	f.vds = vds
	f.heap = s.Heap.freeze(&s.pool, prevHeap, f)
	if s.Incremental {
		s.retainFrozen(f)
	}
	return f, nil
}

// CopyStats reports what Freeze actually moved: the bytes memcopied into
// the view, and how many of its regions (VDS entries + heap blocks) were
// captured rather than re-referenced from the previous epoch. For a full
// freeze every region is captured; the gap between bytesCopied here and
// StateBytes is the incremental win.
func (f *Frozen) CopyStats() (bytesCopied int64, regionsDirty, regions int) {
	return f.copied, f.dirty, f.regions
}

// retainFrozen replaces the Saver's record of the last frozen epoch with
// f's regions, taking a retention reference on every pooled slab so the
// buffers survive f's Release for the next epoch's Freeze to share.
func (s *Saver) retainFrozen(f *Frozen) {
	s.dropRetained()
	s.lastVDS = make(map[string]frozenEntry, len(f.vds))
	for _, fe := range f.vds {
		fe.retainSlabs()
		s.lastVDS[fe.name] = fe
	}
	s.lastHeap = make(map[int]frozenBlock, len(f.heap.blocks))
	for _, fb := range f.heap.blocks {
		if fb.slab != nil {
			fb.slab.retain()
		}
		s.lastHeap[fb.id] = fb
	}
}

// dropRetained releases the Saver's retention references on the last
// frozen epoch's slabs (retainFrozen's replacement path, and StartRestoreView:
// restored live state shares no history with any previous freeze).
func (s *Saver) dropRetained() {
	for _, fe := range s.lastVDS {
		fe.releaseSlabs(&s.pool)
	}
	for _, fb := range s.lastHeap {
		if fb.slab != nil {
			fb.slab.release(&s.pool)
		}
	}
	s.lastVDS, s.lastHeap = nil, nil
}

// Release gives up the view: its large slabs go back to the originating
// Saver's pool, so a later epoch's Freeze reuses them, and the view drops
// every reference it held. A Frozen has one owner at a time — the flush task
// while it writes, then whoever keeps the epoch for rollback — and the last
// owner calls Release once no one will read the view again; until then
// WriteTo and Snapshot may run any number of times. Safe on nil and
// idempotent. A slab shared with another epoch's view (incremental freeze)
// is refcounted and reaches the pool when its last holder releases it.
func (f *Frozen) Release() {
	if f == nil || f.released {
		return
	}
	f.released = true
	if f.pool != nil {
		for i := range f.vds {
			f.vds[i].releaseSlabs(f.pool)
		}
		for _, b := range f.heap.blocks {
			if b.slab != nil {
				b.slab.release(f.pool)
			}
		}
	}
	f.vds, f.heap.blocks = nil, nil
}

// Disown cuts the view loose from its Saver, for a view that outlives it (a
// survivor's retained checkpoint crossing into the next incarnation): the
// view stops pinning the Saver — and through it the dead incarnation's live
// state — and Release leaves its slabs to the garbage collector instead of
// a pool nobody will draw from again.
func (f *Frozen) Disown() { f.pool = nil }

// freeze captures the VDS section into f. With a non-nil prev map
// (incremental mode), a non-scalar entry whose write-clock stamp matches
// the previous epoch's capture is re-referenced instead of copied; a large
// pageable entry that misses that fast path is captured page by page, each
// page shared with the previous epoch when its own stamp matches.
func (v *VDS) freeze(pool *bufPool, prev map[string]frozenEntry, f *Frozen) ([]frozenEntry, error) {
	out := make([]frozenEntry, 0, len(v.entries))
	for i := range v.entries {
		e := &v.entries[i]
		paged, elems, perPage, isF64 := pageGeometry(e.kind, e.ptr)
		numPages := 0
		if paged {
			numPages = (elems + perPage - 1) / perPage
			f.regions += numPages
		} else {
			f.regions++
		}
		var pe *frozenEntry
		if prev != nil && !e.scalar {
			if p, ok := prev[e.name]; ok && p.kind == e.kind {
				if p.gen == e.gen {
					p.retainSlabs()
					out = append(out, p)
					continue
				}
				pe = &p
			}
		}
		if paged {
			fe := capturePaged(e, pe, elems, perPage, numPages, isF64, pool, f)
			out = append(out, fe)
			continue
		}
		fe := frozenEntry{name: e.name, kind: e.kind, gen: e.gen}
		switch e.kind {
		case kindSaved:
			fe.captureValue(e.ptr, pool)
		case kindComputed:
			fe.enc = fingerprint(e.ptr)
			fe.size = len(fe.enc)
		default:
			return nil, fmt.Errorf("ckpt: entry %q has invalid kind %d", e.name, e.kind)
		}
		f.dirty++
		f.copied += int64(fe.size)
		out = append(out, fe)
	}
	return out, nil
}

// capturePaged freezes a large slice value as pageBytes pages. A page
// whose write-clock stamp matches the previous epoch's capture of the
// same page (same element count, so identical page geometry) re-references
// that capture's slab; every other page is copied into a fresh slab. prev
// is nil on a full freeze — then every page copies.
func capturePaged(e *vdsEntry, prev *frozenEntry, elems, perPage, numPages int, isF64 bool, pool *bufPool, f *Frozen) frozenEntry {
	fe := frozenEntry{name: e.name, kind: e.kind, gen: e.gen, elems: elems}
	gens := e.pageGens(elems, numPages)
	// Page sharing needs the previous capture to have the identical page
	// geometry AND payload type; a resize or type rebind bumps the entry
	// gen anyway, but the shape check keeps the index math honest.
	sharable := prev != nil && prev.pages != nil && prev.elems == elems &&
		len(prev.pages) == numPages && (prev.pages[0].f64 != nil) == isF64
	fe.pages = make([]frozenPage, numPages)
	for p := 0; p < numPages; p++ {
		lo := p * perPage
		hi := lo + perPage
		if hi > elems {
			hi = elems
		}
		if sharable && prev.pages[p].gen == gens[p] {
			pg := prev.pages[p]
			if pg.slab != nil {
				pg.slab.retain()
			}
			fe.pages[p] = pg
			continue
		}
		pg := frozenPage{gen: gens[p]}
		if isF64 {
			src := (*e.ptr.(*[]float64))[lo:hi]
			pg.slab = newF64Slab(pool, len(src))
			copy(pg.slab.f64, src)
			pg.f64 = pg.slab.f64
			f.copied += int64(8 * len(src))
		} else {
			src := (*e.ptr.(*[]byte))[lo:hi]
			pg.slab = newByteSlab(pool, len(src))
			copy(pg.slab.byt, src)
			pg.byt = pg.slab.byt
			f.copied += int64(len(src))
		}
		fe.pages[p] = pg
		f.dirty++
	}
	fe.measure()
	return fe
}

// captureValue takes an owned copy of the value and measures its record.
func (fe *frozenEntry) captureValue(ptr any, pool *bufPool) {
	fe.ptr, fe.slab = copyValue(ptr, pool)
	fe.measure()
}

// measure sizes the entry's record, once, and splits it when the state
// layout does: a saved []float64 or []byte whose record is cutoverBytes or
// more keeps its lead — the tag and the count — in the VDS section, and its
// payload — the words or bytes — follows the blob's sections, from a cut
// on, so that it fills whole chunks of its own and a replacement reads them
// straight into the variable.
func (fe *frozenEntry) measure() {
	fe.size = wire.Size(fe.record)
	if fe.kind != kindSaved || fe.size < cutoverBytes {
		return
	}
	switch p := fe.ptr.(type) {
	case *[]float64:
		fe.body.n = 8 * len(*p)
	case *[]byte:
		fe.body.n = len(*p)
	case nil:
		if fe.pages != nil {
			fe.body.n = fe.elems * fe.pages[0].width()
		}
	}
}

// width is the page's bytes per element.
func (pg *frozenPage) width() int {
	if pg.f64 != nil {
		return 8
	}
	return 1
}

// freeze captures the heap section into f, sharing clean blocks from the
// previous epoch's capture exactly as VDS.freeze shares clean entries.
func (h *Heap) freeze(pool *bufPool, prev map[int]frozenBlock, f *Frozen) frozenHeap {
	blocks := make([]frozenBlock, 0, len(h.blocks))
	for id, b := range h.blocks {
		f.regions++
		if prev != nil {
			if pb, ok := prev[id]; ok && pb.gen == b.gen {
				pb.slab.retain()
				blocks = append(blocks, pb)
				continue
			}
		}
		sl := newByteSlab(pool, len(b.Data))
		copy(sl.byt, b.Data)
		blocks = append(blocks, frozenBlock{id: id, data: sl.byt, gen: b.gen, slab: sl})
		f.dirty++
		f.copied += int64(len(b.Data))
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].id < blocks[j].id })
	return frozenHeap{next: h.nextID, blocks: blocks}
}

// copyValue returns an owned deep copy of the pointed-to value, one of the
// laid-out types. The large slab types draw their copies from pool and
// report the refcounted slab that owns the buffer; Frozen.Release returns
// it for the next epoch once the last sharer is done.
func copyValue(ptr any, pool *bufPool) (owned any, sl *slab) {
	switch p := ptr.(type) {
	case *int:
		return clone(p), nil
	case *int64:
		return clone(p), nil
	case *uint64:
		return clone(p), nil
	case *float64:
		return clone(p), nil
	case *bool:
		return clone(p), nil
	case *string:
		return clone(p), nil // strings are immutable; sharing is a safe copy
	case *[]byte:
		sl := newByteSlab(pool, len(*p))
		copy(sl.byt, *p)
		return &sl.byt, sl
	case *[]float64:
		sl := newF64Slab(pool, len(*p))
		copy(sl.f64, *p)
		return &sl.f64, sl
	case *[]int:
		cp := append([]int(nil), *p...)
		return &cp, nil
	case *[]int64:
		cp := append([]int64(nil), *p...)
		return &cp, nil
	case *[][]float64:
		cp := make([][]float64, len(*p))
		for i, row := range *p {
			cp[i] = append([]float64(nil), row...)
		}
		return &cp, nil
	}
	panic(fmt.Sprintf("ckpt: %T has no checkpoint layout", ptr)) // admit refuses it at registration
}

// clone is a pointer to a copy of *p.
func clone[T any](p *T) *T {
	v := *p
	return &v
}

// --- serialization against the frozen view ---

// Snapshot encodes the frozen state into one blob, byte-identical to what
// Saver.Snapshot would have produced at freeze time.
func (f *Frozen) Snapshot() ([]byte, error) {
	var err error
	blob := wire.Encode(make([]byte, 0, f.StateBytes()), func(c *wire.Codec) {
		f.code(c)
		err = c.Err()
	})
	return blob, err
}

// StateBytes reports the exact serialized size of the frozen state. It
// stays a call: inlined, it moves the benchmark's speed probe (ROADMAP 7(k)).
//
//go:noinline
func (f *Frozen) StateBytes() int { return wire.Size(f.code) }

// WriteTo streams the frozen state into w, producing Snapshot's bytes, and
// cuts where the layout cuts: after the trace, after the VDS section and
// the heap section, around every record or heap block of cutoverBytes or
// more and after every split record's lead and payload, so a chunked sink
// dedups unchanged variables and heap blocks across epochs. It
// encodes through one buffer lent by the Saver's pool, and lends a sink
// that takes views (wire.Stream) every page, slab and parsed payload as it
// is: those must not be written until the sink is finished, which is why
// only Release hands them back.
func (f *Frozen) WriteTo(w wire.Sink) error {
	buf := f.pool.takeStream()
	defer f.pool.giveStream(buf)
	return wire.Stream(w, buf, f.code)
}

// record encodes the entry's value record, e.size bytes: the pre-encoded
// bytes, the value codec over the owned copy, or the lead and the payload
// of a split or paged one, what the whole []float64 or []byte encodes to.
// (Decoded, a record is a view of the blob.)
func (e *frozenEntry) record(c *wire.Codec) {
	switch {
	case e.body.n > 0 || e.pages != nil:
		e.lead(c)
		e.payload(c)
	case e.enc != nil:
		wire.Fixed(c, e.enc)
	case e.ptr != nil:
		codeValue(c, e.ptr)
	}
}

// lead encodes a []float64 or []byte record's tag and element count, what
// codeValue writes before the words or bytes; a parsed split record's lead
// is its pre-encoded bytes.
func (e *frozenEntry) lead(c *wire.Codec) {
	if e.enc != nil {
		wire.Fixed(c, e.enc)
		return
	}
	t, n := tagBytes, e.elems
	switch p := e.ptr.(type) {
	case *[]float64:
		t, n = tagFloat64Slice, len(*p)
	case *[]byte:
		n = len(*p)
	default:
		if e.pages[0].f64 != nil {
			t = tagFloat64Slice
		}
	}
	tag(c, t)
	wire.Uint(c, &n)
}

// payload encodes the words or bytes after the lead: the owned copy's, each
// page's in order, or a parsed record's. Every one is a run of the view's
// memory a stream can lend to its sink (see WriteTo).
func (e *frozenEntry) payload(c *wire.Codec) {
	switch p := e.ptr.(type) {
	case *[]float64:
		words(c, *p)
	case *[]byte:
		wire.Fixed(c, *p)
	}
	for i := range e.pages {
		words(c, e.pages[i].f64) // one of the two is empty
		wire.Fixed(c, e.pages[i].byt)
	}
	wire.Fixed(c, e.body.raw)
}

// words encodes floats as wire.Fixed does: as the bytes of their own memory
// where that is their wire form (mpi.View), which a stream lends as it is,
// and word by word through the stream's buffer on a big-endian host.
func words(c *wire.Codec, xs []float64) {
	if b, ok := mpi.View(xs); ok {
		wire.Fixed(c, b)
		return
	}
	wire.Fixed(c, xs)
}
