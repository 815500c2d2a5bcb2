package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Checkpoint freezing: the blocking half of the asynchronous checkpoint
// pipeline. Saver.Freeze copies the live application state (PS trace, VDS
// values, heap blocks) into an immutable Frozen view — raw memcopies, no
// encoding — so the rank is stopped only for the duration of the copy.
// Serialization (Frozen.WriteTo / Frozen.Snapshot) then runs against the
// frozen view, typically on a background flusher goroutine, while the rank
// computes on. The serialized byte stream is identical to Saver.Snapshot's,
// so restore is oblivious to which path produced a checkpoint.
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

// SectionWriter is the sink Frozen.WriteTo streams into. Cut marks a
// dedup-friendly boundary: a chunked writer closes its current chunk there,
// so an unchanged variable re-serialized in a later epoch hashes to the
// same chunks regardless of what changed before it in the stream.
type SectionWriter interface {
	io.Writer
	Cut() error
}

// nopSection adapts a plain buffer (Cut is meaningless without chunking).
type nopSection struct{ *bytes.Buffer }

func (nopSection) Cut() error { return nil }

// cutoverBytes is the value size above which WriteTo isolates an entry or
// heap block between Cuts, giving it its own chunk run in chunked storage.
const cutoverBytes = 4096

// fingerprintSize is the encoded size of a computed entry's record (16
// bytes of FNV-128a; see fingerprint in exclude.go).
const fingerprintSize = 16

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
	// floats is the float encoder's scratch (see floatScratch): one per
	// Saver, lent to one WriteTo at a time; nil while lent.
	floats []byte
}

// takeFloats lends the float encoder's scratch to a WriteTo — the pool's
// when it is in, a fresh one when another WriteTo holds it or there is no
// pool (a disowned view).
func (p *bufPool) takeFloats() []byte {
	var b []byte
	if p != nil {
		p.mu.Lock()
		b, p.floats = p.floats, nil
		p.mu.Unlock()
	}
	if b == nil {
		b = make([]byte, floatScratch)
	}
	return b
}

// giveFloats takes the scratch back.
func (p *bufPool) giveFloats(b []byte) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.floats = b
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
// page every time the two met.
func take[T any](free *[][]T, n int) []T {
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
	// Exactly one of enc/ptr/pages holds the value: enc is a pre-encoded
	// record (gob fallback, computed fingerprint), ptr an owned deep copy
	// of a fast-path value (encoded lazily at write time), pages the
	// page-granular capture of a large slice. All nil is the zero-length
	// replicated marker of a non-primary rank.
	enc  []byte
	ptr  any
	size int // encoded value size (the length its record is framed with)
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
// cost is one copy of the live bytes (plus immediate encoding for values
// outside the codec's fast paths and fingerprinting for computed entries);
// no serialization or storage I/O happens here. With s.Incremental set,
// regions untouched since the previous Freeze are re-referenced from it
// instead of copied — see the Touch contract on VDS.Touch and Heap.Touch.
func (s *Saver) Freeze() (*Frozen, error) {
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
// frozen epoch's slabs (retainFrozen's replacement path, and StartRestore:
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

// scalarPtr reports whether ptr is one of the always-recaptured scalar
// types. Their copies are a few bytes, and counters legitimately change
// every iteration without a Touch, so dirty-tracking them would trade a
// free copy for a stale-state hazard.
func scalarPtr(ptr any) bool {
	switch ptr.(type) {
	case *int, *int64, *uint64, *float64, *bool, *string:
		return true
	}
	return false
}

// freeze captures the VDS section into f. With a non-nil prev map
// (incremental mode), a non-scalar entry whose write-clock stamp matches
// the previous epoch's capture is re-referenced instead of copied; a large
// pageable entry that misses that fast path is captured page by page, each
// page shared with the previous epoch when its own stamp matches.
func (v *VDS) freeze(pool *bufPool, prev map[string]frozenEntry, f *Frozen) ([]frozenEntry, error) {
	out := make([]frozenEntry, 0, len(v.entries))
	for i := range v.entries {
		e := &v.entries[i]
		paged, elems, perPage, isF64 := pageGeometry(e.kind, v.Primary, e.ptr)
		numPages := 0
		if paged {
			numPages = (elems + perPage - 1) / perPage
			f.regions += numPages
		} else {
			f.regions++
		}
		var pe *frozenEntry
		if prev != nil && !scalarPtr(e.ptr) {
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
			if err := fe.captureValue(e.ptr, e.name, pool); err != nil {
				return nil, err
			}
		case kindComputed:
			sum, err := fingerprint(e.ptr)
			if err != nil {
				return nil, fmt.Errorf("ckpt: fingerprint %q: %w", e.name, err)
			}
			fe.enc, fe.size = sum, len(sum)
		case kindReplicated:
			if v.Primary {
				if err := fe.captureValue(e.ptr, e.name, pool); err != nil {
					return nil, err
				}
			}
			// Non-primary: the zero-length marker (enc and ptr both nil).
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
	if isF64 {
		fe.size = 1 + uvarintLen(uint64(elems)) + 8*elems
	} else {
		fe.size = 1 + uvarintLen(uint64(elems)) + elems
	}
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
	return fe
}

func (fe *frozenEntry) captureValue(ptr any, name string, pool *bufPool) error {
	if owned, sl, size, ok := copyValue(ptr, pool); ok {
		fe.ptr, fe.slab, fe.size = owned, sl, size
		return nil
	}
	raw, err := Encode(ptr)
	if err != nil {
		return fmt.Errorf("ckpt: encode %q: %w", name, err)
	}
	fe.enc, fe.size = raw, len(raw)
	return nil
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

// copyValue returns an owned deep copy of the pointed-to value together
// with its encoded size, for the codec's fast-path types. ok is false for
// types that need the gob fallback (those are encoded at freeze time).
// The large slab types draw their copies from pool and report the
// refcounted slab that owns the buffer; Frozen.Release returns it for the
// next epoch once the last sharer is done.
func copyValue(ptr any, pool *bufPool) (owned any, sl *slab, size int, ok bool) {
	switch p := ptr.(type) {
	case *int:
		v := *p
		return &v, nil, 9, true
	case *int64:
		v := *p
		return &v, nil, 9, true
	case *uint64:
		v := *p
		return &v, nil, 9, true
	case *float64:
		v := *p
		return &v, nil, 9, true
	case *bool:
		v := *p
		return &v, nil, 2, true
	case *string:
		v := *p // strings are immutable; sharing is a safe copy
		return &v, nil, 1 + uvarintLen(uint64(len(v))) + len(v), true
	case *[]byte:
		sl := newByteSlab(pool, len(*p))
		copy(sl.byt, *p)
		return &sl.byt, sl, 1 + uvarintLen(uint64(len(sl.byt))) + len(sl.byt), true
	case *[]float64:
		sl := newF64Slab(pool, len(*p))
		copy(sl.f64, *p)
		return &sl.f64, sl, 1 + uvarintLen(uint64(len(sl.f64))) + 8*len(sl.f64), true
	case *[]int:
		cp := append([]int(nil), *p...)
		return &cp, nil, 1 + uvarintLen(uint64(len(cp))) + 8*len(cp), true
	case *[]int64:
		cp := append([]int64(nil), *p...)
		return &cp, nil, 1 + uvarintLen(uint64(len(cp))) + 8*len(cp), true
	case *[][]float64:
		cp := make([][]float64, len(*p))
		size := 1 + uvarintLen(uint64(len(cp)))
		for i, row := range *p {
			cp[i] = append([]float64(nil), row...)
			size += uvarintLen(uint64(len(row))) + 8*len(row)
		}
		return &cp, nil, size, true
	}
	return nil, nil, 0, false
}

// --- serialization against the frozen view ---

// Snapshot serializes the frozen state into one blob, byte-identical to
// what Saver.Snapshot would have produced at freeze time.
func (f *Frozen) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(f.StateBytes())
	if err := f.WriteTo(nopSection{&buf}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// StateBytes reports the exact serialized size of the frozen state.
func (f *Frozen) StateBytes() int {
	vds := f.vdsSectionSize()
	heap := f.heap.sectionSize()
	return psSectionSize(f.trace) + uvarintLen(uint64(vds)) + vds + uvarintLen(uint64(heap)) + heap
}

func (f *Frozen) vdsSectionSize() int {
	size := uvarintLen(uint64(len(f.vds)))
	for _, e := range f.vds {
		size += entryOverhead(e.name, e.size) + e.size
	}
	return size
}

// entryOverhead is the framing around one VDS entry's value: name, kind
// byte, value length prefix.
func entryOverhead(name string, valueSize int) int {
	return uvarintLen(uint64(len(name))) + len(name) + 1 + uvarintLen(uint64(valueSize))
}

func (fh frozenHeap) sectionSize() int {
	size := uvarintLen(uint64(fh.next)) + uvarintLen(uint64(len(fh.blocks)))
	for _, b := range fh.blocks {
		size += uvarintLen(uint64(b.id)) + uvarintLen(uint64(len(b.data))) + len(b.data)
	}
	return size
}

func psSectionSize(trace []int) int {
	size := uvarintLen(uint64(len(trace)))
	for _, l := range trace {
		size += uvarintLen(uint64(l))
	}
	return size
}

// WriteTo streams the frozen state into w, producing the same bytes as
// Snapshot. Cut is called at section boundaries and around every value
// larger than cutoverBytes, so a chunked SectionWriter dedups unchanged
// variables and heap blocks across epochs.
func (f *Frozen) WriteTo(w SectionWriter) error {
	var scratch bytes.Buffer
	floats := f.pool.takeFloats()
	defer f.pool.giveFloats(floats)

	// PS section.
	writeUvarint(&scratch, uint64(len(f.trace)))
	for _, l := range f.trace {
		writeUvarint(&scratch, uint64(l))
	}
	if err := flushScratch(w, &scratch); err != nil {
		return err
	}
	if err := w.Cut(); err != nil {
		return err
	}

	// VDS section (framed, then entry stream).
	writeUvarint(&scratch, uint64(f.vdsSectionSize()))
	writeUvarint(&scratch, uint64(len(f.vds)))
	cw := &countingSection{w: w}
	for _, e := range f.vds {
		writeString(&scratch, e.name)
		scratch.WriteByte(byte(e.kind))
		writeUvarint(&scratch, uint64(e.size))
		if err := flushScratch(w, &scratch); err != nil {
			return err
		}
		big := e.size >= cutoverBytes
		if big {
			if err := w.Cut(); err != nil {
				return err
			}
		}
		// Every value byte flows through cw: the stream frames the value
		// with e.size, so a drift between the size formulas
		// (copyValue/encodedSize) and the codec's actual output must fail
		// the write here — never surface as a corrupt blob at restore,
		// when the state needed to recover is already gone.
		cw.n = 0
		if err := e.writeValue(cw, &scratch, floats); err != nil {
			return err
		}
		if cw.n != e.size {
			return fmt.Errorf("ckpt: entry %q serialized to %d bytes, size formula says %d", e.name, cw.n, e.size)
		}
		if big {
			if err := w.Cut(); err != nil {
				return err
			}
		}
	}
	if err := flushScratch(w, &scratch); err != nil {
		return err
	}
	if err := w.Cut(); err != nil {
		return err
	}

	// Heap section (framed, then block stream).
	writeUvarint(&scratch, uint64(f.heap.sectionSize()))
	writeUvarint(&scratch, uint64(f.heap.next))
	writeUvarint(&scratch, uint64(len(f.heap.blocks)))
	for _, b := range f.heap.blocks {
		writeUvarint(&scratch, uint64(b.id))
		writeUvarint(&scratch, uint64(len(b.data)))
		if len(b.data) >= cutoverBytes {
			// Stream big blocks straight into w (as the VDS float path
			// does): buffering through scratch would cost a full extra
			// memcpy and pin a block-sized scratch for the rest of the walk.
			if err := flushScratch(w, &scratch); err != nil {
				return err
			}
			if err := w.Cut(); err != nil {
				return err
			}
			if _, err := w.Write(b.data); err != nil {
				return err
			}
			if err := w.Cut(); err != nil {
				return err
			}
			continue
		}
		scratch.Write(b.data)
		if err := flushScratch(w, &scratch); err != nil {
			return err
		}
	}
	return flushScratch(w, &scratch)
}

// writeValue encodes the entry's value (exactly e.size bytes) into w,
// buffering small pieces through scratch and converting floats through
// floats.
func (e *frozenEntry) writeValue(w SectionWriter, scratch *bytes.Buffer, floats []byte) error {
	if e.enc != nil {
		scratch.Write(e.enc)
		return flushScratch(w, scratch)
	}
	if e.pages != nil {
		// Page-granular capture: tag + element count, then the raw page
		// payloads in order — byte-identical to encoding the whole slice,
		// so storage, dedup and restore never see the page structure.
		if e.pages[0].f64 != nil {
			scratch.WriteByte(tagFloat64Slice)
		} else {
			scratch.WriteByte(tagBytes)
		}
		writeUvarint(scratch, uint64(e.elems))
		if err := flushScratch(w, scratch); err != nil {
			return err
		}
		for i := range e.pages {
			if pg := &e.pages[i]; pg.f64 != nil {
				if err := writeFloat64sRawTo(w, pg.f64, floats); err != nil {
					return err
				}
			} else {
				if _, err := w.Write(pg.byt); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if e.ptr == nil {
		return nil // replicated marker: zero bytes
	}
	// Stream the float fast path directly (the dominant payload); encode
	// everything else through scratch — those values are small.
	if p, ok := e.ptr.(*[]float64); ok {
		scratch.WriteByte(tagFloat64Slice)
		if err := flushScratch(w, scratch); err != nil {
			return err
		}
		return writeFloat64sTo(w, *p, floats)
	}
	raw, err := appendValue(scratch.AvailableBuffer(), e.ptr)
	if err != nil {
		return err
	}
	scratch.Write(raw)
	return flushScratch(w, scratch)
}

// countingSection counts the bytes written through it; WriteTo verifies
// each VDS value against its precomputed size with one.
type countingSection struct {
	w SectionWriter
	n int
}

func (c *countingSection) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

func (c *countingSection) Cut() error { return c.w.Cut() }

func flushScratch(w io.Writer, scratch *bytes.Buffer) error {
	if scratch.Len() == 0 {
		return nil
	}
	_, err := w.Write(scratch.Bytes())
	scratch.Reset()
	return err
}

// uvarintLen reports the encoded length of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

// floatScratch is the conversion batch for writing float64 slices, in
// bytes: one Write per 1024 elements instead of per element, which keeps
// the encoder near memory bandwidth — checkpoint cost in Figure 8 is
// dominated by this path. A streamed write converts through a buffer of
// this size that its caller owns: an array here would escape through the
// io.Writer and cost an allocation per call.
const floatScratch = 8 * 1024

// writeFloat64sTo streams a counted float64 slice into w — the checkpoint
// flusher streams grids through it straight into the chunked store writer,
// with no intermediate whole-state buffer, converting through scratch.
func writeFloat64sTo(w io.Writer, xs []float64, scratch []byte) error {
	n := binary.PutUvarint(scratch, uint64(len(xs)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	return writeFloat64sRawTo(w, xs, scratch)
}

// writeFloat64sRawTo streams the little-endian payload without a length
// prefix — the per-page form: a paged frozen entry writes one prefix for
// the whole slice and then each page's payload through this — one
// len(scratch)/8 elements at a time.
func writeFloat64sRawTo(w io.Writer, xs []float64, scratch []byte) error {
	for len(xs) > 0 {
		n := min(len(xs), len(scratch)/8)
		out := scratch[:8*n]
		putFloat64s(out, xs[:n])
		if _, err := w.Write(out); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// putFloat64s writes xs little-endian into out (8·len(xs) bytes). Walking
// both slices, not indexing them, is what lets the compiler drop the
// per-element bounds checks: the loop then runs at memcpy speed (a third
// faster), and a survivor's rollback serializes its whole state through it.
func putFloat64s(out []byte, xs []float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(out, math.Float64bits(x))
		out = out[8:]
	}
}
