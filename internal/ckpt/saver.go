package ckpt

import (
	"fmt"
	"slices"

	"ccift/internal/cerr"
	"ccift/internal/storage"
	"ccift/internal/wire"
)

// Saver bundles the three state-saving structures of Section 5.1 — the
// Position Stack, the Variable Descriptor Stack, and the heap/HOS — and
// serializes them as the application-state section of a local checkpoint.
type Saver struct {
	PS   *PositionStack
	VDS  *VDS
	Heap *Heap

	// Incremental enables dirty-region freezing: Freeze copies only the
	// regions (VDS variables, heap blocks) touched since the previous
	// Freeze and re-references the prior epoch's frozen slabs for the
	// clean ones. It requires the write-intent contract — every mutation
	// of a registered non-scalar value or heap block must be followed by
	// VDS.Touch / Heap.Touch before the next checkpoint; registration,
	// resize and unregister dirty implicitly — and must be set before the
	// first Freeze. The serialized bytes are identical to a full freeze's,
	// so storage and recovery are oblivious.
	Incremental bool

	// pool recycles the slabs of released Frozen views across epochs, so
	// a steady-state Freeze costs one memcpy into warm pages instead of a
	// fresh multi-megabyte allocation plus its page faults (see freeze.go).
	pool bufPool

	// lastVDS/lastHeap retain the previous Freeze's regions (with slab
	// retention references) so an incremental Freeze can re-reference the
	// clean ones even after that epoch's Frozen has been released.
	lastVDS  map[string]frozenEntry
	lastHeap map[int]frozenBlock
}

// NewSaver returns a Saver with fresh, empty components.
func NewSaver() *Saver {
	return &Saver{PS: NewPositionStack(), VDS: NewVDS(), Heap: NewHeap()}
}

// Snapshot encodes position, variables and heap: the state blob's layout
// run over the live state, every value encoded afresh. It shares nothing
// with Freeze and Frozen.WriteTo but the layout and the value codec, so it
// is the reference their stream is held to.
func (s *Saver) Snapshot() []byte {
	f := &Frozen{trace: s.PS.labels, heap: frozenHeap{next: s.Heap.nextID}}
	for i := range s.VDS.entries {
		e := &s.VDS.entries[i]
		raw := s.VDS.record(e)
		fe := frozenEntry{name: e.name, kind: e.kind, enc: raw, size: len(raw)}
		if fe.kind == kindSaved && fe.size >= cutoverBytes {
			fe.split()
		}
		f.vds = append(f.vds, fe)
	}
	for id, b := range s.Heap.blocks {
		f.heap.blocks = append(f.heap.blocks, frozenBlock{id: id, data: b.Data})
	}
	slices.SortFunc(f.heap.blocks, func(a, b frozenBlock) int { return a.id - b.id })
	return wire.Encode(nil, f.code)
}

// split cuts an encoded []float64 or []byte record into its lead and its
// payload, as frozenEntry.measure splits a captured one; a record of another
// type stays whole.
func (e *frozenEntry) split() {
	n, width, k, err := leadOf(e.enc)
	if err == nil && width > 0 {
		e.enc, e.elems, e.body = e.enc[:k], n, payload{n: len(e.enc) - k, raw: e.enc[k:], f64: width == 8}
	}
}

// leadOf decodes the lead at the start of a record: its element count, the
// payload's bytes per element — 0 for a type whose record is never split —
// and the lead's length.
func leadOf(rec []byte) (n, width, k int, err error) {
	var t byte
	k, err = wire.DecodePrefix(rec, func(c *wire.Codec) {
		wire.Uint(c, &t)
		wire.Uint(c, &n)
	})
	switch t {
	case tagFloat64Slice:
		width = 8
	case tagBytes:
		width = 1
	}
	return n, width, k, err
}

// record encodes the live entry's value record: the fingerprint of a
// computed value, and the value otherwise.
func (v *VDS) record(e *vdsEntry) []byte {
	if e.kind == kindComputed {
		return fingerprint(e.ptr)
	}
	return Encode(e.ptr)
}

// code is the state blob's one layout: a head, framed by its length, and
// then the payload of every split record (see frozenEntry.measure) in VDS
// order, each followed by a cut. So the head is a prefix of whole chunks,
// and each payload fills whole chunks of its own: pages lie inside chunks.
// An encode sizes each section once, and the head from those sizes.
func (f *Frozen) code(c *wire.Codec) {
	var vds, heap, n int
	if !c.Decoding() {
		vds, heap = wire.Size(f.vdsSection), wire.Size(f.heapSection)
		n = wire.Size(f.head(vds, heap))
	}
	section(c, "head", n, f.head(vds, heap))
	c.Cut()
	for i := range f.vds {
		if e := &f.vds[i]; e.body.n > 0 {
			wire.Span(c, &e.body.raw, e.body.n, e.payload)
			c.Cut()
		}
	}
}

// head is the head's layout, given the sizes of its sections when it
// encodes: the PS trace, then the VDS section and the heap section, each
// framed by its length, with a cut after the trace and after the VDS
// section.
func (f *Frozen) head(vds, heap int) func(*wire.Codec) {
	return func(c *wire.Codec) {
		wire.Seq(c, "label", &f.trace, 1, func(l *int) { wire.Uint(c, l) })
		c.Cut()
		section(c, "VDS section", vds, f.vdsSection)
		c.Cut()
		section(c, "heap section", heap, f.heapSection)
	}
}

// vdsSection lays out the VDS entries. An entry is a name, a kind, the size
// of its payload (0 when the record is whole) and its value record framed
// by its size — a split record's lead, followed by a cut. Decoded, the
// records and the leads are views of the blob. A name appears once, and a
// split record is a saved []float64 or []byte whose lead counts its
// payload.
func (f *Frozen) vdsSection(c *wire.Codec) {
	names := map[string]bool{}
	wire.Seq(c, "variable", &f.vds, 4, func(e *frozenEntry) {
		wire.Str(c, &e.name)
		wire.Uint(c, &e.kind)
		wire.Uint(c, &e.body.n)
		if e.body.n == 0 {
			isolated(c, &e.enc, e.size, e.record)
		} else {
			wire.Frame(c, &e.enc, e.size-e.body.n, e.lead)
			c.Cut()
		}
		if c.Decoding() && c.Err() == nil {
			c.Require(!names[e.name], "%q registered twice", e.name)
			c.Require(e.kind >= kindSaved && e.kind <= kindComputed, "%q has kind %d", e.name, e.kind)
			if e.body.n > 0 {
				n, width, k, err := leadOf(e.enc)
				c.Require(e.kind == kindSaved && err == nil && k == len(e.enc) && width > 0 && e.body.n <= wire.MaxFrame &&
					e.body.n%width == 0 && n == e.body.n/width, "%q: a payload of %d bytes after the lead % x", e.name, e.body.n, e.enc)
				e.elems, e.body.f64 = n, width == 8
			}
			names[e.name], e.size = true, len(e.enc)+e.body.n
		}
	})
}

// heapSection lays out the heap: the next handle, then each block as a
// handle and its bytes, a view of the blob decoded. Handles rise strictly
// within [1, next): a restored heap hands out next and up.
func (f *Frozen) heapSection(c *wire.Codec) {
	wire.Uint(c, &f.heap.next)
	last := 0
	wire.Seq(c, "block", &f.heap.blocks, 2, func(b *frozenBlock) {
		wire.Uint(c, &b.id)
		if isolated(c, &b.data, len(b.data), func(c *wire.Codec) { wire.Fixed(c, b.data) }); c.Decoding() {
			c.Require(last < b.id && b.id < f.heap.next, "handle %d after %d, next %d", b.id, last, f.heap.next)
			last = b.id
		}
	})
}

// section codes a part of the blob as its length n, which an encode has
// measured, and then the fields layout visits, which must fill exactly that
// length.
func section(c *wire.Codec, noun string, n int, layout func(*wire.Codec)) {
	var b []byte
	if wire.Frame(c, &b, n, layout); c.Decoding() && c.Err() == nil {
		err := wire.Decode(b, layout)
		c.Require(err == nil, "%s: %w", noun, err)
	}
}

// isolated codes a value record or heap block framed by its size n. One
// of cutoverBytes or more sits between cuts of its own, after its length
// and after its body.
func isolated(c *wire.Codec, p *[]byte, n int, body func(*wire.Codec)) {
	wire.Frame(c, p, n, func(c *wire.Codec) {
		if n >= cutoverBytes {
			c.Cut()
		}
		body(c)
		if n >= cutoverBytes {
			c.Cut()
		}
	})
}

// parseState is the decode direction of the state blob's layout: a Frozen
// whose value records, payloads and heap blocks are views of blob, which
// must stay unmodified while the view is read. It belongs to no Saver's
// pool.
func parseState(blob []byte) (*Frozen, error) {
	f := &Frozen{}
	if err := wire.Decode(blob, f.code); err != nil {
		return nil, fmt.Errorf("ckpt: corrupt state snapshot: %w", err)
	}
	return f, nil
}

// parseStored parses the head of a stored state object — every chunk of it
// but the payloads, read and verified here — and places each split record's
// payload on its run of the object's chunks, which it leaves in the store.
// The head's length opens its first chunk. The head and every payload must
// each be a run of whole chunks, and no chunk may be left over.
func parseStored(obj *storage.Object) (*Frozen, error) {
	if obj.Chunks() == 0 {
		return nil, fmt.Errorf("%w: ckpt: the state object has no chunks", cerr.ErrStore)
	}
	head := make([]byte, obj.ChunkLen(0))
	if err := obj.ReadInto(0, head); err != nil {
		return nil, err
	}
	n := 0
	k, err := wire.DecodePrefix(head, func(c *wire.Codec) {
		wire.Uint(c, &n)
		c.Require(n <= wire.MaxFrame, "a head of %d bytes", n)
	})
	next := 0
	if err == nil {
		next, err = obj.Run(0, k+n)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: ckpt: corrupt state object: head: %w", cerr.ErrStore, err)
	}
	if first := len(head); k+n > first {
		head = slices.Grow(head, k+n-first)[:k+n]
		if err := obj.ReadInto(1, head[first:]); err != nil {
			return nil, err
		}
	}
	f := &Frozen{}
	if err := wire.Decode(head, func(c *wire.Codec) { section(c, "head", 0, f.head(0, 0)) }); err != nil {
		return nil, fmt.Errorf("%w: ckpt: corrupt state object: %w", cerr.ErrStore, err)
	}
	for i := range f.vds {
		e := &f.vds[i]
		if e.body.n == 0 {
			continue
		}
		e.body.obj, e.body.first = obj, next
		if next, err = obj.Run(next, e.body.n); err != nil {
			return nil, fmt.Errorf("%w: ckpt: corrupt state object: %q: %w", cerr.ErrStore, e.name, err)
		}
	}
	if next != obj.Chunks() {
		return nil, fmt.Errorf("%w: ckpt: corrupt state object: %d chunks after the last payload", cerr.ErrStore, obj.Chunks()-next)
	}
	return f, nil
}

// StartRestore arms the restore StartRestoreView arms, from a state blob.
// blob is only read and must stay unmodified: the restore map holds views
// of it, and each value is copied out once, into the program's own memory,
// when its registration arrives.
func (s *Saver) StartRestore(blob []byte) error {
	f, err := parseState(blob)
	if err != nil {
		return err
	}
	s.StartRestoreView(f)
	return nil
}

// StartRestoreFrom arms the restore StartRestoreView arms, from the state
// object a store holds: a replacement's rollback. It reads the object's
// head; the payload of a split record stays in the store until its
// registration reads it straight into the variable's memory and verifies it
// there, or until the next Freeze reads what no registration took.
func (s *Saver) StartRestoreFrom(obj *storage.Object) error {
	f, err := parseStored(obj)
	if err != nil {
		return err
	}
	s.StartRestoreView(f)
	return nil
}

// StartRestoreView arms the PS resume cursor and the VDS restore map from a
// frozen view and restores the heap at once (its handles must resolve before
// the application re-executes): a survivor's rollback from its retained view
// and, through StartRestoreFrom, a replacement's from its parsed state object
// (through StartRestore, a restore from a blob held whole). Each restored
// byte moves once. A page-granular value is copied page by page into its
// variable when the registration arrives, and a split record's payload is
// copied or read into it; every other value goes through the codec, from the
// view's record or an encode of its owned copy (a []float64 or []byte that
// does not page is at most a page); heap blocks are cloned now.
// The restore map reads f's pages until the last registration: f must not go
// back to a pool before then (a disowned view's pages are the collector's).
func (s *Saver) StartRestoreView(f *Frozen) {
	// Restored live state shares no history with any previous freeze: the
	// retained regions are stale and must never be re-referenced.
	s.dropRetained()
	s.PS.StartResume(f.trace)
	restore := make(map[string]restoreRec, len(f.vds))
	stored := false
	for i := range f.vds {
		e := &f.vds[i]
		rec := restoreRec{kind: e.kind, data: e.enc, val: e.ptr, pages: e.pages, elems: e.elems}
		if e.body.n > 0 {
			rec.body = &e.body
		}
		restore[e.name] = rec
		stored = stored || e.body.obj != nil
	}
	s.VDS.restore, s.VDS.stored = restore, stored
	s.Heap.install(f.heap)
}
