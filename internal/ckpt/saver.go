package ckpt

import (
	"fmt"
	"slices"

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
func (s *Saver) Snapshot() ([]byte, error) {
	f := &Frozen{trace: s.PS.labels, heap: frozenHeap{next: s.Heap.nextID}}
	for i := range s.VDS.entries {
		e := &s.VDS.entries[i]
		raw := s.VDS.record(e)
		f.vds = append(f.vds, frozenEntry{name: e.name, kind: e.kind, enc: raw, size: len(raw)})
	}
	for id, b := range s.Heap.blocks {
		f.heap.blocks = append(f.heap.blocks, frozenBlock{id: id, data: b.Data})
	}
	slices.SortFunc(f.heap.blocks, func(a, b frozenBlock) int { return a.id - b.id })
	return wire.Encode(nil, f.code), nil
}

// record encodes the live entry's value record: the fingerprint of a
// computed value, nothing for a replicated one off the primary, and the
// value otherwise.
func (v *VDS) record(e *vdsEntry) []byte {
	switch {
	case e.kind == kindComputed:
		return fingerprint(e.ptr)
	case e.kind == kindReplicated && !v.Primary:
		return nil
	}
	return Encode(e.ptr)
}

// code is the state blob's one layout: the PS trace, then the VDS section
// and the heap section, each framed by its length, with a cut after the
// trace and after the VDS section. A VDS entry is a name, a kind and its
// value record (see frozenEntry.record; empty for a replicated value off
// the primary) framed by its size; a heap block is a handle and its bytes.
// Decoded, the records and the blocks are views of the blob. A name
// appears once, and handles rise strictly within [1, next): a restored
// heap hands out next and up.
func (f *Frozen) code(c *wire.Codec) {
	wire.Seq(c, "label", &f.trace, 1, func(l *int) { wire.Uint(c, l) })
	c.Cut()
	section(c, "VDS section", func(c *wire.Codec) {
		names := map[string]bool{}
		wire.Seq(c, "variable", &f.vds, 3, func(e *frozenEntry) {
			wire.Str(c, &e.name)
			wire.Uint(c, &e.kind)
			if isolated(c, &e.enc, e.size, e.record); c.Decoding() {
				c.Require(!names[e.name], "%q registered twice", e.name)
				c.Require(e.kind >= kindSaved && e.kind <= kindReplicated, "%q has kind %d", e.name, e.kind)
				names[e.name], e.size = true, len(e.enc)
			}
		})
	})
	c.Cut()
	section(c, "heap section", func(c *wire.Codec) {
		wire.Uint(c, &f.heap.next)
		last := 0
		wire.Seq(c, "block", &f.heap.blocks, 2, func(b *frozenBlock) {
			wire.Uint(c, &b.id)
			if isolated(c, &b.data, len(b.data), func(c *wire.Codec) { wire.Fixed(c, b.data) }); c.Decoding() {
				c.Require(last < b.id && b.id < f.heap.next, "handle %d after %d, next %d", b.id, last, f.heap.next)
				last = b.id
			}
		})
	})
}

// section codes a part of the blob as its length and then the fields layout
// visits, which must fill exactly that length.
func section(c *wire.Codec, noun string, layout func(*wire.Codec)) {
	var b []byte
	n := 0
	if !c.Decoding() {
		n = wire.Size(layout)
	}
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
// whose value records and heap blocks are views of blob, which must stay
// unmodified while the view is read. It belongs to no Saver's pool.
func parseState(blob []byte) (*Frozen, error) {
	f := &Frozen{}
	if err := wire.Decode(blob, f.code); err != nil {
		return nil, fmt.Errorf("ckpt: corrupt state snapshot: %w", err)
	}
	return f, nil
}

// StartRestore arms the restore StartRestoreView arms, from a state blob: a
// replacement's rollback. blob is only read and must stay unmodified: the
// restore map holds views of it, and each value is copied out once, into
// the program's own memory, when its registration arrives.
func (s *Saver) StartRestore(blob []byte) error {
	f, err := parseState(blob)
	if err != nil {
		return err
	}
	s.StartRestoreView(f)
	return nil
}

// StartRestoreView arms the PS resume cursor and the VDS restore map from a
// frozen view and restores the heap at once (its handles must resolve before
// the application re-executes): a survivor's rollback from its retained view
// and, through StartRestore, a replacement's from its parsed blob. Each
// restored byte moves once. A page-granular value is copied page by page
// into its variable when the registration arrives; every other value goes
// through the codec, from the view's record or an encode of its owned copy
// (a []float64 or []byte that does not page is at most a page); heap blocks
// are cloned now.
// The restore map reads f's pages until the last registration: f must not go
// back to a pool before then (a disowned view's pages are the collector's).
func (s *Saver) StartRestoreView(f *Frozen) {
	// Restored live state shares no history with any previous freeze: the
	// retained regions are stale and must never be re-referenced.
	s.dropRetained()
	s.PS.StartResume(f.trace)
	restore := make(map[string]restoreRec, len(f.vds))
	for i := range f.vds {
		e := &f.vds[i]
		rec := restoreRec{kind: e.kind, data: e.enc, pages: e.pages, elems: e.elems}
		if e.ptr != nil {
			rec.data = Encode(e.ptr)
		}
		restore[e.name] = rec
	}
	s.VDS.restore = restore
	s.Heap.install(f.heap)
}
