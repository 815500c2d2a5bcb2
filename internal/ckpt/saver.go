package ckpt

import (
	"bytes"
	"fmt"
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

// Snapshot serializes position, variables and heap.
func (s *Saver) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	trace := s.PS.Snapshot()
	writeUvarint(&buf, uint64(len(trace)))
	for _, l := range trace {
		writeUvarint(&buf, uint64(l))
	}
	vds, err := s.VDS.Snapshot()
	if err != nil {
		return nil, err
	}
	writeBytes(&buf, vds)
	heap, err := s.Heap.Snapshot()
	if err != nil {
		return nil, err
	}
	writeBytes(&buf, heap)
	return buf.Bytes(), nil
}

// StartRestore loads a snapshot and arms the PS resume cursor and the VDS
// restore map; the heap is restored immediately (its handles must resolve
// before the application re-executes). blob is only read and must stay
// unmodified: the restore map holds views of it, and each value is copied
// out once, into the program's own memory, when its registration arrives.
func (s *Saver) StartRestore(blob []byte) error {
	// Restored live state shares no history with any previous freeze: the
	// retained regions are stale and must never be re-referenced.
	s.dropRetained()
	rd := &cursor{blob}
	n, err := readCount(rd, 1)
	if err != nil {
		return fmt.Errorf("ckpt: corrupt state snapshot: %w", err)
	}
	trace := make([]int, n)
	for i := range trace {
		l, err := readUvarint(rd)
		if err != nil {
			return fmt.Errorf("ckpt: corrupt state snapshot: %w", err)
		}
		trace[i] = int(l)
	}
	s.PS.StartResume(trace)
	vds, err := readBytes(rd)
	if err != nil {
		return fmt.Errorf("ckpt: corrupt state snapshot: %w", err)
	}
	if err := s.VDS.StartRestore(vds); err != nil {
		return err
	}
	heap, err := readBytes(rd)
	if err != nil {
		return fmt.Errorf("ckpt: corrupt state snapshot: %w", err)
	}
	return s.Heap.Restore(heap)
}

// StartRestoreView arms the restore StartRestore would arm from f.Snapshot(),
// straight from the frozen view: a survivor's rollback, which then moves each
// restored byte once. A page-granular value is copied page by page into its
// variable when the registration arrives; every other value goes through the
// codec, from the view's pre-encoded record or an encode of its owned copy
// (a []float64 or []byte that does not page is at most a page); heap blocks
// are cloned now.
// The restore map reads f's pages until the last registration: f must not go
// back to a pool before then (a disowned view's pages are the collector's).
func (s *Saver) StartRestoreView(f *Frozen) error {
	s.dropRetained()
	s.PS.StartResume(f.trace)
	restore := make(map[string]restoreRec, len(f.vds))
	for i := range f.vds {
		e := &f.vds[i]
		rec := restoreRec{kind: e.kind, data: e.enc, pages: e.pages, elems: e.elems}
		if e.ptr != nil {
			raw, err := Encode(e.ptr)
			if err != nil {
				return fmt.Errorf("ckpt: encode %q: %w", e.name, err)
			}
			rec.data = raw
		}
		restore[e.name] = rec
	}
	s.VDS.restore = restore
	s.Heap.install(f.heap)
	return nil
}
