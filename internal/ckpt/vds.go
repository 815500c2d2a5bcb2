package ckpt

import (
	"bytes"
	"errors"
	"fmt"
)

// VDS is the Variable Descriptor Stack (paper Figure 7). Instrumented code
// pushes a descriptor for each variable as it enters scope and pops it as
// it leaves; at checkpoint time the VDS tells the runtime which memory to
// copy into the checkpoint, and on restart which memory to copy back.
//
// In C the descriptor is (address, size). In Go the descriptor is
// (name, typed pointer); values are encoded with the codec in this package.
// Names give positional independence: a restart re-registers the same
// variables (the instrumented code re-executes the registrations) and each
// registration immediately restores the saved value through the new
// pointer.
//
// Beyond the paper's always-save-everything baseline, descriptors carry a
// kind implementing the Section 7 state-exclusion optimizations: see
// PushComputed and PushReplicated in exclude.go.
type VDS struct {
	entries []vdsEntry
	index   map[string]int

	// Primary marks the rank whose checkpoints carry replicated values
	// (rank 0 by convention; set by the protocol layer).
	Primary bool

	// muts is the monotone write clock behind dirty-region tracking: every
	// Push and Touch stamps the affected entry with the next tick, so an
	// incremental Freeze can tell "unchanged since the last capture" by
	// comparing stamps (see freeze.go).
	muts uint64

	// restore holds decoded records awaiting their re-registration after a
	// restart; replicas holds the primary's replicated values, supplied by
	// the recovery driver.
	restore  map[string]restoreRec
	replicas map[string][]byte
}

type vdsEntry struct {
	name      string
	ptr       any
	kind      entryKind
	recompute func() error
	// gen is the write clock's value at the entry's last registration or
	// Touch; an incremental Freeze treats a matching gen as "clean".
	gen uint64
	// pages, when non-nil, is a per-page write clock inside a large
	// pageable value (*[]float64 / *[]byte split into pageBytes pages):
	// TouchRange stamps only the covered pages, so an incremental Freeze
	// re-copies those pages and re-references the rest from the previous
	// epoch. nil means no sub-entry information — every page is as dirty
	// as gen. pagedLen is the element count the vector was built for; a
	// length change invalidates it (TouchRange rebuilds).
	pages    []uint64
	pagedLen int
}

// Page granularity of sub-entry dirty tracking. Values whose payload
// exceeds pageSplitBytes are frozen as fixed pageBytes pages, each with
// its own write-clock stamp, so touching one corner of a 16MB grid
// re-copies 64KB instead of 16MB. Both sizes are in bytes of payload
// (8 bytes per float64 element).
const (
	pageBytes      = 64 << 10
	pageSplitBytes = 64 << 10
)

// pageGeometry reports whether a live entry's value is captured paged,
// and if so its element count, elements per page, and whether elements
// are float64s (true) or bytes (false).
func pageGeometry(kind entryKind, primary bool, ptr any) (paged bool, elems, perPage int, isF64 bool) {
	if kind == kindComputed || (kind == kindReplicated && !primary) {
		return false, 0, 0, false
	}
	switch p := ptr.(type) {
	case *[]float64:
		if 8*len(*p) > pageSplitBytes {
			return true, len(*p), pageBytes / 8, true
		}
	case *[]byte:
		if len(*p) > pageSplitBytes {
			return true, len(*p), pageBytes, false
		}
	}
	return false, 0, 0, false
}

// pageGens returns the per-page write-clock stamps for an entry frozen as
// numPages pages: the tracked vector when its geometry is current, or every
// page at the entry's own gen when there is no (valid) sub-entry record —
// Touch, registration and resize all wipe page information, which is the
// conservative direction (a page can only be treated as MORE dirty).
func (e *vdsEntry) pageGens(elems, numPages int) []uint64 {
	if e.pages != nil && e.pagedLen == elems && len(e.pages) == numPages {
		return e.pages
	}
	gens := make([]uint64, numPages)
	for i := range gens {
		gens[i] = e.gen
	}
	return gens
}

type restoreRec struct {
	kind entryKind
	data []byte
	// pages and elems are a frozen view's page-granular capture
	// (Saver.StartRestoreView): copied into the variable page by page,
	// never decoded.
	pages []frozenPage
	elems int
}

// into restores the record's value through ptr.
func (rec restoreRec) into(ptr any) error {
	if rec.pages == nil {
		return Decode(rec.data, ptr)
	}
	switch p := ptr.(type) {
	case *[]float64:
		if rec.pages[0].f64 != nil {
			*p = copyPages(*p, rec.elems, rec.pages, func(pg *frozenPage) []float64 { return pg.f64 })
			return nil
		}
	case *[]byte:
		if rec.pages[0].byt != nil {
			*p = copyPages(*p, rec.elems, rec.pages, func(pg *frozenPage) []byte { return pg.byt })
			return nil
		}
	}
	return fmt.Errorf("ckpt: decode %T: %w", ptr, errPagedType)
}

// errPagedType is a page-granular value restored into a variable of another
// type.
var errPagedType = errors.New("the checkpoint holds a paged value of another type")

// copyPages fills dst — resized when its capacity holds n elements,
// reallocated when not, never pointed at a page, which the view keeps for
// the next rollback — with the pages in order.
func copyPages[T any](dst []T, n int, pages []frozenPage, page func(*frozenPage) []T) []T {
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	off := 0
	for i := range pages {
		off += copy(dst[off:], page(&pages[i]))
	}
	return dst
}

// NewVDS returns an empty variable descriptor stack.
func NewVDS() *VDS {
	return &VDS{index: make(map[string]int)}
}

// Push registers a variable whose full value is saved with every
// checkpoint. ptr must be a pointer to a codec-supported value (see
// Encode). If a restart is in progress and a saved value exists under
// name, the value is immediately restored through ptr.
//
// Registering a name that is already live rebinds its pointer; this happens
// when an instrumented function is called again and re-registers its
// locals.
func (v *VDS) Push(name string, ptr any) error {
	if ptr == nil {
		return fmt.Errorf("ckpt: VDS.Push(%q): nil pointer", name)
	}
	v.pushEntry(vdsEntry{name: name, ptr: ptr, kind: kindSaved})
	if v.restore != nil {
		if rec, ok := v.restore[name]; ok {
			if rec.kind != kindSaved {
				return fmt.Errorf("ckpt: restore %q: checkpoint kind %d, registered as saved", name, rec.kind)
			}
			if err := rec.into(ptr); err != nil {
				return fmt.Errorf("ckpt: restore %q: %w", name, err)
			}
			delete(v.restore, name)
		}
	}
	return nil
}

func (v *VDS) pushEntry(e vdsEntry) {
	// Registration (and rebinding) implicitly dirties: the pointer is new,
	// so the previous epoch's frozen copy cannot be trusted for it.
	v.muts++
	e.gen = v.muts
	if i, ok := v.index[e.name]; ok {
		v.entries[i] = e
		return
	}
	v.index[e.name] = len(v.entries)
	v.entries = append(v.entries, e)
}

// Touch records write intent on a live variable: the next incremental
// Freeze re-copies its value instead of re-referencing the previous
// epoch's frozen copy. Under incremental freeze (Saver.Incremental) every
// mutation of a registered non-scalar value — slice writes, reslicing,
// struct field updates — must be followed by a Touch before the next
// checkpoint; scalar values (int, float64, bool, string, ...) are always
// re-copied and never need it. Touching an unregistered name is an error,
// because a typo here would otherwise surface as silently stale state in a
// recovered run.
func (v *VDS) Touch(name string) error {
	i, ok := v.index[name]
	if !ok {
		return fmt.Errorf("ckpt: VDS.Touch(%q): no live variable registered under that name", name)
	}
	v.muts++
	e := &v.entries[i]
	e.gen = v.muts
	// Whole-entry write intent supersedes any per-page record: every page
	// is now as dirty as gen, which is what a nil vector means.
	e.pages, e.pagedLen = nil, 0
	return nil
}

// TouchRange records write intent on elements [off, off+n) of a large
// registered slice: the next incremental Freeze re-copies only the pages
// (pageBytes of payload each) the range covers and re-references the rest
// from the previous epoch's frozen copy. Units are elements — float64s
// for a *[]float64 registration, bytes for *[]byte. For any other type,
// for values at or below the paging threshold, and for a range that does
// not intersect the value, TouchRange degrades to a full Touch, so
// calling it is never less safe than Touch. Resizing the value (or
// re-registering it) drops the page record; touch the affected range
// again after the resize.
func (v *VDS) TouchRange(name string, off, n int) error {
	i, ok := v.index[name]
	if !ok {
		return fmt.Errorf("ckpt: VDS.TouchRange(%q): no live variable registered under that name", name)
	}
	e := &v.entries[i]
	paged, elems, perPage, _ := pageGeometry(e.kind, true, e.ptr)
	lo, hi := off, off+n
	if lo < 0 {
		lo = 0
	}
	if hi > elems {
		hi = elems
	}
	if !paged || lo >= hi {
		return v.Touch(name)
	}
	numPages := (elems + perPage - 1) / perPage
	if e.pages == nil || e.pagedLen != elems || len(e.pages) != numPages {
		// (Re)build the page vector with every page at the entry's current
		// gen: exactly as dirty as the entry-level clock says, no cleaner.
		gens := make([]uint64, numPages)
		for j := range gens {
			gens[j] = e.gen
		}
		e.pages, e.pagedLen = gens, elems
	}
	v.muts++
	// The entry-level gen advances too: an incremental Freeze first
	// compares entry gens, and a stale match there would skip the dirty
	// pages entirely.
	e.gen = v.muts
	for p := lo / perPage; p <= (hi-1)/perPage; p++ {
		e.pages[p] = v.muts
	}
	return nil
}

// Pop removes the most recently pushed live variable (scope exit).
func (v *VDS) Pop() {
	if len(v.entries) == 0 {
		panic("ckpt: VDS.Pop on empty stack")
	}
	last := v.entries[len(v.entries)-1]
	delete(v.index, last.name)
	v.entries = v.entries[:len(v.entries)-1]
}

// PopExpect removes the top live variable after verifying it is the one
// registered under name. A mismatch means a push/pop imbalance — typically
// a scope that unregisters without having registered — and is reported
// with both names so the faulty call site is identifiable.
func (v *VDS) PopExpect(name string) error {
	if len(v.entries) == 0 {
		return fmt.Errorf("ckpt: VDS.PopExpect(%q) on empty stack", name)
	}
	if top := v.entries[len(v.entries)-1].name; top != name {
		return fmt.Errorf("ckpt: VDS.PopExpect(%q): stack top is %q — mismatched register/unregister pairing", name, top)
	}
	v.Pop()
	return nil
}

// Live reports whether a variable is currently registered under name.
func (v *VDS) Live(name string) bool {
	_, ok := v.index[name]
	return ok
}

// Len reports the number of live descriptors.
func (v *VDS) Len() int { return len(v.entries) }

// Snapshot encodes every live variable into a checkpoint section: full
// values for saved entries (and replicated ones on the primary),
// fingerprints for computed entries, markers for replicated entries
// elsewhere.
func (v *VDS) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	writeUvarint(&buf, uint64(len(v.entries)))
	for _, e := range v.entries {
		writeString(&buf, e.name)
		buf.WriteByte(byte(e.kind))
		switch e.kind {
		case kindSaved:
			raw, err := Encode(e.ptr)
			if err != nil {
				return nil, fmt.Errorf("ckpt: encode %q: %w", e.name, err)
			}
			writeBytes(&buf, raw)
		case kindComputed:
			sum, err := fingerprint(e.ptr)
			if err != nil {
				return nil, fmt.Errorf("ckpt: fingerprint %q: %w", e.name, err)
			}
			writeBytes(&buf, sum)
		case kindReplicated:
			if v.Primary {
				raw, err := Encode(e.ptr)
				if err != nil {
					return nil, fmt.Errorf("ckpt: encode %q: %w", e.name, err)
				}
				writeBytes(&buf, raw)
			} else {
				writeBytes(&buf, nil)
			}
		default:
			return nil, fmt.Errorf("ckpt: entry %q has invalid kind %d", e.name, e.kind)
		}
	}
	return buf.Bytes(), nil
}

// parseVDSSnapshot decodes the section produced by Snapshot. Each entry's
// data is a view of snapshot, not a copy.
func parseVDSSnapshot(snapshot []byte) ([]restoreEntry, error) {
	rd := &cursor{snapshot}
	n, err := readCount(rd, 3) // name length, kind, data length
	if err != nil {
		return nil, fmt.Errorf("ckpt: corrupt VDS snapshot: %w", err)
	}
	out := make([]restoreEntry, 0, n)
	for i := 0; i < n; i++ {
		name, err := readString(rd)
		if err != nil {
			return nil, fmt.Errorf("ckpt: corrupt VDS snapshot: %w", err)
		}
		kind, err := rd.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("ckpt: corrupt VDS snapshot: %w", err)
		}
		data, err := readBytes(rd)
		if err != nil {
			return nil, fmt.Errorf("ckpt: corrupt VDS snapshot: %w", err)
		}
		out = append(out, restoreEntry{name: name, kind: entryKind(kind), data: data})
	}
	return out, nil
}

type restoreEntry struct {
	name string
	kind entryKind
	data []byte
}

// StartRestore loads a snapshot produced by Snapshot and arms restoration:
// subsequent Push/PushComputed/PushReplicated calls restore their
// variable's saved value, recompute it, or fetch the distributed replica.
func (v *VDS) StartRestore(snapshot []byte) error {
	entries, err := parseVDSSnapshot(snapshot)
	if err != nil {
		return err
	}
	v.restore = make(map[string]restoreRec, len(entries))
	for _, e := range entries {
		v.restore[e.name] = restoreRec{kind: e.kind, data: e.data}
	}
	return nil
}
