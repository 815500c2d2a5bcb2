package ckpt

import (
	"errors"
	"fmt"

	"ccift/internal/cerr"
	"ccift/internal/mpi"
	"ccift/internal/storage"
	"ccift/internal/wire"
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

	// restore holds the parsed or retained records awaiting their
	// re-registration after a restart; replicas holds the primary's
	// replicated values, supplied by the recovery driver.
	restore  map[string]restoreRec
	replicas map[string][]byte
	// stored marks a restore map with a payload still in the store (see
	// settle).
	stored bool
	// scratch is what a value restored from a frozen view's owned copy is
	// encoded through on its way into the registered variable.
	scratch []byte
}

type vdsEntry struct {
	name      string
	ptr       any
	kind      entryKind
	recompute func() error
	// scalar marks a laid-out scalar type, which every freeze re-copies.
	scalar bool
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

// restoreRec is one saved value awaiting its registration. The first of
// val, pages and body that is set holds it, and data otherwise.
type restoreRec struct {
	kind entryKind
	// data is the value record, or a split record's lead.
	data []byte
	// val is a frozen view's owned copy of the value (Saver.StartRestoreView),
	// encoded at registration.
	val any
	// pages and elems are a frozen view's page-granular capture: copied into
	// the variable page by page, never decoded. elems also counts a split
	// record's elements.
	pages []frozenPage
	elems int
	// body is a parsed split record's payload, the entry's in the parsed
	// view (a pointer: the map holds its values inline).
	body *payload
}

// payload is a split record's words or bytes (see frozenEntry.measure), n
// of them, where a parsed state holds them: in memory — a view of a parsed
// blob, or what settle read — or on the run of obj's chunks from first on.
type payload struct {
	n     int
	f64   bool // words of a []float64, else a []byte's bytes
	raw   []byte
	obj   *storage.Object
	first int
}

// read fills dst, n bytes, with the payload: a copy, or the run of chunks
// read straight into dst and verified there.
func (b *payload) read(dst []byte) error {
	if b.obj == nil {
		copy(dst, b.raw)
		return nil
	}
	return b.obj.ReadInto(b.first, dst)
}

// into restores the record's value through ptr; scratch is the buffer an
// owned copy is encoded through.
func (rec restoreRec) into(ptr any, scratch *[]byte) error {
	switch {
	case rec.val != nil:
		*scratch = wire.Encode((*scratch)[:0], func(c *wire.Codec) { codeValue(c, rec.val) })
		return Decode(*scratch, ptr)
	case rec.pages != nil:
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
	case rec.body != nil:
		var err error
		switch p := ptr.(type) {
		case *[]float64:
			if rec.body.f64 {
				*p, err = fill(*p, rec.elems, rec.body)
				return err
			}
		case *[]byte:
			if !rec.body.f64 {
				*p, err = fill(*p, rec.elems, rec.body)
				return err
			}
		}
	default:
		return Decode(rec.data, ptr)
	}
	return fmt.Errorf("ckpt: decode %T: %w", ptr, errPagedType)
}

// errPagedType is a page-granular or split value restored into a variable
// of another type.
var errPagedType = errors.New("the checkpoint holds a []float64 or []byte value of another type")

// resize returns dst holding n elements: resized when its capacity holds
// them, reallocated when not. The program's array is what a restore fills
// (as Words decodes into it), never a page or a payload, which the view
// keeps for the next rollback.
func resize[T any](dst []T, n int) []T {
	if cap(dst) < n {
		dst = make([]T, n)
	}
	return dst[:n]
}

// copyPages fills dst, resized to n elements, with the pages in order.
func copyPages[T any](dst []T, n int, pages []frozenPage, page func(*frozenPage) []T) []T {
	dst = resize(dst, n)
	off := 0
	for i := range pages {
		off += copy(dst[off:], page(&pages[i]))
	}
	return dst
}

// fill reads a split record's payload into dst, resized to n elements: its
// wire form is the vector's own memory on a little-endian host, so the
// payload is copied, or its chunks read, straight into it (mpi.Fill). It
// returns once every byte is there and every chunk has passed its check.
func fill[T byte | float64](dst []T, n int, b *payload) ([]T, error) {
	dst = resize(dst, n)
	var err error
	mpi.Fill(dst, func(w []byte) { err = b.read(w) })
	return dst, err
}

// settle reads every payload no registration has taken yet out of the
// store, into memory of its own: a rank calls it before its first local
// checkpoint after the rollback, whose commit lets a prune delete the chunks
// the restore map points at.
func (v *VDS) settle() error {
	if !v.stored {
		return nil
	}
	for name, rec := range v.restore {
		if b := rec.body; b != nil && b.obj != nil {
			raw := make([]byte, b.n)
			if err := b.read(raw); err != nil {
				return fmt.Errorf("ckpt: restore %q: %w", name, err)
			}
			b.raw, b.obj = raw, nil
		}
	}
	v.stored = false
	return nil
}

// NewVDS returns an empty variable descriptor stack.
func NewVDS() *VDS {
	return &VDS{index: make(map[string]int)}
}

// Push registers a variable whose full value is saved with every
// checkpoint. ptr must be a pointer to a laid-out type (see laidOut); any
// other is refused, like a nil pointer. If a restart is in progress and a saved value exists under
// name, the value is immediately restored through ptr.
//
// Registering a name that is already live rebinds its pointer; this happens
// when an instrumented function is called again and re-registers its
// locals.
func (v *VDS) Push(name string, ptr any) error {
	scalar, err := admit("Push", name, ptr)
	if err != nil {
		return err
	}
	v.pushEntry(vdsEntry{name: name, ptr: ptr, kind: kindSaved, scalar: scalar})
	if v.restore != nil {
		if rec, ok := v.restore[name]; ok {
			if rec.kind != kindSaved {
				return fmt.Errorf("%w: ckpt: restore %q: checkpoint kind %d, registered as saved", cerr.ErrProgram, name, rec.kind)
			}
			if err := rec.into(ptr, &v.scratch); err != nil {
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
		return fmt.Errorf("%w: ckpt: VDS.Touch(%q): no live variable registered under that name", cerr.ErrProgram, name)
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
		return fmt.Errorf("%w: ckpt: VDS.TouchRange(%q): no live variable registered under that name", cerr.ErrProgram, name)
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
		return fmt.Errorf("%w: ckpt: VDS.PopExpect(%q) on empty stack", cerr.ErrProgram, name)
	}
	if top := v.entries[len(v.entries)-1].name; top != name {
		return fmt.Errorf("%w: ckpt: VDS.PopExpect(%q): stack top is %q — mismatched register/unregister pairing", cerr.ErrProgram, name, top)
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
