package ckpt_test

// Differential property suite for dirty-region checkpointing: seeded
// random sequences of register / mutate / resize / unregister / heap ops
// interleaved with checkpoints drive two Savers that share every live
// pointer — one freezing incrementally under the Touch contract, one
// freezing fully — and every checkpoint asserts the incremental
// Frozen.WriteTo stream is byte-identical to the full freeze's AND that
// the chunked-store manifests match. The incremental stream is serialized
// on a background goroutine while the driver keeps mutating live state,
// exactly like the protocol's flusher, so the race job also proves the
// frozen view's isolation. Failures print the seed; CCIFT_TEST_SEED
// replays one sequence.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ccift/internal/ckpt"
	"ccift/internal/storage"
	"ccift/internal/testseed"
)

const diffChunkSize = 512 // small chunks: every epoch spans many

// liveVar is one registered variable, shared by pointer between both
// Savers. mutable is false for computed entries (read-only by contract).
type liveVar struct {
	name    string
	ptr     any
	mutable bool
}

// teeSection records the bytes flowing into a chunked writer so one
// WriteTo pass yields both the stream and the manifest.
type teeSection struct {
	w   *storage.ChunkedWriter
	buf bytes.Buffer
}

func (t *teeSection) Write(p []byte) (int, error) { t.buf.Write(p); return t.w.Write(p) }
func (t *teeSection) Cut() error                  { return t.w.Cut() }

type pendingWrite struct {
	epoch int
	want  []byte // the full freeze's bytes, captured synchronously
	done  chan error
	got   *teeSection
}

type diffDriver struct {
	t         *testing.T
	seed      int64
	rng       *rand.Rand
	inc, full *ckpt.Saver
	vars      []liveVar // VDS push order (pops are LIFO)
	heapIDs   []int
	nextName  int
	epoch     int
	psDepth   int
	storeInc  storage.Stable
	storeFull storage.Stable
	pending   *pendingWrite
}

func (d *diffDriver) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("seed %d: %s (replay with %s=%d)", d.seed, fmt.Sprintf(format, args...), testseed.Env, d.seed)
}

func (d *diffDriver) newSlice(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.rng.NormFloat64()
	}
	return xs
}

// sliceLen picks a value length: usually small, sometimes past the
// serializer's cut-over so large-value chunk isolation is exercised, and
// sometimes past the page-split threshold so the page-granular freeze
// path (including exact page-boundary geometries) is exercised.
func (d *diffDriver) sliceLen() int {
	switch d.rng.Intn(12) {
	case 0:
		return 600 + d.rng.Intn(700) // 4.8KB-10.4KB of floats: > cutover
	case 1:
		return 8192 + 1 + d.rng.Intn(20000) // paged: 2-4 pages of floats
	case 2:
		return 8192 * (1 + d.rng.Intn(3)) // exactly on a page boundary
	default:
		return d.rng.Intn(200)
	}
}

func (d *diffDriver) register() {
	name := fmt.Sprintf("v%d", d.nextName)
	d.nextName++
	v := liveVar{name: name, mutable: true}
	push := func(ptr any) {
		if err := d.inc.VDS.Push(name, ptr); err != nil {
			d.fatalf("inc push: %v", err)
		}
		if err := d.full.VDS.Push(name, ptr); err != nil {
			d.fatalf("full push: %v", err)
		}
	}
	switch d.rng.Intn(10) {
	case 0:
		p := new(int)
		*p = d.rng.Int()
		v.ptr = p
		push(p)
	case 1:
		p := new(float64)
		*p = d.rng.NormFloat64()
		v.ptr = p
		push(p)
	case 2:
		p := new(string)
		*p = fmt.Sprintf("s-%d", d.rng.Int63())
		v.ptr = p
		push(p)
	case 3:
		b := make([]byte, d.sliceLen()*8)
		d.rng.Read(b)
		v.ptr = &b
		push(&b)
	case 4:
		xs := make([]int, d.rng.Intn(50))
		for i := range xs {
			xs[i] = d.rng.Int()
		}
		v.ptr = &xs
		push(&xs)
	case 5:
		m := make([][]float64, d.rng.Intn(6))
		for i := range m {
			m[i] = d.newSlice(d.rng.Intn(40))
		}
		v.ptr = &m
		push(&m)
	case 6:
		xs := make([]int64, d.rng.Intn(20))
		for i := range xs {
			xs[i] = d.rng.Int63()
		}
		v.ptr = &xs
		push(&xs)
	case 7:
		xs := d.newSlice(d.sliceLen())
		v.ptr = &xs
		v.mutable = false // computed entries are read-only by contract
		rec := func() error { return nil }
		if err := d.inc.VDS.PushComputed(name, &xs, rec); err != nil {
			d.fatalf("inc push computed: %v", err)
		}
		if err := d.full.VDS.PushComputed(name, &xs, rec); err != nil {
			d.fatalf("full push computed: %v", err)
		}
	default:
		xs := d.newSlice(d.sliceLen())
		v.ptr = &xs
		push(&xs)
	}
	d.vars = append(d.vars, v)
}

// touch records write intent on the incremental saver only — the point of
// the suite is that this alone keeps the two streams identical.
func (d *diffDriver) touch(name string) {
	if err := d.inc.VDS.Touch(name); err != nil {
		d.fatalf("touch %q: %v", name, err)
	}
}

// touchRange records ranged write intent on the incremental saver only;
// for paged values this is the page-granular contract under test.
func (d *diffDriver) touchRange(name string, off, n int) {
	if err := d.inc.VDS.TouchRange(name, off, n); err != nil {
		d.fatalf("touch range %q [%d,+%d): %v", name, off, n, err)
	}
}

// rangeWriteF64 mutates a contiguous element range of xs and records it
// with TouchRange. Span shapes deliberately include page-boundary
// straddles and sub-page slivers.
func (d *diffDriver) rangeWriteF64(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	var off, n int
	switch d.rng.Intn(4) {
	case 0: // sub-page sliver anywhere
		off = d.rng.Intn(len(xs))
		n = 1 + d.rng.Intn(32)
	case 1: // straddle a page boundary when one exists
		if len(xs) > 8192 {
			b := 8192 * (1 + d.rng.Intn(len(xs)/8192))
			off = b - 8 - d.rng.Intn(16)
			n = 16 + d.rng.Intn(32)
		} else {
			off, n = 0, len(xs)
		}
	case 2: // exactly the tail page (possibly short)
		off = (len(xs) / 8192) * 8192
		n = len(xs) - off
		if n == 0 {
			off, n = 0, len(xs)
		}
	default: // a broad span over several pages
		off = d.rng.Intn(len(xs))
		n = 1 + d.rng.Intn(len(xs)-off)
	}
	lo, hi := off, off+n
	if lo < 0 {
		lo = 0
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	for k := lo; k < hi; k++ {
		xs[k] = d.rng.NormFloat64()
	}
	d.touchRange(name, off, n)
}

func (d *diffDriver) mutate() {
	if len(d.vars) == 0 {
		return
	}
	v := d.vars[d.rng.Intn(len(d.vars))]
	if !v.mutable {
		return
	}
	switch p := v.ptr.(type) {
	case *int:
		*p += d.rng.Intn(100) // scalar: no Touch required
	case *float64:
		*p *= 1.0001
	case *string:
		*p = fmt.Sprintf("s-%d", d.rng.Int63())
	case *[]byte:
		if len(*p) > (64<<10) && d.rng.Intn(2) == 0 {
			// Paged bytes: ranged write intent on a byte range.
			off := d.rng.Intn(len(*p))
			n := 1 + d.rng.Intn(len(*p)-off)
			for k := off; k < off+n; k++ {
				(*p)[k] ^= 0xA5
			}
			d.touchRange(v.name, off, n)
			return
		}
		if len(*p) > 0 && d.rng.Intn(3) > 0 {
			(*p)[d.rng.Intn(len(*p))] ^= 0xA5
		} else if d.rng.Intn(2) == 0 {
			*p = append(*p, byte(d.rng.Intn(256)))
		} else if len(*p) > 0 {
			*p = (*p)[:len(*p)-1] // shrink: a resize the size formulas must track
		}
		d.touch(v.name)
	case *[]int:
		if len(*p) > 0 && d.rng.Intn(2) == 0 {
			(*p)[d.rng.Intn(len(*p))] = d.rng.Int()
		} else {
			*p = append(*p, d.rng.Int())
		}
		d.touch(v.name)
	case *[][]float64:
		if len(*p) > 0 && d.rng.Intn(2) == 0 {
			row := (*p)[d.rng.Intn(len(*p))]
			if len(row) > 0 {
				row[d.rng.Intn(len(row))] = d.rng.NormFloat64()
			}
		} else {
			*p = append(*p, d.newSlice(d.rng.Intn(30)))
		}
		d.touch(v.name)
	case *[]int64:
		if len(*p) > 0 && d.rng.Intn(2) == 0 {
			(*p)[d.rng.Intn(len(*p))]++
		} else {
			*p = append(*p, d.rng.Int63())
		}
		d.touch(v.name)
	case *[]float64:
		switch d.rng.Intn(6) {
		case 0:
			*p = append(*p, d.rng.NormFloat64())
			d.touch(v.name) // resize: page record must be rebuilt
		case 1:
			if len(*p) > 0 {
				*p = (*p)[:len(*p)-1]
			}
			d.touch(v.name)
		case 2:
			// Whole-buffer swap, as apps do; sliceLen may carry the value
			// across the paging threshold in either direction.
			*p = d.newSlice(d.sliceLen())
			d.touch(v.name)
		case 3, 4:
			// Ranged write intent — on sub-threshold values TouchRange
			// degrades to Touch, so this also covers the degradation path.
			d.rangeWriteF64(v.name, *p)
		default:
			if len(*p) > 0 {
				(*p)[d.rng.Intn(len(*p))] = d.rng.NormFloat64()
			}
			d.touch(v.name)
		}
	}
}

func (d *diffDriver) unregister() {
	if len(d.vars) <= 1 {
		return
	}
	d.inc.VDS.Pop()
	d.full.VDS.Pop()
	d.vars = d.vars[:len(d.vars)-1]
}

// rebind re-registers a live name with a fresh value, the implicit-dirty
// path (a function re-entering and re-registering its locals).
func (d *diffDriver) rebind() {
	if len(d.vars) == 0 {
		return
	}
	i := d.rng.Intn(len(d.vars))
	v := &d.vars[i]
	if !v.mutable {
		return
	}
	if _, ok := v.ptr.(*[]float64); !ok {
		return
	}
	xs := d.newSlice(d.sliceLen())
	v.ptr = &xs
	if err := d.inc.VDS.Push(v.name, &xs); err != nil {
		d.fatalf("inc rebind: %v", err)
	}
	if err := d.full.VDS.Push(v.name, &xs); err != nil {
		d.fatalf("full rebind: %v", err)
	}
}

func (d *diffDriver) heapAlloc() {
	n := d.rng.Intn(300)
	if d.rng.Intn(8) == 0 {
		n = 4096 + d.rng.Intn(4096) // past the cut-over
	}
	bi := d.inc.Heap.Alloc(n)
	bf := d.full.Heap.Alloc(n)
	if bi.ID != bf.ID {
		d.fatalf("heap ids diverged: %d vs %d", bi.ID, bf.ID)
	}
	d.rng.Read(bi.Data)
	copy(bf.Data, bi.Data)
	d.heapIDs = append(d.heapIDs, bi.ID)
}

func (d *diffDriver) heapWrite() {
	if len(d.heapIDs) == 0 {
		return
	}
	id := d.heapIDs[d.rng.Intn(len(d.heapIDs))]
	bi, bf := d.inc.Heap.Lookup(id), d.full.Heap.Lookup(id)
	if len(bi.Data) > 0 {
		j := d.rng.Intn(len(bi.Data))
		bi.Data[j] ^= 0x5A
		bf.Data[j] ^= 0x5A
	}
	d.inc.Heap.Touch(id) // incremental side only: the contract under test
}

func (d *diffDriver) heapRealloc() {
	if len(d.heapIDs) == 0 {
		return
	}
	id := d.heapIDs[d.rng.Intn(len(d.heapIDs))]
	n := d.rng.Intn(500)
	d.inc.Heap.Realloc(id, n)
	d.full.Heap.Realloc(id, n)
}

func (d *diffDriver) heapFree() {
	if len(d.heapIDs) == 0 {
		return
	}
	i := d.rng.Intn(len(d.heapIDs))
	id := d.heapIDs[i]
	d.inc.Heap.Free(id)
	d.full.Heap.Free(id)
	d.heapIDs = append(d.heapIDs[:i], d.heapIDs[i+1:]...)
}

func (d *diffDriver) psOp() {
	if d.psDepth > 0 && d.rng.Intn(2) == 0 {
		d.inc.PS.Pop()
		d.full.PS.Pop()
		d.psDepth--
		return
	}
	l := d.rng.Intn(64)
	d.inc.PS.Push(l)
	d.full.PS.Push(l)
	d.psDepth++
}

// checkpoint freezes both savers at the same instant, captures the full
// freeze's bytes synchronously (ground truth), then serializes the
// incremental view on a background goroutine — the protocol's flusher —
// while the caller keeps mutating. join() verifies bytes and manifests.
func (d *diffDriver) checkpoint() {
	d.join()
	d.epoch++
	key := fmt.Sprintf("state-%d", d.epoch)

	ff, err := d.full.Freeze()
	if err != nil {
		d.fatalf("full freeze: %v", err)
	}
	fullTee := &teeSection{w: storage.NewChunkedWriter(nil, d.storeFull, key, diffChunkSize)}
	if err := ff.WriteTo(fullTee); err != nil {
		d.fatalf("full WriteTo: %v", err)
	}
	if _, _, err := fullTee.w.Commit(); err != nil {
		d.fatalf("full commit: %v", err)
	}
	ff.Release()

	fi, err := d.inc.Freeze()
	if err != nil {
		d.fatalf("incremental freeze: %v", err)
	}
	d.checkRestore(fi)
	p := &pendingWrite{
		epoch: d.epoch,
		want:  append([]byte(nil), fullTee.buf.Bytes()...),
		done:  make(chan error, 1),
		got:   &teeSection{w: storage.NewChunkedWriter(nil, d.storeInc, key, diffChunkSize)},
	}
	go func() {
		// The flusher's life: serialize the frozen view, commit, release —
		// while the driver goroutine mutates live state underneath.
		defer fi.Release()
		if err := fi.WriteTo(p.got); err != nil {
			p.done <- err
			return
		}
		_, _, err := p.got.w.Commit()
		p.done <- err
	}()
	d.pending = p
}

func (d *diffDriver) join() {
	p := d.pending
	if p == nil {
		return
	}
	d.pending = nil
	if err := <-p.done; err != nil {
		d.fatalf("epoch %d: incremental write: %v", p.epoch, err)
	}
	if !bytes.Equal(p.got.buf.Bytes(), p.want) {
		d.fatalf("epoch %d: incremental WriteTo produced %d bytes != full freeze's %d — streams diverged",
			p.epoch, p.got.buf.Len(), len(p.want))
	}
	key := fmt.Sprintf("state-%d", p.epoch)
	mi, err := d.storeInc.Get(key)
	if err != nil {
		d.fatalf("epoch %d: read incremental manifest: %v", p.epoch, err)
	}
	mf, err := d.storeFull.Get(key)
	if err != nil {
		d.fatalf("epoch %d: read full manifest: %v", p.epoch, err)
	}
	if !bytes.Equal(mi, mf) {
		d.fatalf("epoch %d: chunk manifests differ (%d vs %d bytes)", p.epoch, len(mi), len(mf))
	}
}

// checkRestore rolls back from one checkpoint both ways — a survivor's,
// straight from the view, and a replacement's, from its serialization —
// into fresh Savers that register every live variable anew, and requires
// the same values, heap blocks and resume trace of both. Then it scribbles
// over everything the view restored and requires the view to serialize to
// the same bytes as before.
func (d *diffDriver) checkRestore(f *ckpt.Frozen) {
	d.t.Helper()
	blob, err := f.Snapshot()
	if err != nil {
		d.fatalf("epoch %d: snapshot: %v", d.epoch, err)
	}
	fromView, fromBlob := ckpt.NewSaver(), ckpt.NewSaver()
	fromView.StartRestoreView(f)
	if err := fromBlob.StartRestore(blob); err != nil {
		d.fatalf("epoch %d: restore from the blob: %v", d.epoch, err)
	}
	restored := func(s *ckpt.Saver) (vals []any, heap [][]byte, trace []int) {
		for _, v := range d.vars {
			p := reflect.New(reflect.TypeOf(v.ptr).Elem())
			var err error
			if !v.mutable {
				live := reflect.ValueOf(v.ptr).Elem()
				err = s.VDS.PushComputed(v.name, p.Interface(), func() error { p.Elem().Set(live); return nil })
			} else {
				err = s.VDS.Push(v.name, p.Interface())
			}
			if err != nil {
				d.fatalf("epoch %d: restore %q: %v", d.epoch, v.name, err)
			}
			vals = append(vals, p.Interface())
		}
		if n := ckpt.PendingRestores(s.VDS); n != 0 {
			d.fatalf("epoch %d: %d values never restored", d.epoch, n)
		}
		for _, id := range d.heapIDs {
			heap = append(heap, s.Heap.Lookup(id).Data)
			if !bytes.Equal(heap[len(heap)-1], d.inc.Heap.Lookup(id).Data) {
				d.fatalf("epoch %d: heap block %d restored wrong", d.epoch, id)
			}
		}
		for s.PS.Resuming() {
			trace = append(trace, s.PS.Resume())
		}
		return vals, heap, trace
	}
	vals, heap, trace := restored(fromView)
	wantVals, _, wantTrace := restored(fromBlob)
	if !reflect.DeepEqual(vals, wantVals) || !reflect.DeepEqual(trace, wantTrace) || fromView.Heap.Live() != fromBlob.Heap.Live() {
		d.fatalf("epoch %d: the restore from the view differs from the restore from its serialization", d.epoch)
	}
	for i, v := range vals {
		if d.vars[i].mutable {
			scribble(v)
		}
	}
	for _, b := range heap {
		for i := range b {
			b[i] = 0xEE
		}
	}
	if again, err := f.Snapshot(); err != nil || !bytes.Equal(again, blob) {
		d.fatalf("epoch %d: overwriting what was restored from the view changed the view (%v)", d.epoch, err)
	}
}

// scribble overwrites every element a restored value holds.
func scribble(ptr any) {
	switch p := ptr.(type) {
	case *int:
		*p = -1
	case *float64:
		*p = -1
	case *string:
		*p = "scribbled"
	case *[]byte:
		for i := range *p {
			(*p)[i] = 0xEE
		}
	case *[]int:
		for i := range *p {
			(*p)[i] = -1
		}
	case *[]float64:
		for i := range *p {
			(*p)[i] = -1
		}
	case *[][]float64:
		for _, row := range *p {
			scribble(&row)
		}
	case *[]int64:
		for i := range *p {
			(*p)[i] = -1
		}
	}
}

func runDifferentialSequence(t *testing.T, seed int64) {
	d := &diffDriver{
		t:         t,
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
		inc:       ckpt.NewSaver(),
		full:      ckpt.NewSaver(),
		storeInc:  storage.NewMemory(),
		storeFull: storage.NewMemory(),
	}
	d.inc.Incremental = true

	// Seed a little state so the first checkpoint is never trivial.
	d.register()
	d.heapAlloc()

	ops := 16 + d.rng.Intn(24)
	for i := 0; i < ops; i++ {
		switch d.rng.Intn(12) {
		case 0:
			d.register()
		case 1, 2, 3:
			d.mutate()
		case 4:
			d.unregister()
		case 5:
			d.rebind()
		case 6:
			d.heapAlloc()
		case 7:
			d.heapWrite()
		case 8:
			d.heapRealloc()
		case 9:
			d.heapFree()
		case 10:
			d.psOp()
		default:
			d.checkpoint()
		}
	}
	d.checkpoint() // every sequence ends with at least one epoch...
	d.checkpoint() // ...and one epoch that can share the previous one
	d.join()
}

// TestIncrementalDifferential is the acceptance suite: >= 1000 seeded
// sequences, each asserting byte-identical WriteTo output and matching
// chunk manifests between incremental and full freezes. -short runs a
// reduced sample (the CI race job's ./... pass); the dedicated CI step
// runs the full depth.
func TestIncrementalDifferential(t *testing.T) {
	sequences := 1000
	if testing.Short() {
		sequences = 200
	}
	base := testseed.Base(t, 0x5EED_C31F)
	if testseed.Replaying() {
		runDifferentialSequence(t, base)
		return
	}
	for i := 0; i < sequences; i++ {
		runDifferentialSequence(t, base+int64(i))
	}
}
