package ckpt

import (
	"bytes"
	"fmt"
)

// Heap is the checkpointer's own heap management system (Section 5.1.3).
// C3 replaces malloc so that it can (a) enumerate live heap objects through
// the Heap Object Structure (HOS) at checkpoint time and (b) recreate every
// object at its original virtual address on restart, which keeps data
// pointers valid without translation.
//
// Go's garbage-collected heap cannot pin virtual addresses, so the Go
// analogue of "same virtual address" is "same object identity": Alloc
// returns a stable integer handle, Lookup(handle) returns the same block
// before a checkpoint and after a restart, and instrumented code stores
// handles (which the VDS checkpoints as ordinary integers) instead of raw
// pointers. A valid handle in the original process designates the same
// bytes in the recovered one — the property Section 5.1.4 needs.
type Heap struct {
	blocks map[int]*Block
	nextID int
	// live bytes, maintained incrementally for state-size accounting.
	liveBytes int
	// muts is the monotone write clock behind dirty-region tracking:
	// Alloc, Realloc, a restore and Touch stamp the affected block, so an
	// incremental Freeze can tell "unchanged since the last capture" by
	// comparing stamps (see freeze.go).
	muts uint64
}

// Block is one live heap object tracked by the HOS.
type Block struct {
	ID   int
	Data []byte
	// gen is the heap write clock's value at the block's last allocation,
	// resize or Touch; an incremental Freeze treats a matching gen as
	// "clean".
	gen uint64
}

// NewHeap returns an empty checkpointable heap.
func NewHeap() *Heap {
	return &Heap{blocks: make(map[int]*Block), nextID: 1}
}

// Alloc allocates a block of n zero bytes and registers it in the HOS.
func (h *Heap) Alloc(n int) *Block {
	h.muts++
	b := &Block{ID: h.nextID, Data: make([]byte, n), gen: h.muts}
	h.nextID++
	h.blocks[b.ID] = b
	h.liveBytes += n
	return b
}

// Touch records write intent on a live block: the next incremental Freeze
// re-copies its bytes instead of re-referencing the previous epoch's
// frozen copy. Under incremental freeze every write into Block.Data must
// be followed by a Touch before the next checkpoint (Alloc and Realloc
// dirty implicitly). Touching an unknown handle panics, as it is a program
// bug that would otherwise surface as silently stale recovered state.
func (h *Heap) Touch(id int) {
	b, ok := h.blocks[id]
	if !ok {
		panic(fmt.Sprintf("ckpt: Heap.Touch(%d): no such block", id))
	}
	h.muts++
	b.gen = h.muts
}

// Free removes a block from the HOS. Freeing an unknown handle panics, as
// double-free is a program bug.
func (h *Heap) Free(id int) {
	b, ok := h.blocks[id]
	if !ok {
		panic(fmt.Sprintf("ckpt: Heap.Free(%d): no such block", id))
	}
	h.liveBytes -= len(b.Data)
	delete(h.blocks, id)
}

// Lookup returns the block with the given handle, or nil.
func (h *Heap) Lookup(id int) *Block { return h.blocks[id] }

// Live reports the number of live blocks.
func (h *Heap) Live() int { return len(h.blocks) }

// LiveBytes reports the total payload bytes of live blocks.
func (h *Heap) LiveBytes() int { return h.liveBytes }

// install replaces the heap contents with fh's blocks, each cloned into the
// block's own memory; handles allocated after the capture are gone, exactly
// as a rollback requires.
func (h *Heap) install(fh frozenHeap) {
	h.blocks = make(map[int]*Block, len(fh.blocks))
	h.nextID, h.liveBytes = fh.next, 0
	for _, b := range fh.blocks {
		h.muts++
		h.blocks[b.id] = &Block{ID: b.id, Data: bytes.Clone(b.data), gen: h.muts}
		h.liveBytes += len(b.data)
	}
}

// Realloc resizes a live block in place, preserving its handle and the
// common prefix of its contents (C3's realloc analogue: the handle — the
// "address" — survives).
func (h *Heap) Realloc(id, n int) *Block {
	b, ok := h.blocks[id]
	if !ok {
		panic(fmt.Sprintf("ckpt: Heap.Realloc(%d): no such block", id))
	}
	h.muts++
	b.gen = h.muts
	h.liveBytes += n - len(b.Data)
	if n <= cap(b.Data) {
		grown := b.Data[:n]
		for i := len(b.Data); i < n; i++ {
			grown[i] = 0
		}
		b.Data = grown
		return b
	}
	next := make([]byte, n)
	copy(next, b.Data)
	b.Data = next
	return b
}
