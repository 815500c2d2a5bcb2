package ckpt

import "testing"

func (p *bufPool) freeBytes() (n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range p.f64 {
		n += 8 * cap(b)
	}
	for _, b := range p.byt {
		n += cap(b)
	}
	return n
}

// TestPoolHandsOutTheSmallestSlabThatFits: a program whose small vectors
// sit between its paged grids freezes them in that order, so a vector meets
// a free list with page slabs at its head. First-fit gave it one — 64 KB
// pinned behind 4 KB for as long as a view holds the vector — and the page
// capture that came up short allocated afresh. With views kept for two
// epochs, as the protocol's retained ring keeps them, the slabs in
// existence must stay at exactly the bytes those views hold. An empty value
// draws no slab at all: the smallest that fits it is any.
func TestPoolHandsOutTheSmallestSlabThatFits(t *testing.T) {
	s := NewSaver()
	gridA := make([]float64, 3*pageBytes/8)
	vec := make([]float64, 512)
	raw := make([]byte, 3*pageBytes+100)
	small := make([]byte, 700)
	gridB := make([]float64, 2*pageBytes/8+17)
	var none []float64
	var nothing []byte
	state := 0
	for _, v := range []struct {
		name string
		ptr  any
		size int
	}{{"none", &none, 0}, {"nothing", &nothing, 0}, {"gridA", &gridA, 8 * len(gridA)}, {"vec", &vec, 8 * len(vec)}, {"raw", &raw, len(raw)}, {"small", &small, len(small)}, {"gridB", &gridB, 8 * len(gridB)}} {
		if err := s.VDS.Push(v.name, v.ptr); err != nil {
			t.Fatal(err)
		}
		state += v.size
	}
	var prev, cur *Frozen
	for round := 1; round <= 20; round++ {
		prev.Release()
		if round > 2 {
			if free := s.pool.freeBytes(); free != state {
				t.Fatalf("round %d: %d bytes pooled after releasing one view of %d bytes of slabs", round, free, state)
			}
		}
		f, err := s.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if free := s.pool.freeBytes(); round > 2 && free != 0 {
			t.Fatalf("round %d: freeze left %d pooled bytes unused (and allocated as many)", round, free)
		}
		prev, cur = cur, f
	}
}
