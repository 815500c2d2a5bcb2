package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"ccift/internal/wire"
)

// The serialized state is a storage format: chunk boundaries decide dedup
// across epochs, and a survivor's retained view must serialize to the bytes
// the store holds. These digests were taken when the layout moved the
// payload of every split record (a saved []float64 or []byte of cutoverBytes
// or more) behind a framed head, so that the head is a prefix of whole
// chunks and each payload fills chunks of its own; any change to the
// stream, or to where it is cut, changes them.

// goldenState registers a seeded random state on a fresh incremental Saver:
// every fast-path type of the codec, float and byte slices below and above
// the paging threshold (with a short last page), the three entry kinds, heap
// blocks on both sides of cutoverBytes, and a position trace. (No gob value:
// gob numbers the types it meets process-wide, so its bytes depend on what
// else the test binary encoded first.)
func goldenState(t *testing.T, seed int64) *Saver {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSaver()
	s.Incremental = true
	s.VDS.Primary = seed%2 == 1
	for i := rng.Intn(4); i >= 0; i-- {
		s.PS.Push(rng.Intn(1 << 16))
	}
	floats := func(n int) []float64 { // exact arithmetic only: the same bits on every architecture
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(120)-60)
		}
		return xs
	}
	raw := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	sizes := []int{0, 1, 7, 1023, 1024, 1025, 4096, pageBytes / 8, pageBytes/8 + 1, 3*pageBytes/8 + 129}
	size := func() int { return sizes[rng.Intn(len(sizes))] }
	vars := []any{
		ptr(rng.Int()), ptr(rng.Int63()), ptr(rng.Uint64()), ptr(rng.Float64()), ptr(rng.Intn(2) == 0),
		ptr(string(raw(rng.Intn(40)))),
		ptr(floats(size())), ptr(floats(size())), ptr(floats(size())),
		ptr(raw(size() * 8)), ptr(raw(size())),
		ptr([]int{rng.Int(), -rng.Int(), 0}), ptr([]int64{rng.Int63(), -1}),
		ptr([][]float64{floats(size()), nil, floats(3)}),
	}
	for i, v := range vars {
		name := string(rune('a' + i))
		var err error
		switch rng.Intn(4) {
		case 0:
			err = s.VDS.PushReplicated(name, v)
		case 1:
			err = s.VDS.PushComputed(name, v, func() error { return nil })
		default:
			err = s.VDS.Push(name, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := rng.Intn(5); i >= 0; i-- {
		copy(s.Heap.Alloc(sizes[rng.Intn(len(sizes))]*3).Data, raw(len(sizes)))
	}
	return s
}

func ptr[T any](v T) *T { return &v }

// streamDigest is a wire.Sink that hashes the stream and every offset
// it is cut at.
type streamDigest struct {
	h hash.Hash
	n uint64
}

func (d *streamDigest) Write(p []byte) (int, error) {
	d.n += uint64(len(p))
	return d.h.Write(p)
}

func (d *streamDigest) Cut() error {
	var off [8]byte
	binary.LittleEndian.PutUint64(off[:], d.n)
	d.h.Write([]byte("cut"))
	d.h.Write(off[:])
	return nil
}

// goldenDigest serializes two epochs of the seed's state — the first
// freeze, then an incremental one after touching some entries — through
// Frozen.WriteTo (stream and cuts) and Saver.Snapshot, and digests all four.
func goldenDigest(t *testing.T, seed int64) string {
	t.Helper()
	s := goldenState(t, seed)
	all := &streamDigest{h: sha256.New()}
	for epoch := 0; epoch < 2; epoch++ {
		if epoch == 1 {
			rng := rand.New(rand.NewSource(-seed))
			for i, e := range s.VDS.entries {
				if xs, ok := e.ptr.(*[]float64); ok && len(*xs) > 0 && i%2 == 0 {
					(*xs)[rng.Intn(len(*xs))] = rng.Float64()
					if err := s.VDS.TouchRange(e.name, 0, len(*xs)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		f, err := s.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		stream := &streamDigest{h: sha256.New()}
		if err := f.WriteTo(stream); err != nil {
			t.Fatal(err)
		}
		all.Write(stream.h.Sum(nil))
		snap := s.Snapshot()
		all.Write(snap)
		f.Release()
	}
	return hex.EncodeToString(all.h.Sum(nil))
}

func TestStateStreamIsByteIdentical(t *testing.T) {
	want := map[int64]string{
		1: "f830a863d3e4708125e26db5a9037584e88dddf84ea9947f8dc4baf2cdb631f1",
		2: "6023465d94db1af505209ff550455c7b9e308a03fde40d49ebfe2731539fc294",
		3: "f16d12d88939ef3b922a9afc645254f2914f2cba888025f277da855a37546067",
		4: "18404031de1a5102e1fc408827c80b00d7f560ef30ee15481bdb4e019cb8d4e2",
		5: "8ff3293fc11438435f1110aa50a6c902d27b74e34b8b82d331ef34cc50209176",
		6: "03b670e20f467e0e9c43014d1961786a70f66c0c8f2a6b9b949e36d4c4653298",
		7: "5ea5a86dc54fb7c5fdf7f6759824146dbc1be3661dbb1d46a2ee11ba2aa62d61",
		8: "30a336787e17760b1df365bb70ed6bd5c8aafe3e8a33a56ee12767ed633a4bf4",
	}
	for seed := int64(1); seed <= 8; seed++ {
		if got := goldenDigest(t, seed); got != want[seed] {
			t.Errorf("seed %d: state stream digest %s, want %s", seed, got, want[seed])
		}
	}
}

// TestStateLayoutRunsBothWays: the state blob is one layout, run forwards
// by Saver.Snapshot over the live state and backwards by the parse every
// rollback from a blob goes through. Parsing each seed's snapshot and
// encoding the view again reproduces the snapshot, and the parsed view,
// streamed through Frozen.WriteTo like any retained view, writes it too.
func TestStateLayoutRunsBothWays(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		snap := goldenState(t, seed).Snapshot()
		f, err := parseState(snap)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if again := wire.Encode(nil, f.code); !bytes.Equal(again, snap) {
			t.Errorf("seed %d: the parsed snapshot encodes to %d bytes, not its own %d", seed, len(again), len(snap))
		}
		if streamed, err := f.Snapshot(); err != nil || !bytes.Equal(streamed, snap) {
			t.Errorf("seed %d: the parsed view streams %d bytes (%v), not the %d it was parsed from", seed, len(streamed), err, len(snap))
		}
	}
}
