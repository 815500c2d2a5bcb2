package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The ChunkedWriter has one path. What it stores is what the plainest
// serial chunker would store — same boundaries, same keys, same manifest
// bytes — because every store call is made by the writing goroutine in
// stream order; only SHA-256 runs ahead, on one worker, from the second
// full chunk on.

// writeMixed streams data into w with Cut boundaries at every offset in
// cuts, mimicking a serializer's section structure.
func writeMixed(w *ChunkedWriter, data []byte, cuts map[int]bool) error {
	for off := 0; off < len(data); {
		n := min(1024, len(data)-off)
		if _, err := w.Write(data[off : off+n]); err != nil {
			return err
		}
		off += n
		if cuts[off] {
			if err := w.Cut(); err != nil {
				return err
			}
		}
	}
	return nil
}

// serialRefs is the reference chunker: split at every cut and every
// chunkSize bytes since the last boundary, hash each piece.
func serialRefs(data []byte, cuts map[int]bool, chunkSize int) (refs []ChunkRef) {
	start := 0
	for off := 1; off <= len(data); off++ {
		if off-start == chunkSize || cuts[off] || off == len(data) {
			refs = append(refs, ChunkRef{Sum: sha256.Sum256(data[start:off]), Len: int64(off - start)})
			start = off
		}
	}
	return refs
}

// streamOf returns a seeded blob of exactly `chunks` chunks, the last one
// short.
func streamOf(chunks int) []byte {
	if chunks == 0 {
		return nil
	}
	data := make([]byte, (chunks-1)*testChunk+testChunk/3)
	rand.New(rand.NewSource(int64(chunks))).Read(data)
	return data
}

// TestWriterMatchesSerialReference pins what the reshaped writer stores, on
// both backends, for streams of 0, 1, 2 and 17 chunks and for one with
// serializer cuts: the manifest bytes and the set of chunk keys are the
// reference chunker's, so cross-epoch dedup cannot have shifted — and a
// second epoch with one dirty chunk writes that chunk and a manifest only.
func TestWriterMatchesSerialReference(t *testing.T) {
	cutData := make([]byte, 20*testChunk+777)
	rand.New(rand.NewSource(99)).Read(cutData)
	streams := map[string]struct {
		data []byte
		cuts map[int]bool
	}{"cuts": {cutData, map[int]bool{1024: true, 3 * testChunk: true, 3*testChunk + 2048: true, 9*testChunk + 1024: true}}}
	for _, chunks := range []int{0, 1, 2, 17} {
		streams[fmt.Sprint(chunks)] = struct {
			data []byte
			cuts map[int]bool
		}{data: streamOf(chunks)}
	}
	for name, st := range streams {
		for backend, s := range assembleStores(t) {
			t.Run(name+"/"+backend, func(t *testing.T) {
				data := bytes.Clone(st.data)
				want := serialRefs(data, st.cuts, testChunk)
				w := NewChunkedWriter(context.Background(), s, StateKey(1, 0), testChunk)
				if err := writeMixed(w, data, st.cuts); err != nil {
					t.Fatal(err)
				}
				total, written, err := w.Commit()
				if err != nil {
					t.Fatal(err)
				}
				man, _ := s.Get(StateKey(1, 0))
				if !bytes.Equal(man, marshalManifest(want)) {
					t.Fatalf("manifest differs from the serial reference's (%d refs wanted)", len(want))
				}
				if total != int64(len(data)) || written != int64(len(data)+len(man)) {
					t.Fatalf("total/written = %d/%d, want %d/%d", total, written, len(data), len(data)+len(man))
				}
				var keys []string
				for _, r := range want {
					keys = append(keys, r.Key())
				}
				slices.Sort(keys)
				got, _ := s.List(chunkPrefix)
				slices.Sort(got)
				if !slices.Equal(got, slices.Compact(keys)) {
					t.Fatalf("stored chunk keys differ from the reference's: %d stored, %d wanted", len(got), len(keys))
				}
				if back, err := Assemble(s, man); err != nil || !bytes.Equal(back, data) {
					t.Fatalf("read-back differs (err %v)", err)
				}
				if len(data) == 0 {
					return
				}
				// Epoch 2: one byte of the last chunk changes.
				data[len(data)-1] ^= 0xFF
				w2 := NewChunkedWriter(context.Background(), s, StateKey(2, 0), testChunk)
				if err := writeMixed(w2, data, st.cuts); err != nil {
					t.Fatal(err)
				}
				_, written2, err := w2.Commit()
				man2, _ := s.Get(StateKey(2, 0))
				if last := want[len(want)-1].Len; err != nil || written2 != last+int64(len(man2)) {
					t.Fatalf("epoch 2 wrote %d bytes (err %v), want the dirty chunk's %d plus a %d-byte manifest", written2, err, last, len(man2))
				}
			})
		}
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// callLog is a Stable that records, per Has and Put, which goroutine made
// the call and how many goroutines existed; failAt (1-based, 0: never)
// fails that call of the kind failOp names.
type callLog struct {
	*Memory
	calls      []string // "has <key>" / "put <key>"
	goroutines []string
	live       []int
	failOp     string
	failAt     int
	seen       int
}

var errInjected = errors.New("stable: injected failure")

func (c *callLog) note(op, key string) error {
	c.calls = append(c.calls, op+" "+key)
	c.goroutines = append(c.goroutines, goid())
	c.live = append(c.live, runtime.NumGoroutine())
	if op == c.failOp {
		if c.seen++; c.seen == c.failAt {
			return errInjected
		}
	}
	return nil
}

func (c *callLog) Has(key string) (bool, error) {
	if err := c.note("has", key); err != nil {
		return false, err
	}
	return c.Memory.Has(key)
}

func (c *callLog) Put(key string, data []byte) error {
	if err := c.note("put", key); err != nil {
		return err
	}
	return c.Memory.Put(key, data)
}

// TestWriterStoreCallsStayOnTheWriter: every probe and every Put of a
// stream comes from the goroutine that writes it, in stream order — probe
// then Put per chunk, the manifest last — which is what lets a store on
// virtual time treat the writer as a serial one. A blob short of a second
// full chunk runs with no worker at all; a longer one has exactly one.
func TestWriterStoreCallsStayOnTheWriter(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunks int
		cuts   map[int]bool
		worker int // goroutines beside the caller's during the last store call
	}{
		{"sub-chunk", 1, map[int]bool{1024: true}, 0},
		{"one-full-chunk", 2, nil, 0},
		{"long", 17, map[int]bool{5*testChunk + 1024: true}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := streamOf(tc.chunks)
			c := &callLog{Memory: NewMemory()}
			before := runtime.NumGoroutine()
			w := NewChunkedWriter(context.Background(), c, "blob", testChunk)
			if err := writeMixed(w, data, tc.cuts); err != nil {
				t.Fatal(err)
			}
			if _, _, err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, r := range serialRefs(data, tc.cuts, testChunk) {
				want = append(want, "has "+r.Key(), "put "+r.Key())
			}
			want = append(want, "put blob")
			if !slices.Equal(c.calls, want) {
				t.Fatalf("store calls out of stream order:\n got %v\nwant %v", c.calls, want)
			}
			me := goid()
			for i, g := range c.goroutines {
				if g != me {
					t.Fatalf("call %d (%s) came from goroutine %s, the writer is %s", i, c.calls[i], g, me)
				}
			}
			// The last chunk store (before the manifest) is where a worker,
			// if the stream earned one, is alive.
			if extra := slices.Max(c.live) - before; extra != tc.worker {
				t.Fatalf("%d goroutines beside the writer, want %d", extra, tc.worker)
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("goroutines: %d before, %d after Commit", before, after)
			}
		})
	}
}

// TestWriterFailures: a failed Put, a failed probe and a canceled context,
// each at the first, a middle and the last chunk of a 17-chunk stream,
// come back as the error — from a Write, or from Commit at the latest —
// never as a manifest, and leave no goroutine behind.
func TestWriterFailures(t *testing.T) {
	const chunks = 17
	data := streamOf(chunks)
	for _, kind := range []string{"put", "has", "cancel"} {
		for _, at := range []int{1, chunks / 2, chunks} {
			t.Run(fmt.Sprintf("%s/%d", kind, at), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				c := &callLog{Memory: NewMemory(), failOp: kind, failAt: at}
				before := runtime.NumGoroutine()
				w := NewChunkedWriter(ctx, c, "blob", testChunk)
				var err error
				for off := 0; off < len(data) && err == nil; off += 1024 {
					if kind == "cancel" && off == (at-1)*testChunk {
						cancel()
					}
					_, err = w.Write(data[off:min(off+1024, len(data))])
				}
				if err == nil {
					_, _, err = w.Commit()
				}
				w.Abort() // what a caller's deferred Abort does
				want := errInjected
				if kind == "cancel" {
					want = context.Canceled
				}
				if !errors.Is(err, want) {
					t.Fatalf("err = %v, want %v", err, want)
				}
				if ok, _ := c.Memory.Has("blob"); ok {
					t.Fatal("a failed writer published a manifest")
				}
				if _, _, err := w.Commit(); err == nil {
					t.Fatal("Commit after a failure succeeded")
				}
				if after := settledGoroutines(before); after > before {
					t.Fatalf("goroutines: %d before, %d after", before, after)
				}
			})
		}
	}
}

// TestWriterAbort: Abort joins the worker of a writer that is given up
// mid-stream, is idempotent, and is a no-op on one that never spawned.
func TestWriterAbort(t *testing.T) {
	m := NewMemory()
	before := runtime.NumGoroutine()
	w := NewChunkedWriter(context.Background(), m, "blob", testChunk).Pipeline(0)
	w.Write(make([]byte, 16*testChunk))
	w.Abort()
	w.Abort()
	NewChunkedWriter(context.Background(), m, "b2", 1<<20).Abort()
	if ok, _ := m.Has("blob"); ok {
		t.Fatal("aborted writer must not publish a manifest")
	}
	if after := settledGoroutines(before); after > before {
		t.Fatalf("goroutines: %d before, %d after", before, after)
	}
}
