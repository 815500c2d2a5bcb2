package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccift/internal/cerr"
)

const testChunk = 4 << 10

// assembleStores returns one store of each in-tree backend.
func assembleStores(t *testing.T) map[string]Stable {
	t.Helper()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Stable{"memory": NewMemory(), "disk": disk}
}

// chunkedBlob writes a blob of exactly `chunks` chunks (the last one short)
// and returns its bytes, manifest and refs.
func chunkedBlob(t *testing.T, s Stable, chunks int) (data, man []byte, refs []ChunkRef) {
	t.Helper()
	if chunks > 0 {
		data = make([]byte, (chunks-1)*testChunk+testChunk/3)
		rand.New(rand.NewSource(int64(chunks))).Read(data)
	}
	writeChunked(t, s, "blob", data, testChunk)
	man, err := s.Get("blob")
	if err != nil {
		t.Fatal(err)
	}
	if refs, err = ParseManifest(man); err != nil || len(refs) != chunks {
		t.Fatalf("manifest has %d refs (%v), want %d", len(refs), err, chunks)
	}
	return data, man, refs
}

// settledGoroutines waits for the goroutine count to drop back to want (a
// finished goroutine is not gone the instant its last statement ran).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

func TestAssembleRoundTrip(t *testing.T) {
	for name, s := range assembleStores(t) {
		for _, chunks := range []int{0, 1, 2, 17} {
			t.Run(fmt.Sprintf("%s/%d", name, chunks), func(t *testing.T) {
				data, man, _ := chunkedBlob(t, s, chunks)
				before := runtime.NumGoroutine()
				got, err := Assemble(s, man)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("assembled bytes differ from the written ones")
				}
				if after := settledGoroutines(before); after > before {
					t.Fatalf("goroutines: %d before, %d after", before, after)
				}
			})
		}
	}
}

// readProbe records, at every chunk read Assemble issues, how many
// goroutines are running; the read numbered holdRead (from 1) waits until
// one of them has exited, which a verifier does only once it has reported a
// bad chunk.
type readProbe struct {
	Stable
	seen     []int
	holdRead int
}

func (p *readProbe) GetInto(key string, dst []byte) (int, error) {
	p.seen = append(p.seen, runtime.NumGoroutine())
	if len(p.seen) == p.holdRead {
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() >= p.seen[0] && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	return GetInto(p.Stable, key, dst)
}

// atProcs runs f at GOMAXPROCS 1, 2 and 4, whatever -cpu the test runs at.
func atProcs(t *testing.T, f func(t *testing.T, procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f(t, procs)
	}
}

// TestAssembleDamagedChunk damages one chunk at a time — removed, cut
// short, grown, replaced by its neighbour's content, one bit flipped — at the
// first, a middle and the last position, at GOMAXPROCS 1, 2 and 4. Each must
// be one error (never wrong bytes) of the store category that names the
// damaged chunk and no other; once a verifier has reported it, the caller
// reads at most the chunk it is reading already; and no goroutine is left
// behind.
func TestAssembleDamagedChunk(t *testing.T) {
	damage := map[string]func(t *testing.T, s Stable, refs []ChunkRef, i int){
		"missing": func(t *testing.T, s Stable, refs []ChunkRef, i int) {
			if err := s.Delete(refs[i].Key()); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, s Stable, refs []ChunkRef, i int) {
			c, _ := s.Get(refs[i].Key())
			if err := s.Put(refs[i].Key(), c[:len(c)-1]); err != nil {
				t.Fatal(err)
			}
		},
		"extended": func(t *testing.T, s Stable, refs []ChunkRef, i int) {
			// The slot holds refs[i].Len bytes that hash correctly; what makes
			// the chunk bad is what lies beyond them.
			c, _ := s.Get(refs[i].Key())
			if err := s.Put(refs[i].Key(), append(c, 0)); err != nil {
				t.Fatal(err)
			}
		},
		"swapped": func(t *testing.T, s Stable, refs []ChunkRef, i int) {
			other, _ := s.Get(refs[(i+1)%(len(refs)-1)].Key()) // a full-size neighbour
			if int64(len(other)) > refs[i].Len {
				other = other[:refs[i].Len]
			}
			if err := s.Put(refs[i].Key(), other); err != nil {
				t.Fatal(err)
			}
		},
		"bitflip": func(t *testing.T, s Stable, refs []ChunkRef, i int) {
			c, _ := s.Get(refs[i].Key())
			c[len(c)/2] ^= 0x10
			if err := s.Put(refs[i].Key(), c); err != nil {
				t.Fatal(err)
			}
		},
	}
	const chunks = 17
	for kind, apply := range damage {
		for _, i := range []int{0, chunks / 2, chunks - 1} {
			for name, s := range assembleStores(t) {
				t.Run(fmt.Sprintf("%s/%d/%s", kind, i, name), func(t *testing.T) {
					_, man, refs := chunkedBlob(t, s, chunks)
					apply(t, s, refs, i)
					atProcs(t, func(t *testing.T, procs int) {
						p := &readProbe{Stable: s, holdRead: i + 2}
						before := runtime.NumGoroutine()
						got, err := Assemble(p, man)
						if err == nil || got != nil {
							t.Fatalf("procs %d: Assemble returned %d bytes, err %v; want an error and no bytes", procs, len(got), err)
						}
						if kind != "missing" && !errors.Is(err, cerr.ErrStore) {
							t.Fatalf("procs %d: error %v is not of the store category", procs, err)
						}
						if kind == "missing" && !errors.Is(err, ErrNotFound) {
							t.Fatalf("procs %d: error %v does not wrap ErrNotFound", procs, err)
						}
						for j, r := range refs {
							if strings.Contains(err.Error(), r.Hex()) != (j == i) {
								t.Fatalf("procs %d: error %q, want one naming chunk %d (%s) alone", procs, err, i, refs[i].Hex())
							}
						}
						if len(p.seen) > i+2 {
							t.Fatalf("procs %d: %d chunk reads for a bad chunk %d: reading went on after a verifier reported it", procs, len(p.seen), i)
						}
						if after := settledGoroutines(before); after > before {
							t.Fatalf("procs %d: goroutines: %d before, %d after", procs, before, after)
						}
					})
				})
			}
		}
	}
}

// TestGetIntoNeverCutsOrPads: with and without the store's fast path, a
// blob of the expected size lands in the buffer, and one of any other size
// is reported at the size it has — which is all Assemble's length check has
// to go on.
func TestGetIntoNeverCutsOrPads(t *testing.T) {
	blob := []byte("0123456789")
	for name, s := range assembleStores(t) {
		if err := s.Put("k", blob); err != nil {
			t.Fatal(err)
		}
		for _, room := range []int{len(blob), len(blob) - 1, len(blob) + 1, 0} {
			dst := make([]byte, room)
			n, err := GetInto(s, "k", dst)
			if err != nil || n != len(blob) {
				t.Fatalf("%s, %d-byte buffer: GetInto = %d, %v; want the blob's %d bytes", name, room, n, err, len(blob))
			}
			if room == len(blob) && !bytes.Equal(dst, blob) {
				t.Fatalf("%s: read %q", name, dst)
			}
		}
		if _, err := GetInto(s, "absent", nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: a missing key is %v, want ErrNotFound", name, err)
		}
	}
}

// TestAssembleVerifiersBoundedByCoresAndChunks pins the verifier count: a
// one-chunk blob is read, verified and placed on the caller alone; a longer
// one has min(GOMAXPROCS, chunks) verifiers behind the caller's reads —
// exactly one at GOMAXPROCS 1 — and the reads all stay on the caller.
func TestAssembleVerifiersBoundedByCoresAndChunks(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, chunks := range []int{1, 2, 3, 17} {
			m := NewMemory()
			data, man, _ := chunkedBlob(t, m, chunks)
			p := &readProbe{Stable: m}
			before := runtime.NumGoroutine()
			got, err := Assemble(p, man)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("procs %d, %d chunks: %v, or the assembled bytes differ", procs, chunks, err)
			}
			if len(p.seen) != chunks {
				t.Fatalf("procs %d, %d-chunk blob: %d reads", procs, chunks, len(p.seen))
			}
			want := min(procs, chunks)
			if chunks == 1 {
				want = 0
			}
			for i, n := range p.seen {
				if n-before != want {
					t.Fatalf("procs %d, %d-chunk blob, read %d: %d goroutines beside the caller's %d, want %d verifiers", procs, chunks, i, n-before, before, want)
				}
			}
			if after := settledGoroutines(before); after > before {
				t.Fatalf("procs %d: goroutines: %d before, %d after", procs, before, after)
			}
		}
	})
}

// manifestWith builds a manifest whose refs carry the given (raw) lengths.
func manifestWith(lens ...uint64) []byte {
	b := append([]byte(nil), manifestMagic...)
	b = binary.AppendUvarint(b, uint64(len(lens)))
	for i, l := range lens {
		b = binary.AppendUvarint(b, l)
		sum := sha256.Sum256([]byte{byte(i)})
		b = append(b, sum[:]...)
	}
	return b
}

// TestManifestLengthsAreNotTrusted: a length is stored data. Zero, above
// the bound, 2^60 and 2^63 (negative as an int64), and a total above the
// bound are all corruption of the store category, found before anything is
// allocated from them.
func TestManifestLengthsAreNotTrusted(t *testing.T) {
	for name, man := range map[string][]byte{
		"zero":       manifestWith(0),
		"over bound": manifestWith(MaxBlobBytes + 1),
		"2^60":       manifestWith(1 << 60),
		"negative":   manifestWith(1 << 63),
		"total":      manifestWith(MaxBlobBytes/2, MaxBlobBytes/2, 1),
		"lying refs": append(append([]byte(nil), manifestMagic...), binary.AppendUvarint(nil, 1<<40)...),
		"not one":    []byte("C3CMxxxx"),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refs, perr := ParseManifest(man)
		got, aerr := Assemble(NewMemory(), man)
		runtime.ReadMemStats(&after)
		if perr == nil || aerr == nil || refs != nil || got != nil {
			t.Fatalf("%s: ParseManifest err %v, Assemble err %v; want both to fail", name, perr, aerr)
		}
		if !errors.Is(perr, cerr.ErrStore) || !errors.Is(aerr, cerr.ErrStore) {
			t.Fatalf("%s: errors %v / %v are not of the store category", name, perr, aerr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: allocated %d bytes on the way to the error", name, grew)
		}
	}
	if refs, err := ParseManifest(manifestWith(MaxBlobBytes)); err != nil || len(refs) != 1 {
		t.Fatalf("a ref of exactly the bound: %v", err)
	}
}

// TestCommitRefusesUnreadableBlob: what no reader would accept is refused
// when it is written, while the state it holds still exists.
func TestCommitRefusesUnreadableBlob(t *testing.T) {
	w := NewChunkedWriter(context.Background(), NewMemory(), "blob", 0)
	w.total = MaxBlobBytes // as if a GiB had been streamed already
	if _, err := w.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Commit(); !errors.Is(err, cerr.ErrStore) {
		t.Fatalf("Commit past the bound: %v", err)
	}
}

// FuzzParseManifest: arbitrary bytes never panic the manifest decoder and
// never make it allocate out of proportion to the input; what it accepts
// survives a re-encode.
func FuzzParseManifest(f *testing.F) {
	f.Add(MarshalManifest(nil))
	f.Add(manifestWith(testChunk, testChunk, 7))
	f.Add(manifestWith(testChunk, testChunk, 7)[:50]) // truncated inside a sum
	f.Add(manifestWith(1 << 60))
	f.Add(manifestWith(0))
	f.Add(append(append([]byte(nil), manifestMagic...), 0xff, 0xff, 0xff, 0xff, 0x0f)) // 2^32 refs, none present
	f.Add([]byte("C3CM0001"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > 16<<10 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		refs, err := ParseManifest(blob)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(blob))
		}
		if err != nil {
			if !errors.Is(err, cerr.ErrStore) {
				t.Fatalf("error %v is not of the store category", err)
			}
			return
		}
		var total int64
		for _, r := range refs {
			if r.Len <= 0 || r.Len > MaxBlobBytes {
				t.Fatalf("accepted a ref of %d bytes", r.Len)
			}
			total += r.Len
		}
		if total > MaxBlobBytes {
			t.Fatalf("accepted a blob of %d bytes", total)
		}
		again, err := ParseManifest(MarshalManifest(refs))
		if err != nil || len(again) != len(refs) {
			t.Fatalf("re-encoded manifest: %d refs, %v", len(again), err)
		}
	})
}

// BenchmarkAssemble reads a 4 MB, 17-chunk blob back from a Disk store.
func BenchmarkAssemble(b *testing.B) {
	disk, err := NewDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4<<20+100)
	rand.New(rand.NewSource(1)).Read(data)
	w := NewChunkedWriter(context.Background(), disk, "blob", 0)
	if _, err := w.Write(data); err != nil {
		b.Fatal(err)
	}
	if _, _, err := w.Commit(); err != nil {
		b.Fatal(err)
	}
	man, err := disk.Get("blob")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(disk, man); err != nil {
			b.Fatal(err)
		}
	}
}
