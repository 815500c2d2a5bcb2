package protocol

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ccift/internal/cerr"
	"ccift/internal/ckpt"
	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// getLog is a Stable that records the key of every Get.
type getLog struct {
	storage.Stable
	mu   sync.Mutex
	keys []string
}

func (g *getLog) Get(key string) ([]byte, error) {
	g.mu.Lock()
	g.keys = append(g.keys, key)
	g.mu.Unlock()
	return g.Stable.Get(key)
}

// committedWorld takes one global checkpoint of a 3-rank world in which
// every rank registers a multi-chunk grid and, when replicated is set, one
// Section-7 replicated table; it returns the store and its Get log.
func committedWorld(t *testing.T, replicated bool) (*storage.CheckpointStore, *getLog, []float64) {
	t.Helper()
	const ranks = 3
	gl := &getLog{Stable: storage.NewMemory()}
	cs := storage.NewCheckpointStore(gl)
	w := mpi.NewWorld(ranks, mpi.Options{})
	table := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	ls := make([]*Layer, ranks)
	for r := range ls {
		ls[r] = NewLayer(w.Comm(r), Config{Mode: Full, Store: cs})
		grid := make([]float64, 100_000) // 800 KB: four chunks
		for i := range grid {
			grid[i] = float64(r*len(grid) + i)
		}
		if err := ls[r].Saver.VDS.Push("grid", &grid); err != nil {
			t.Fatal(err)
		}
		if replicated {
			mine := append([]float64(nil), table...)
			if err := ls[r].Saver.VDS.PushReplicated("table", &mine); err != nil {
				t.Fatal(err)
			}
		}
	}
	ls[0].requestCheckpoint()
	// An early message, so the suppression table is not empty: rank 1 is
	// already in epoch 1 when it sends, rank 2 still in epoch 0.
	ls[1].PotentialCheckpoint()
	ls[1].Send(2, 8, []byte("early"))
	_ = ls[2].Recv(1, 8)
	ls[2].PotentialCheckpoint()
	ls[0].PotentialCheckpoint()
	pump(t, ls, cs, 1)
	gl.keys = nil
	return cs, gl, table
}

// TestGatherReadsOnlySidecars: for a program without replicated data the
// gather is exactly `ranks` Gets, all of them protocol records; with
// replicated data it additionally reads the primary's state once — its
// manifest and each chunk — and nothing else.
func TestGatherReadsOnlySidecars(t *testing.T) {
	const ranks = 3
	for _, replicated := range []bool{false, true} {
		cs, gl, table := committedWorld(t, replicated)
		man, err := gl.Stable.Get(storage.StateKey(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		refs, err := storage.ParseManifest(man)
		if err != nil || len(refs) < 4 {
			t.Fatalf("primary state: %d chunks, %v; want a multi-chunk manifest", len(refs), err)
		}
		plan, err := GatherRecovery(cs, 1, ranks)
		if err != nil {
			t.Fatal(err)
		}
		var metas, states, chunks, other int
		for _, k := range gl.keys {
			switch {
			case strings.Contains(k, "/meta."):
				metas++
			case k == storage.StateKey(1, 0):
				states++
			case strings.HasPrefix(k, "ckpt/chunks/"):
				chunks++
			default:
				other++
			}
		}
		wantStates, wantChunks := 0, 0
		if replicated {
			wantStates, wantChunks = 1, len(refs)
		}
		if metas != ranks || states != wantStates || chunks != wantChunks || other != 0 {
			t.Fatalf("replicated=%v: gather read %d protocol records, %d state manifests, %d chunks, %d other keys; want %d, %d, %d, 0\n%v",
				replicated, metas, states, chunks, other, ranks, wantStates, wantChunks, gl.keys)
		}
		if len(plan.Suppress[1]) != 1 || len(plan.Suppress[0])+len(plan.Suppress[2]) != 0 {
			t.Fatalf("suppression table %v, want one ID for sender 1", plan.Suppress)
		}
		if !replicated {
			if plan.Replicas != nil {
				t.Fatalf("replicas %v from a program that registered none", plan.Replicas)
			}
			continue
		}
		var got []float64
		if err := ckpt.Decode(plan.Replicas["table"], &got); err != nil || !reflect.DeepEqual(got, table) || len(plan.Replicas) != 1 {
			t.Fatalf("replicas %v decode to %v (%v), want table %v", plan.Replicas, got, err, table)
		}
	}
}

// TestGatherRequiresSidecar: a committed epoch whose protocol record is
// gone, or is another epoch's, or is not a record, is a corrupt store —
// reported with rank and epoch, never papered over by reading the state
// instead.
func TestGatherRequiresSidecar(t *testing.T) {
	other := (&record{Epoch: 7, EarlyIDs: make([][]uint32, 3)}).marshal()
	for name, damage := range map[string]func(cs *storage.CheckpointStore) error{
		"deleted":     func(cs *storage.CheckpointStore) error { return cs.S.Delete(storage.MetaKey(1, 1)) },
		"wrong epoch": func(cs *storage.CheckpointStore) error { return cs.PutMeta(1, 1, other) },
		"garbage":     func(cs *storage.CheckpointStore) error { return cs.PutMeta(1, 1, []byte("not a record")) },
	} {
		cs, gl, _ := committedWorld(t, false)
		if err := damage(cs); err != nil {
			t.Fatal(err)
		}
		gl.keys = nil
		_, err := GatherRecovery(cs, 1, 3)
		if !errors.Is(err, cerr.ErrStore) {
			t.Fatalf("%s: error %v is not of the store category", name, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "epoch 1") {
			t.Fatalf("%s: error %q does not name rank 1 and epoch 1", name, msg)
		}
		for _, k := range gl.keys {
			if !strings.Contains(k, "/meta.") {
				t.Fatalf("%s: the failing gather fell back to reading %s", name, k)
			}
		}
	}
}

// recoverySlices gathers the recovery plan of a committed epoch and slices
// it for every rank of the world, as the supervisor does.
func recoverySlices(t testing.TB, cs *storage.CheckpointStore, epoch, ranks int) []*RankRecovery {
	t.Helper()
	plan, err := GatherRecovery(cs, epoch, ranks)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*RankRecovery, ranks)
	for r := range recs {
		recs[r] = plan.ForRank(r)
	}
	return recs
}

// sampleRecord has an entry in every section, negative values among them
// (a wildcard receive's source and tag, a split's color).
func sampleRecord() *record {
	return &record{Epoch: 3, Replicated: 1, EarlyIDs: [][]uint32{nil, {1, 2, 1<<32 - 1}, {9}},
		Persist: []PersistRecord{
			{Op: "dup", Parent: WorldComm, Result: 1},
			{Op: "split", Parent: 1, Args: []int64{-1, 4}, Result: 2},
		},
		Requests: []reqRecord{
			{2, reqState{isRecv: true, src: -1, tag: -2}},
			{5, reqState{src: 1, tag: 7, done: true}},
		},
		NextReq: 6}
}

func TestRecoveryMetaRoundTrip(t *testing.T) {
	for _, m := range []*record{{}, sampleRecord()} {
		got, err := unmarshalRecord(m.marshal())
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip of %+v: %+v, %v", m, got, err)
		}
	}
}

// TestRecordIsTheProtocolSection: a local checkpoint's record carries the
// layer's whole protocol section — its request records sorted by handle,
// its persistent-object calls, NextReq — and RestoreFrom, handed nothing
// but the gather's slice, rebuilds the pseudo-handle table from it.
func TestRecordIsTheProtocolSection(t *testing.T) {
	w := mpi.NewWorld(1, mpi.Options{})
	cs := storage.NewCheckpointStore(storage.NewMemory())
	l := NewLayer(w.Comm(0), Config{Mode: Full, Store: cs})
	dup := l.CommDup(WorldComm)
	var reqs []Handle
	for tag := 3; tag < 8; tag++ {
		reqs = append(reqs, l.Irecv(0, tag))
	}
	l.requestCheckpoint()
	l.PotentialCheckpoint()
	pump(t, []*Layer{l}, cs, 1)
	raw, err := cs.GetMeta(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := unmarshalRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 || len(m.Persist) != 1 || m.Persist[0].Result != dup || len(m.Requests) != len(reqs) || m.NextReq != reqs[len(reqs)-1]+1 {
		t.Fatalf("record %+v, want epoch 1, the dup and %d receives", m, len(reqs))
	}
	for i, r := range m.Requests {
		if r.Handle != reqs[i] || !r.isRecv || r.tag != 3+i {
			t.Fatalf("request record %d is %+v, want the receive %d on tag %d, in handle order", i, r, reqs[i], 3+i)
		}
	}
	plan, err := GatherRecovery(cs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2 := NewLayer(mpi.NewWorld(1, mpi.Options{}).Comm(0), Config{Mode: Full, Store: cs})
	if err := l2.RestoreFrom(plan.ForRank(0), nil); err != nil {
		t.Fatal(err)
	}
	if l2.SubComm(dup) == nil || len(l2.handles.reqs) != len(reqs) || l2.handles.nextReq != m.NextReq {
		t.Fatalf("restored %d requests and next handle %d, want %d and %d", len(l2.handles.reqs), l2.handles.nextReq, len(reqs), m.NextReq)
	}
}

// FuzzRecoveryMeta: arbitrary bytes never panic the record decoder and
// never make it allocate out of proportion to the input; what it accepts
// survives a re-encode.
func FuzzRecoveryMeta(f *testing.F) {
	valid := sampleRecord().marshal()
	// enc writes literal strings, uvarints (u: the counts, IDs and flags)
	// and varints behind the magic.
	type u uint64
	enc := func(parts ...any) []byte {
		b := append([]byte(nil), recordMagic...)
		for _, p := range parts {
			switch p := p.(type) {
			case string:
				b = append(b, p...)
			case u:
				b = binary.AppendUvarint(b, uint64(p))
			default:
				b = binary.AppendVarint(b, int64(p.(int)))
			}
		}
		return b
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])                                         // truncated inside the request records
	f.Add(append(append([]byte(nil), valid...), 0))                     // trailing byte
	f.Add(enc(3, 1, u(1<<40)))                                          // 2^40 senders, none present
	f.Add(enc(1, 0, u(1), u(1<<32)))                                    // 2^32 IDs, none present
	f.Add(enc(1, 0, u(0), u(1<<16)))                                    // 2^16 persistent calls, none present
	f.Add(enc(1, 0, u(0), u(0), u(1<<16)))                              // 2^16 requests, none present
	f.Add(enc(1, 0, u(0), u(1), u(5), "split", 0, u(1), 3, 2, u(0), 0)) // a split with one argument
	f.Add(enc(1, 0, u(0), u(1), u(3), "dup", 0, u(1), 7, 1, u(0), 0))   // a dup with an argument
	f.Add(enc(1, 0, u(0), u(0), u(1), -1, u(1), -1, -2, u(0), -7))      // negative handle, source, tag and NextReq
	f.Add(enc(1, 0, u(0), u(0), u(1), 2, u(2), 0, 0, u(0), 0))          // a flag that is neither 0 nor 1
	f.Add([]byte("C3RM0003"))                                           // the previous format's magic
	f.Add([]byte("C3RM0004"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 16<<10 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := unmarshalRecord(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
		if err != nil {
			return
		}
		again, err := unmarshalRecord(m.marshal())
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded record: %+v (%v), want %+v", again, err, m)
		}
	})
}
