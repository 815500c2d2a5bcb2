package protocol

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// stateHeader returns the serialized protocol header of a one-rank layer's
// first checkpoint — with a request record and a persistent-object record in
// it — the bytes a survivor parses on their own at rollback.
func stateHeader(t testing.TB) []byte {
	t.Helper()
	w := mpi.NewWorld(1, mpi.Options{})
	l := NewLayer(w.Comm(0), Config{Mode: Full, Store: storage.NewCheckpointStore(storage.NewMemory())})
	l.CommDup(WorldComm)
	l.Irecv(0, 3)
	l.requestCheckpoint()
	l.PotentialCheckpoint()
	return l.ring[0].Header
}

// FuzzUnmarshalState: arbitrary bytes never panic the state decoder and
// never make it allocate out of proportion to the input; what it accepts
// keeps the bytes behind the header as the application section.
func FuzzUnmarshalState(f *testing.F) {
	valid := stateHeader(f)
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), "application section"...))
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("C3SB0002"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8<<10 { // a sequence element is a byte of input and under a hundred in memory
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := unmarshalState(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
		if err == nil && !bytes.HasSuffix(raw, st.App) {
			t.Fatalf("application section of %d bytes is not the tail of the %d-byte input", len(st.App), len(raw))
		}
	})
}

// TestStateHeaderParsesOnItsOwn: the retained header is the state object
// minus its application section, and decodes to the same protocol section.
func TestStateHeaderParsesOnItsOwn(t *testing.T) {
	hdr := stateHeader(t)
	alone, err := unmarshalState(hdr)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := unmarshalState(append(append([]byte(nil), hdr...), 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.App) != 0 || !bytes.Equal(whole.App, []byte{1, 2, 3}) {
		t.Fatalf("application sections %v and %v, want none and 1 2 3", alone.App, whole.App)
	}
	whole.App = alone.App
	if alone.Epoch != 1 || len(alone.Requests) != 1 || len(alone.Persist) != 1 || !reflect.DeepEqual(alone, whole) {
		t.Fatalf("header alone decodes to %+v, inside the object to %+v", alone, whole)
	}
}
