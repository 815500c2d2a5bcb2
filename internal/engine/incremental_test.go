package engine

import (
	"reflect"
	"testing"

	"ccift/internal/protocol"
)

// End-to-end dirty-region checkpointing: a program runs under failure
// injection and must produce the fault-free result, while its capture
// volume reflects only the touched regions. State is modeled as heap
// "pages" plus one VDS vector so both region kinds exercise sharing and
// recovery.

// incrProg mutates one rotating heap page per iteration (with Touch write
// intent) and folds every page into a running checksum, so a recovery from
// a stale frozen page cannot escape the final value. With EveryN=4, an
// epoch dirties at most 4 of the 32 pages.
func incrProg(iters int) Program {
	const pages = 32
	const pageBytes = 2048
	return func(r *Rank) (any, error) {
		var it int
		var sum uint64
		ids := make([]int, 0, pages)
		vec := make([]float64, 64)
		r.Register("it", &it)
		r.Register("sum", &sum)
		r.Register("ids", &ids)
		r.Register("vec", &vec)
		h := r.Heap()
		if !r.Restarting() {
			for i := 0; i < pages; i++ {
				b := h.Alloc(pageBytes)
				for j := range b.Data {
					b.Data[j] = byte(i + j)
				}
				ids = append(ids, b.ID)
			}
		}
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			id := ids[it%pages]
			b := h.Lookup(id)
			for j := 0; j < 64; j++ {
				b.Data[(it*7+j)%len(b.Data)] += byte(1 + r.Rank())
			}
			h.Touch(id)
			if it%3 == 0 {
				vec[it%len(vec)] += float64(r.Rank() + 1)
				r.Touch("vec")
			}
			// Fold every page byte into the checksum and exchange it, so a
			// stale page after recovery diverges loudly.
			for _, id := range ids {
				for _, x := range h.Lookup(id).Data {
					sum = sum*31 + uint64(x)
				}
			}
			out := make([]byte, 8*r.Size())
			r.AllgatherInto(out, u64Bytes(sum))
			var agg uint64
			for i := 0; i+8 <= len(out); i += 8 {
				agg += bytesU64(out[i : i+8])
			}
			sum = agg
		}
		return sum, nil
	}
}

func u64Bytes(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func bytesU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestIncrementalFreezeRecovery(t *testing.T) {
	const iters = 24
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, incrProg(iters))

	// Simulated: the checkpoints fall at the same iterations on every run,
	// and op 50 of rank 1 follows the first commit.
	res, err := runWithin(onSim(t, Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
		Failures: []Failure{{Rank: 1, AtOp: 50, Incarnation: 0}},
	}), incrProg(iters))
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 || res.RecoveredEpochs[0] != 1 {
		t.Fatalf("%d restarts from %v, want one from epoch 1", res.Restarts, res.RecoveredEpochs)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != fault-free %v", res.Values, ref)
	}

	var logical, copied, dirty, regions int64
	for _, s := range res.Stats {
		logical += s.CheckpointBytes
		copied += s.CheckpointBytesCopied
		dirty += s.CheckpointRegionsDirty
		regions += s.CheckpointRegions
	}
	if logical == 0 || regions == 0 {
		t.Fatalf("copy stats not threaded: %d logical bytes, %d regions", logical, regions)
	}
	// At most 4 of 32 pages dirty per epoch (plus the small vector and scalars):
	// the captures must move well under half of the checkpoints' logical
	// state.
	if copied*2 >= logical {
		t.Fatalf("copied %d bytes of a %d-byte logical state: dirty tracking did not shrink the freeze", copied, logical)
	}
	if dirty >= regions {
		t.Fatalf("every region dirty (%d/%d): sharing never happened", dirty, regions)
	}
}
