package engine

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// stateGets is a Stable that counts, per rank, the reads of state manifests:
// what a rollback that is not served from memory begins with.
type stateGets struct {
	storage.Stable
	mu     sync.Mutex
	byRank map[string]int
}

func (g *stateGets) Get(key string) ([]byte, error) {
	if i := strings.LastIndex(key, "/state."); i >= 0 {
		g.mu.Lock()
		g.byRank[key[i+len("/state."):]]++
		g.mu.Unlock()
	}
	return g.Stable.Get(key)
}

// pagedProg is crashProg's ring over state that pages: a []float64 and a
// []byte of more than 64 KB each. A restarted rank goes on with copies of
// what it restored and scribbles over every restored element, which is its
// own memory to do with as it likes — unless the restore aliased the
// retained view it came from, which the next rollback then restores garbage
// from.
func pagedProg(r *Rank) (any, error) {
	next := (r.Rank() + 1) % r.Size()
	prev := (r.Rank() - 1 + r.Size()) % r.Size()
	var it int
	var total float64
	grid := make([]float64, 9000)
	buf := make([]byte, 70_000)
	in := make([]float64, 1)
	r.Register("it", &it)
	r.Register("total", &total)
	r.Register("grid", &grid)
	r.Register("buf", &buf)
	if r.Restarting() {
		g, b := grid, buf
		grid, buf = slices.Clone(g), bytes.Clone(b)
		for i := range g {
			g[i] = -1
		}
		for i := range b {
			b[i] = 0xFF
		}
		r.Touch("grid", "buf")
	}
	for ; it < 60; it++ {
		r.PotentialCheckpoint()
		h := r.Irecv(prev, 1)
		r.Isend(next, 1, mpi.F64Bytes([]float64{float64(r.Rank()*1000 + it)}))
		r.WaitF64Into(h, in)
		total += in[0]
		for j := 0; j < 64; j++ {
			grid[(it*131+j)%len(grid)] += total
			buf[(it*977+j)%len(buf)] += byte(it)
		}
		r.Touch("grid", "buf")
	}
	for i, x := range grid {
		total += x + float64(buf[i])
	}
	return total, nil
}

// TestRetainedViewServesRepeatedRollbacks: the same rank dies in two
// successive incarnations, the second time before the new incarnation has
// checkpointed, so both rollbacks go to the same epoch. A survivor takes the
// retained view over when it rolls back and hands it on when that
// incarnation dies too: it restores from memory both times — straight out
// of the view, which the scribbles of the first restore's program must not
// reach — and never reads its state from the store, while the victim's
// replacement reads it twice.
func TestRetainedViewServesRepeatedRollbacks(t *testing.T) {
	const ranks, victim = 3, 2
	ref := runRef(t, Config{Ranks: ranks, Mode: protocol.Unmodified}, pagedProg)
	gets := &stateGets{Stable: storage.NewMemory(), byRank: map[string]int{}}
	var mu sync.Mutex
	restores := map[[2]int]int64{} // {incarnation, rank} -> RecoveredFromRetained at its end
	res, err := Run(onSim(t, Config{
		Ranks: ranks, Mode: protocol.Full, EveryN: 5, Store: gets,
		Failures: []Failure{{Rank: victim, AtOp: 100, Incarnation: 0}, {Rank: victim, AtOp: 6, Incarnation: 1}},
		StatsSink: func(f protocol.StatsFrame) {
			if f.Final {
				mu.Lock()
				restores[[2]int{f.Incarnation, f.Rank}] = f.Stats.RecoveredFromRetained
				mu.Unlock()
			}
		},
	}), pagedProg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RecoveredEpochs) != 2 || res.RecoveredEpochs[0] < 1 || res.RecoveredEpochs[1] != res.RecoveredEpochs[0] {
		t.Fatalf("recovered from %v, want the same committed epoch twice", res.RecoveredEpochs)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v, fault-free %v", res.Values, ref)
	}
	for inc := 1; inc <= 2; inc++ {
		for r := 0; r < ranks; r++ {
			want := int64(1)
			if r == victim {
				want = 0
			}
			if got := restores[[2]int{inc, r}]; got != want {
				t.Errorf("incarnation %d, rank %d: %d restores from the retained view, want %d", inc, r, got, want)
			}
		}
	}
	// The initiator's prune sweep reads every rank's manifests alike; the two
	// restores of the replacement are the only reads on top of it.
	if n := gets.byRank; n["0000"] != n["0001"] || n["0002"] != n["0000"]+2 {
		t.Errorf("state objects read per rank %v, want the victim's two restores and nothing else apart", n)
	}
}
