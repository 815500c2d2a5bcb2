package main

import "testing"

func TestSelfTimeSubtractsMergedClippedChildren(t *testing.T) {
	spans := []span{
		{Name: "run", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "a", StartNs: 10, EndNs: 30, Parent: 0},
		{Name: "b", StartNs: 20, EndNs: 50, Parent: 0},    // overlaps a: covered 10..50 once
		{Name: "c", StartNs: 90, EndNs: 120, Parent: 0},   // clipped to the parent: 90..100
		{Name: "leaf", StartNs: 22, EndNs: 28, Parent: 2}, // grandchild: b's business only
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 6, 30, 6}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestEpochOfKey(t *testing.T) {
	cases := []struct {
		key         string
		epoch, rank int
		ok          bool
	}{
		{"ckpt/00000003/state.0001", 3, 1, true},
		{"ckpt/00000012/log.0000", 12, 0, true},
		{"ckpt/chunks/ab12cd", -1, -1, false},
		{"ckpt/COMMIT", -1, -1, false},
		{"other", -1, -1, false},
	}
	for _, c := range cases {
		e, r, ok := epochOfKey(c.key)
		if e != c.epoch || r != c.rank || ok != c.ok {
			t.Errorf("epochOfKey(%q) = %d, %d, %v; want %d, %d, %v", c.key, e, r, ok, c.epoch, c.rank, c.ok)
		}
	}
}

// A store call is parented by the checkpoint its key names, else by the
// checkpoint in flight when it started, else by the run.
func TestAssignParents(t *testing.T) {
	spans := []span{
		{Name: "run", Layer: "bench", StartNs: 0, EndNs: 1000, Epoch: -1},
		{Name: "checkpoint", Layer: "protocol", StartNs: 100, EndNs: 300, Rank: 0, Epoch: 1},
		{Name: "checkpoint", Layer: "protocol", StartNs: 120, EndNs: 400, Rank: 1, Epoch: 1},
		{Name: "storage.Put", Layer: "storage", StartNs: 350, EndNs: 360, Rank: 1, Epoch: 1},  // keyed: rank 1's
		{Name: "storage.Put", Layer: "storage", StartNs: 150, EndNs: 160, Rank: 0, Epoch: -1}, // a chunk, in flight during both
		{Name: "storage.Get", Layer: "storage", StartNs: 700, EndNs: 710, Rank: 0, Epoch: -1}, // nothing in flight
		{Name: "mpi.Send", Layer: "mpi", StartNs: 150, EndNs: 151, Rank: 0, Epoch: -1},
		{Name: "storage.Put", Layer: "storage", StartNs: 900, EndNs: 910, Rank: 0, Epoch: 7}, // epoch with no span
	}
	assignParents(spans)
	want := []int{-1, 0, 0, 2, 1, 0, 0, 0}
	for i, w := range want {
		if spans[i].Parent != w {
			t.Errorf("span %d (%s) parent = %d, want %d", i, spans[i].Name, spans[i].Parent, w)
		}
	}
	by := selfByLayer(spans)
	if by["storage"] != float64(10+10+10+10)/1e6 {
		t.Errorf("storage self time = %v ms", by["storage"])
	}
}
