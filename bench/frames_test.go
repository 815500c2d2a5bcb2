package main

import (
	"testing"

	"ccift/internal/protocol"
)

func frame(atMs int64, rank, inc int, taken, blockedNs, bytes, written int64) stampedFrame {
	return stampedFrame{AtNs: atMs * 1e6, F: protocol.StatsFrame{V: 1, Rank: rank, Incarnation: inc, Stats: protocol.Stats{
		CheckpointsTaken: taken, CheckpointBlockedNs: blockedNs, CheckpointBytes: bytes, CheckpointBytesWritten: written,
	}}}
}

// Freeze frames step CheckpointsTaken, flushed frames step CheckpointBytes;
// counters restart with every incarnation.
func TestExtractCheckpoints(t *testing.T) {
	frames := []stampedFrame{
		frame(100, 0, 0, 1, 5e6, 0, 0),        // rank 0 freezes checkpoint 1
		frame(110, 1, 0, 1, 7e6, 0, 0),        // rank 1 freezes checkpoint 1
		frame(150, 0, 0, 1, 5e6, 1000, 600),   // rank 0's flush integrates
		frame(190, 1, 0, 1, 7e6, 2000, 2000),  // rank 1's flush integrates
		frame(300, 0, 0, 2, 5.2e6, 1000, 600), // rank 0 freezes checkpoint 2
		frame(320, 0, 0, 2, 5.2e6, 2000, 650), // ... and flushes it
		frame(330, 0, 0, 2, 5.2e6, 2000, 650), // Finish: nothing steps
		frame(500, 0, 1, 1, 1e6, 0, 0),        // next incarnation: counters restart
		frame(505, 1, 1, 1, 2e6, 0, 0),        // rank 1 freezes, then is killed: no flush frame
		frame(540, 0, 1, 1, 1e6, 1000, 10),
	}
	got := extractCheckpoints(frames)
	want := []struct {
		rank, inc, index int
		blocked, durable float64
		bytes, written   int64
	}{
		{0, 0, 1, 5, 50, 1000, 600},
		{1, 0, 1, 7, 80, 2000, 2000},
		{0, 0, 2, 0.2, 20, 1000, 50},
		{0, 1, 1, 1, 40, 1000, 10},
		{1, 1, 1, 2, -1, 0, 0},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.Rank != w.rank || g.Incarnation != w.inc || g.Index != w.index ||
			!near(g.BlockedMs, w.blocked) || !near(g.durableMs(), w.durable) || g.Bytes != w.bytes || g.Written != w.written {
			t.Errorf("sample %d = %+v (durable %v), want %+v", i, g, g.durableMs(), w)
		}
	}
	last := lastFrames(frames)
	if len(last) != 4 {
		t.Fatalf("lastFrames: %d (rank, incarnation) pairs, want 4", len(last))
	}
	if last[0].Stats.CheckpointBytes != 2000 || last[0].Incarnation != 0 || last[0].Rank != 0 {
		t.Errorf("lastFrames[0] = %+v, want rank 0's final frame of incarnation 0", last[0])
	}
}
