package protocol

import "testing"

func TestStatsAddCoversEveryCounter(t *testing.T) {
	a := Stats{MessagesSent: 1, CheckpointRegions: 5}
	a.Add(Stats{MessagesSent: 2, BytesSent: 3, CheckpointRegions: 1})
	if a.MessagesSent != 3 || a.BytesSent != 3 || a.CheckpointRegions != 6 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestAggregatorAcrossIncarnations(t *testing.T) {
	var lastTotal Stats
	agg := NewAggregator(func(total Stats, _ StatsFrame) { lastTotal = total })

	// Incarnation 0: two ranks, cumulative snapshots (latest wins).
	agg.Observe(StatsFrame{Rank: 0, Incarnation: 0, Stats: Stats{MessagesSent: 5}})
	agg.Observe(StatsFrame{Rank: 0, Incarnation: 0, Stats: Stats{MessagesSent: 10}})
	agg.Observe(StatsFrame{Rank: 1, Incarnation: 0, Stats: Stats{MessagesSent: 4}})
	if tot := agg.totalLocked(); tot.MessagesSent != 14 {
		t.Fatalf("incarnation-0 total = %d, want 14 (latest per rank)", tot.MessagesSent)
	}

	// Rollback: incarnation 1 resets the ranks' counters, but the run total
	// must keep counting (Prometheus monotonicity).
	agg.Observe(StatsFrame{Rank: 0, Incarnation: 1, Stats: Stats{MessagesSent: 2}})
	agg.Observe(StatsFrame{Rank: 1, Incarnation: 1, Stats: Stats{MessagesSent: 3}})
	if tot := agg.totalLocked(); tot.MessagesSent != 14+5 {
		t.Fatalf("post-rollback total = %d, want 19", tot.MessagesSent)
	}
	if lastTotal.MessagesSent != 19 {
		t.Fatalf("onObserve saw total %d, want 19", lastTotal.MessagesSent)
	}

	// A stale incarnation-0 frame racing in late must not regress anything.
	agg.Observe(StatsFrame{Rank: 1, Incarnation: 0, Stats: Stats{MessagesSent: 999}})
	if tot := agg.totalLocked(); tot.MessagesSent != 19 {
		t.Fatalf("stale frame changed total to %d", tot.MessagesSent)
	}

	pr := agg.PerRank()
	if len(pr) != 2 || pr[0].Rank != 0 || pr[1].Rank != 1 ||
		pr[0].Incarnation != 1 || pr[0].Stats.MessagesSent != 2 || pr[1].Stats.MessagesSent != 3 {
		t.Fatalf("PerRank wrong: %+v", pr)
	}
	fs := agg.FinalStats()
	if len(fs) != 2 || fs[1].MessagesSent != 3 {
		t.Fatalf("FinalStats wrong: %+v", fs)
	}
}
