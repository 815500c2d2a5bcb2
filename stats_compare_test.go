package ccift_test

// The cross-substrate stats contract: a distributed run's per-rank
// counters are not approximations streamed from afar — for everything the
// protocol determines (message counts, bytes, piggyback traffic,
// checkpoints taken and their serialized size), the numbers a worker
// process reports on its control stream must be byte-identical to what the
// in-process engine reads out of the same program. Timing-dependent
// counters (blocked/flush durations, late-message races) are exempt.

import "testing"

func TestStatsByteComparableAcrossSubstrates(t *testing.T) {
	inproc := launchBoth(t, false)
	dist := launchBoth(t, true)

	if len(inproc.PerRank) != confRanks || len(dist.PerRank) != confRanks {
		t.Fatalf("PerRank lengths: in-process %d, distributed %d, want %d",
			len(inproc.PerRank), len(dist.PerRank), confRanks)
	}
	for r := 0; r < confRanks; r++ {
		a, b := inproc.PerRank[r], dist.PerRank[r]
		if a.Rank != r || b.Rank != r {
			t.Fatalf("PerRank[%d] tagged ranks %d (in-process) / %d (distributed)", r, a.Rank, b.Rank)
		}
		type counter struct {
			name     string
			ip, dist int64
		}
		deterministic := []counter{
			{"MessagesSent", a.Stats.MessagesSent, b.Stats.MessagesSent},
			{"BytesSent", a.Stats.BytesSent, b.Stats.BytesSent},
			{"PiggybackBytes", a.Stats.PiggybackBytes, b.Stats.PiggybackBytes},
		}
		for _, c := range deterministic {
			if c.ip != c.dist {
				t.Errorf("rank %d %s: in-process %d != distributed %d", r, c.name, c.ip, c.dist)
			}
			if c.ip == 0 {
				t.Errorf("rank %d %s: zero on a fault-free full-mode run", r, c.name)
			}
		}
		// Checkpoint counters are throughput-gated, not byte-identical: the
		// initiator only requests a new checkpoint after the previous commit
		// completes, so a slower substrate fits fewer rounds into the same
		// program, and the state layout's varint sizes shift by a byte or
		// two with the exact op each checkpoint lands on. They must still be
		// nonzero — checkpoints demonstrably flowed over the control stream.
		if a.Stats.CheckpointsTaken == 0 || b.Stats.CheckpointsTaken == 0 ||
			a.Stats.CheckpointBytes == 0 || b.Stats.CheckpointBytes == 0 {
			t.Errorf("rank %d checkpoint counters zero on a fault-free full-mode run (in-process %d/%d bytes, distributed %d/%d bytes)",
				r, a.Stats.CheckpointsTaken, a.Stats.CheckpointBytes, b.Stats.CheckpointsTaken, b.Stats.CheckpointBytes)
		}
	}
	// The merged totals must agree too (Result.Stats is the same counters,
	// unattributed).
	if len(inproc.Stats) != len(dist.Stats) {
		t.Fatalf("Stats lengths differ: %d vs %d", len(inproc.Stats), len(dist.Stats))
	}
	var ipSent, dSent int64
	for r := range inproc.Stats {
		ipSent += inproc.Stats[r].MessagesSent
		dSent += dist.Stats[r].MessagesSent
	}
	if ipSent != dSent {
		t.Errorf("total MessagesSent: in-process %d != distributed %d", ipSent, dSent)
	}
}
