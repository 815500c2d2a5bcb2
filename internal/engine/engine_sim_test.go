package engine

import (
	"reflect"
	"testing"
	"time"

	"ccift/internal/protocol"
	"ccift/internal/sim"
)

// simConfig wires a fresh simulated substrate into cfg: transport and
// virtual clocks (on which the protocol layer itself keeps to the
// synchronous checkpoint path and the serial chunk writer).
func simConfig(t *testing.T, cfg Config, sc sim.Scenario) Config {
	t.Helper()
	s, err := sim.New(cfg.Ranks, sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	cfg.NewTransport = s.NewTransport
	cfg.Clock = s.DetectorClock()
	cfg.RankClock = s.RankClock
	return cfg
}

// TestSimHeartbeatDetectorRecovery is the virtual-time port of
// TestHeartbeatDetectorRecovery: the dead rank falls silent, the heartbeat
// detector suspects it after a purely virtual timeout, and the rollback
// proceeds identically — with zero real sleeps anywhere in the run.
func TestSimHeartbeatDetectorRecovery(t *testing.T) {
	prog := ringProg(25, 4)
	ref := runRef(t, Config{Ranks: 3, Mode: protocol.Unmodified}, prog)

	sc := sim.Scenario{Seed: 1, Latency: 200 * time.Microsecond}
	cfg := simConfig(t, Config{
		Ranks: 3, Mode: protocol.Full, EveryN: 4, Debug: true,
		DetectorTimeout: 30 * time.Second, // virtual: costs nothing real
		Failures:        []Failure{{Rank: 1, AtOp: 90, Incarnation: 0}},
	}, sc)

	start := time.Now()
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d", res.Restarts)
	}
	if !reflect.DeepEqual(res.Values, ref) {
		t.Fatalf("values %v != ref %v", res.Values, ref)
	}
	// The whole point: a 30-second suspicion timeout must not cost
	// 30 seconds. Generous bound for race-detector CI runners.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("virtual-time detection took %v of wall time", elapsed)
	}
}

// TestSimIntervalInitiatorVirtualTime ports the interval-trigger test to
// virtual time: message latency makes the ring advance the clock, and the
// initiator's 50ms interval fires from clock progress alone — no sleeps,
// and the checkpoint count is exactly reproducible.
func TestSimIntervalInitiatorVirtualTime(t *testing.T) {
	prog := ringProg(120, 4)
	mk := func() Config {
		return simConfig(t, Config{
			Ranks: 2, Mode: protocol.Full, Debug: true,
			Interval: 50 * time.Millisecond,
		}, sim.Scenario{Seed: 7, Latency: time.Millisecond})
	}
	res, err := Run(mk(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// 120 iterations x >=1ms of virtual latency per exchange crosses the
	// 50ms interval at least once.
	if got := res.Stats[0].CheckpointsTaken; got < 1 {
		t.Fatalf("interval trigger never fired: %d checkpoints", got)
	}
	// Same seed, fresh simulation: identical values and counters.
	again, err := Run(mk(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Values, res.Values) {
		t.Fatalf("values diverged across identical simulated runs")
	}
	a, aw := normalizeStats(res.Stats)
	b, bw := normalizeStats(again.Stats)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("protocol counters diverged:\n  %+v\n  %+v", a, b)
	}
	if aw != bw {
		t.Fatalf("aggregate bytes written diverged: %d vs %d", aw, bw)
	}
}

// normalizeStats prepares per-rank protocol counters for cross-run
// comparison. CheckpointBytesWritten attributes each deduplicated chunk to
// whichever rank stored it first — a race between rank goroutines the
// simulation does not schedule — so per-rank values vary while the sum is
// exact. It is zeroed per rank and returned as an aggregate instead.
func normalizeStats(in []protocol.Stats) ([]protocol.Stats, int64) {
	out := make([]protocol.Stats, len(in))
	var written int64
	for i, s := range in {
		written += s.CheckpointBytesWritten
		s.CheckpointBytesWritten = 0
		out[i] = s
	}
	return out, written
}
