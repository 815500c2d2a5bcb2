package protocol

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestStatsFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := StatsFrame{Rank: 2, Incarnation: 1, Final: true,
		Stats: Stats{MessagesSent: 7, CheckpointBlockedNs: 12345}}
	if err := WriteStatsFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := parseStatsFrame(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.V != StatsWireVersion || out.Rank != 2 || out.Incarnation != 1 || !out.Final ||
		out.Stats.MessagesSent != 7 || out.Stats.CheckpointBlockedNs != 12345 {
		t.Fatalf("round trip mangled frame: %+v", out)
	}
}

// TestStatsFrameForwardCompat pins the tolerant decode: a frame from a
// future emitter — higher version, counters this build has never heard of,
// extra top-level fields — must decode cleanly, keeping the fields we know.
func TestStatsFrameForwardCompat(t *testing.T) {
	fixture := `{"v":3,"rank":1,"incarnation":2,"final":true,"flux_capacitance":9,` +
		`"stats":{"messages_sent":42,"bytes_sent":1000,"quantum_retries":7,"warp_ns":123}}`
	f, err := parseStatsFrame([]byte(fixture))
	if err != nil {
		t.Fatalf("future frame rejected: %v", err)
	}
	if f.V != 3 || f.Rank != 1 || f.Incarnation != 2 || !f.Final {
		t.Fatalf("known header fields lost: %+v", f)
	}
	if f.Stats.MessagesSent != 42 || f.Stats.BytesSent != 1000 {
		t.Fatalf("known counters lost: %+v", f.Stats)
	}
}

// FuzzParseStatsFrame: arbitrary bytes never panic the stats-frame decoder
// and never make it allocate more than 1 MiB; a frame it accepts survives a
// write and a read, stamped with this build's version.
func FuzzParseStatsFrame(f *testing.F) {
	var line bytes.Buffer
	if err := WriteStatsFrame(&line, StatsFrame{Rank: 2, Incarnation: 1, Final: true, Stats: Stats{MessagesSent: 7, CheckpointBlockedNs: 12345}}); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.TrimSpace(line.Bytes()))
	f.Add([]byte(`{"v":3,"rank":1,"flux":[1,2,{"x":null}],"stats":{"messages_sent":42,"warp_ns":123}}`))
	f.Add([]byte(`{"v":1,"stats":{"messages_sent":1e3}}`))
	f.Add([]byte(`{"rank":0,"stats":{}}`))
	f.Add([]byte(`[[[[[[[[[[[[[[[[`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8<<10 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := parseStatsFrame(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteStatsFrame(&again, fr); err != nil {
			t.Fatal(err)
		}
		back, err := parseStatsFrame(bytes.TrimSpace(again.Bytes()))
		fr.V = StatsWireVersion
		if err != nil || !reflect.DeepEqual(back, fr) {
			t.Fatalf("read %+v back as %+v (%v)", fr, back, err)
		}
	})
}

func TestStatsFrameRejectsUnversioned(t *testing.T) {
	if _, err := parseStatsFrame([]byte(`{"rank":0,"stats":{}}`)); err == nil {
		t.Fatal("frame without version field must be rejected")
	}
	if _, err := parseStatsFrame([]byte(`not json`)); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestReadStatsFramesSkipsTornLines(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteStatsFrame(&buf, StatsFrame{Rank: 0, Stats: Stats{MessagesSent: 1}})
	buf.WriteString(`{"v":1,"rank":1,"stats":{"messages_` + "\n") // torn mid-write
	_ = WriteStatsFrame(&buf, StatsFrame{Rank: 1, Stats: Stats{MessagesSent: 2}})
	var got []StatsFrame
	ReadStatsFrames(strings.NewReader(buf.String()), func(f StatsFrame) { got = append(got, f) })
	if len(got) != 2 || got[0].Rank != 0 || got[1].Rank != 1 {
		t.Fatalf("torn line handling wrong: %+v", got)
	}
}

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
