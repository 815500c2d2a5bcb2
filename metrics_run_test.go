package ccift

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"ccift/internal/protocol"
)

// TestMetricsRunHistogramAndPerRank drives the WithMetricsAddr wiring the
// way a run does — cumulative stats frames through the aggregator — and
// checks the derived views: the per-checkpoint blocked-time histogram
// (built from frame deltas) and the per-rank labeled families, including
// their monotonicity across a rank restart.
func TestMetricsRunHistogramAndPerRank(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	frame := func(rank, inc int, ckpts, blockedNs int64) protocol.StatsFrame {
		return protocol.StatsFrame{
			Rank:        rank,
			Incarnation: inc,
			Stats:       protocol.Stats{CheckpointsTaken: ckpts, CheckpointBlockedNs: blockedNs},
		}
	}
	agg := protocol.NewAggregator(m.observe)
	agg.Observe(frame(0, 0, 1, 2e6))           // one checkpoint, 2ms blocked
	agg.Observe(frame(0, 0, 3, 2e6+2*5e8))     // two more at 0.5s each
	agg.Observe(frame(1, 0, 1, 5e4))           // one at 50µs
	agg.Observe(frame(1, 1, 1, 1e6))           // rank 1 restarted: counters reset
	agg.Observe(frame(0, 0, 3, 2e6+2*5e8+7e3)) // no new checkpoint: no observation

	out := m.render()
	for _, want := range []string{
		// Histogram: 5 checkpoints observed — 50µs, 1ms (on the bound),
		// 2ms, and two 0.5s stalls; nothing in overflow.
		"# TYPE ccift_checkpoint_blocked_ns histogram",
		`ccift_checkpoint_blocked_ns_bucket{le="100000"} 1`,
		`ccift_checkpoint_blocked_ns_bucket{le="1000000"} 2`,
		`ccift_checkpoint_blocked_ns_bucket{le="10000000"} 3`,
		`ccift_checkpoint_blocked_ns_bucket{le="1000000000"} 5`,
		`ccift_checkpoint_blocked_ns_bucket{le="+Inf"} 5`,
		"ccift_checkpoint_blocked_ns_count 5",
		// Per-rank families: rank 1's totals bridge the restart
		// (incarnation 0 is folded in, not forgotten).
		`ccift_rank_checkpoints_total{rank="0"} 3`,
		`ccift_rank_checkpoints_total{rank="1"} 2`,
		`ccift_rank_checkpoint_blocked_ns_total{rank="1"} 1050000`,
		`ccift_rank_incarnation{rank="0"} 0`,
		`ccift_rank_incarnation{rank="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	scrapeEquals(t, m, out)
}

// scrapeEquals checks that the endpoint serves out over HTTP, as
// Prometheus text, at /metrics and at / alike.
func scrapeEquals(t *testing.T, m *metricsRun, out string) {
	t.Helper()
	for _, path := range []string{"/metrics", "/"} {
		resp, err := http.Get("http://" + m.addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("GET %s: Content-Type %q", path, ct)
		}
		if string(body) != out {
			t.Errorf("GET %s differs from the rendered exposition:\n%s", path, body)
		}
	}
}

// TestMetricsRenderFormat: each family is written under its HELP and TYPE
// lines, with its value, and the families are sorted by name.
func TestMetricsRenderFormat(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	m.onRestart(3)

	out := m.render()
	for _, want := range []string{
		"# HELP ccift_restarts_total Rollback-restarts performed by this run.",
		"# TYPE ccift_restarts_total counter",
		"ccift_restarts_total 3",
		"# HELP ccift_ranks World size of the run.",
		"# TYPE ccift_ranks gauge",
		"ccift_ranks 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var names []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(name)[0])
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("families not sorted by name: %q", names)
	}
}

// TestMetricsServeScrape: a stats frame's counter is scrapeable over HTTP
// while the run is live.
func TestMetricsServeScrape(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	protocol.NewAggregator(m.observe).Observe(protocol.StatsFrame{Stats: protocol.Stats{CheckpointsTaken: 1, CheckpointBlockedNs: 42}})

	out := m.render()
	if !strings.Contains(out, "ccift_checkpoint_blocked_ns_total 42\n") {
		t.Errorf("render missing the counter:\n%s", out)
	}
	scrapeEquals(t, m, out)
}

// TestMetricsHistogramExposition: the blocked-time histogram's buckets are
// cumulative, the overflow is counted under +Inf, and the sum and count
// cover every observation.
func TestMetricsHistogramExposition(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	agg := protocol.NewAggregator(m.observe)
	var ckpts, blocked int64
	for _, ns := range []int64{5e4, 7e4, 5e6, 999e6, 5e10} { // one checkpoint per frame
		ckpts, blocked = ckpts+1, blocked+ns
		agg.Observe(protocol.StatsFrame{Stats: protocol.Stats{CheckpointsTaken: ckpts, CheckpointBlockedNs: blocked}})
	}

	out := m.render()
	for _, want := range []string{
		"# TYPE ccift_checkpoint_blocked_ns histogram",
		`ccift_checkpoint_blocked_ns_bucket{le="100000"} 2`,
		`ccift_checkpoint_blocked_ns_bucket{le="1000000"} 2`,
		`ccift_checkpoint_blocked_ns_bucket{le="10000000"} 3`,
		`ccift_checkpoint_blocked_ns_bucket{le="100000000"} 3`,
		`ccift_checkpoint_blocked_ns_bucket{le="1000000000"} 4`,
		`ccift_checkpoint_blocked_ns_bucket{le="10000000000"} 4`,
		`ccift_checkpoint_blocked_ns_bucket{le="+Inf"} 5`,
		"ccift_checkpoint_blocked_ns_sum 51004120000",
		"ccift_checkpoint_blocked_ns_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestMetricsHistogramBoundary: a stall exactly on a bound is counted in
// that bound's bucket (le is inclusive), not the next one.
func TestMetricsHistogramBoundary(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	agg := protocol.NewAggregator(m.observe)
	agg.Observe(protocol.StatsFrame{Stats: protocol.Stats{CheckpointsTaken: 1, CheckpointBlockedNs: 1e5}})
	agg.Observe(protocol.StatsFrame{Stats: protocol.Stats{CheckpointsTaken: 2, CheckpointBlockedNs: 1e5 + 1e10}})

	out := m.render()
	for _, want := range []string{
		`ccift_checkpoint_blocked_ns_bucket{le="100000"} 1`,
		`ccift_checkpoint_blocked_ns_bucket{le="1000000000"} 1`,
		`ccift_checkpoint_blocked_ns_bucket{le="10000000000"} 2`,
		`ccift_checkpoint_blocked_ns_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("boundary observation not in its bucket: missing %q in:\n%s", want, out)
		}
	}
}

// TestMetricsVecExposition: the per-rank families write one child per
// rank, in numeric rank order ("10" after "2"), each reading the rank's
// newest cumulative frame.
func TestMetricsVecExposition(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 11)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	agg := protocol.NewAggregator(m.observe)
	// Frames arrive out of rank order; rank 2's second frame supersedes its first.
	agg.Observe(protocol.StatsFrame{Rank: 10, Stats: protocol.Stats{CheckpointsTaken: 1}})
	agg.Observe(protocol.StatsFrame{Rank: 2, Stats: protocol.Stats{CheckpointsTaken: 7}})
	agg.Observe(protocol.StatsFrame{Rank: 2, Stats: protocol.Stats{CheckpointsTaken: 8}})
	agg.Observe(protocol.StatsFrame{Rank: 0, Incarnation: 3})

	out := m.render()
	for _, want := range []string{
		`ccift_rank_checkpoints_total{rank="2"} 8`,
		`ccift_rank_checkpoints_total{rank="10"} 1`,
		`ccift_rank_incarnation{rank="0"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, `{rank="2"}`) > strings.Index(out, `{rank="10"}`) {
		t.Errorf("rank labels not numerically sorted:\n%s", out)
	}
}

// TestMetricsRunSeriesExistAtZero pins the scrape-early guarantee: every
// series of the golden exposition, per-rank children included, is written
// before the first frame arrives, and reads zero — all but the world size.
func TestMetricsRunSeriesExistAtZero(t *testing.T) {
	m, err := newMetricsRun("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	out := m.render()
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, "# ") && !strings.Contains(out, line+"\n") {
			t.Errorf("fresh exposition missing %q", line)
		}
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") && !strings.HasSuffix(line, " 0") && line != "ccift_ranks 3" {
			t.Errorf("fresh exposition reads %q, want zero", line)
		}
	}
	for _, want := range []string{
		`ccift_rank_checkpoints_total{rank="2"} 0`,
		`ccift_rank_checkpoint_blocked_ns_total{rank="1"} 0`,
		`ccift_rank_incarnation{rank="0"} 0`,
		`ccift_checkpoint_blocked_ns_count 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("fresh exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestMetricsExpositionGolden pins the whole exposition, byte for byte:
// every series name, HELP and TYPE line, value and their order, for a
// frame sequence that covers twelve ranks (rank "10" sorts after "9"),
// stalls exactly on a bucket bound and over the last one, a restart folded
// into a rank's totals, a stale-incarnation frame that is dropped, a
// window whose mean stall is not integral, a non-integral dedup ratio, and
// a restart count.
// testdata/metrics.golden was written by the general-purpose registry the
// renderer replaced, and is kept as that registry wrote it.
func TestMetricsExpositionGolden(t *testing.T) {
	const ranks = 12
	m, err := newMetricsRun("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	agg := protocol.NewAggregator(m.observe)
	for r := 0; r < ranks; r++ {
		n := int64(r + 1)
		// n checkpoints at exactly 1ms each: every one on the 1e6 bound.
		agg.Observe(protocol.StatsFrame{Rank: r, Stats: protocol.Stats{
			MessagesSent: 10 * n, BytesSent: 800 * n, PiggybackBytes: 40 * n,
			ControlMessages: 3 * n, CheckpointsTaken: n, CheckpointBlockedNs: n * 1e6,
			CheckpointBytes: 3 * 4096 * n, CheckpointBytesWritten: 4096 * n,
		}})
	}
	// Rank 11 stalls 25s for one more checkpoint: past the last bound.
	agg.Observe(protocol.StatsFrame{Rank: 11, Stats: protocol.Stats{
		CheckpointsTaken: 13, CheckpointBlockedNs: 12e6 + 25e9,
		CheckpointBytes: 3 * 4096 * 12, CheckpointBytesWritten: 4096 * 12,
	}})
	// Rank 7 takes two more whose window mean is not integral.
	agg.Observe(protocol.StatsFrame{Rank: 7, Stats: protocol.Stats{
		CheckpointsTaken: 10, CheckpointBlockedNs: 8e6 + 3e5 + 1,
		CheckpointBytes: 3 * 4096 * 8, CheckpointBytesWritten: 4096 * 8,
	}})
	// Rank 3 restarts: its first incarnation's totals fold in, and the new
	// one counts from zero.
	agg.Observe(protocol.StatsFrame{Rank: 3, Incarnation: 1, Stats: protocol.Stats{
		LateLogged: 2, CheckpointsTaken: 1, CheckpointBlockedNs: 5e4,
		CheckpointBytes: 4096, CheckpointBytesWritten: 1000,
	}})
	// A frame of rank 3's dead incarnation races in afterwards: dropped.
	agg.Observe(protocol.StatsFrame{Rank: 3, Stats: protocol.Stats{
		CheckpointsTaken: 99, CheckpointBlockedNs: 99e9,
	}})
	m.onRestart(1)

	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.render(); got != string(want) {
		t.Errorf("exposition differs from testdata/metrics.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetricsAddrInUseIsASpecError: a Launch whose endpoint cannot bind its
// address fails as a bad spec, before any rank runs.
func TestMetricsAddrInUseIsASpecError(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	ran := false
	_, err = Launch(context.Background(), NewSpec(WithRanks(1), WithMetricsAddr(busy.Addr().String())),
		func(*Rank) (any, error) { ran = true; return nil, nil })
	if !errors.Is(err, ErrSpec) || ran {
		t.Fatalf("Launch on a bound metrics address: err %v, ranks ran %v; want ErrSpec and no run", err, ran)
	}
}

// TestMetricsRunConcurrentScrapes: frames, restarts and scrapes arrive on
// goroutines of their own, as they do in a run, and the run's one mutex
// orders them (run it under -race).
func TestMetricsRunConcurrentScrapes(t *testing.T) {
	const ranks, frames = 4, 50
	m, err := newMetricsRun("127.0.0.1:0", ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	agg := protocol.NewAggregator(m.observe)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(1); n <= frames; n++ {
				agg.Observe(protocol.StatsFrame{Rank: r, Stats: protocol.Stats{CheckpointsTaken: n, CheckpointBlockedNs: n * 1e6}})
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= frames; i++ {
			m.onRestart(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get("http://" + m.addr() + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	wg.Wait()
	out := m.render()
	for _, want := range []string{
		"ccift_checkpoint_blocked_ns_count 200\n",
		"ccift_restarts_total 50\n",
		`ccift_rank_checkpoints_total{rank="3"} 50` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
