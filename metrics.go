package ccift

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/protocol"
)

// The metrics endpoint. WithMetricsAddr starts a plain-HTTP listener for
// the duration of a Launch; GET /metrics (or any path) returns Prometheus
// text exposition, rendered at scrape time from the run's stats. Every
// protocol counter is exported as ccift_<wire name>_total (e.g.
// ccift_checkpoint_blocked_ns_total), summed across ranks and accumulated
// across incarnations — counters stay monotone through rollbacks, as a
// scraper requires — plus ccift_restarts_total, ccift_ranks,
// ccift_incarnation and ccift_checkpoint_dedup_ratio. Every series is
// written from the first scrape on, at zero before the first stats frame.
//
// Two finer-grained views ride along: ccift_checkpoint_blocked_ns is a
// histogram of per-checkpoint blocked time (how long one rank stalled for
// one checkpoint, derived from successive stats frames), and the
// ccift_rank_* families break checkpoints, blocked time and incarnation
// out per rank via a rank label.

// blockedBuckets are the ccift_checkpoint_blocked_ns histogram bounds:
// 100µs to 10s in decades, in nanoseconds — checkpoint stalls below 100µs
// are noise and above 10s are an outage, both fine in overflow buckets.
var blockedBuckets = [...]float64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// metricsRun is one Launch's endpoint and the run's stats it renders.
type metricsRun struct {
	ln  net.Listener
	srv *http.Server

	mu       sync.Mutex
	total    protocol.Stats // the aggregator's cumulative total
	restarts int
	// blocked holds the histogram's per-bucket (not cumulative) counts,
	// the last one the overflow; blockedSum is the sum of the observations.
	blocked    [len(blockedBuckets) + 1]int64
	blockedSum float64
	// windows remembers each rank's previous frame (plus the totals of its
	// superseded incarnations) so observe can turn cumulative snapshots
	// into per-checkpoint histogram observations and keep the per-rank
	// totals monotone through rollbacks. Indexed by rank.
	windows []rankWindow
}

// rankWindow is one rank's delta-tracking state across stats frames.
type rankWindow struct {
	frame       protocol.StatsFrame // newest accepted frame of the current incarnation
	baseCkpts   int64               // checkpoints from superseded incarnations
	baseBlocked int64               // blocked ns from superseded incarnations
}

// newMetricsRun starts serving a run of ranks ranks on addr.
func newMetricsRun(addr string, ranks int) (*metricsRun, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: WithMetricsAddr: metrics: listen %s: %w", cerr.ErrSpec, addr, err)
	}
	m := &metricsRun{ln: ln, windows: make([]rankWindow, ranks)}
	m.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, m.render())
	})}
	go func() { _ = m.srv.Serve(ln) }()
	return m, nil
}

// observe is the aggregator hook: keep the cumulative total, and fold the
// frame into its rank's window and the blocked-time histogram. The
// aggregator only hands us accepted frames (stale incarnations are
// dropped before the hook), so deltas within an incarnation are >= 0.
func (m *metricsRun) observe(total protocol.Stats, f protocol.StatsFrame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = total
	w := &m.windows[f.Rank]
	if f.Incarnation > w.frame.Incarnation {
		// The rank restarted: its new incarnation counts from zero again.
		w.baseCkpts += w.frame.Stats.CheckpointsTaken
		w.baseBlocked += w.frame.Stats.CheckpointBlockedNs
		w.frame = protocol.StatsFrame{Rank: f.Rank, Incarnation: f.Incarnation}
	}
	if dCkpts := f.Stats.CheckpointsTaken - w.frame.Stats.CheckpointsTaken; dCkpts > 0 {
		// The window saw dCkpts checkpoints stall for dBlocked in total;
		// each is filed at the window's mean — the finest attribution
		// cumulative counters admit, exact when frames are per-checkpoint.
		per := float64(f.Stats.CheckpointBlockedNs-w.frame.Stats.CheckpointBlockedNs) / float64(dCkpts)
		m.blocked[sort.SearchFloat64s(blockedBuckets[:], per)] += dCkpts
		for i := int64(0); i < dCkpts; i++ {
			m.blockedSum += per
		}
	}
	w.frame = f
}

func (m *metricsRun) onRestart(restarts int) {
	m.mu.Lock()
	m.restarts = restarts
	m.mu.Unlock()
}

// render writes the exposition: every series under its HELP and TYPE
// lines, sorted by name, the per-rank children in rank order.
func (m *metricsRun) render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	for _, s := range exposition {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, s.typ)
		s.write(&b, s.name, m)
	}
	return b.String()
}

// series is one exported family: its name, TYPE and HELP, and the sample
// lines a scrape writes under them.
type series struct {
	name, typ, help string
	write           func(b *strings.Builder, name string, m *metricsRun)
}

// exposition is every series, sorted by name. The protocol counters are
// named from Stats' json tags, so the series and the counters the frames
// carry can never drift.
var exposition = func() []series {
	all := []series{
		{"ccift_restarts_total", "counter", "Rollback-restarts performed by this run.",
			func(b *strings.Builder, name string, m *metricsRun) { fmt.Fprintf(b, "%s %d\n", name, m.restarts) }},
		{"ccift_incarnation", "gauge", "Newest incarnation observed (0 = initial execution).",
			func(b *strings.Builder, name string, m *metricsRun) {
				inc := 0
				for _, w := range m.windows {
					inc = max(inc, w.frame.Incarnation)
				}
				fmt.Fprintf(b, "%s %d\n", name, inc)
			}},
		{"ccift_checkpoint_dedup_ratio", "gauge", "Fraction of serialized checkpoint bytes NOT written thanks to chunk dedup (0 = everything written).",
			func(b *strings.Builder, name string, m *metricsRun) {
				var ratio float64
				if t := m.total; t.CheckpointBytes > 0 {
					ratio = 1 - float64(t.CheckpointBytesWritten)/float64(t.CheckpointBytes)
				}
				fmt.Fprintf(b, "%s %s\n", name, fmtFloat(ratio))
			}},
		{"ccift_ranks", "gauge", "World size of the run.",
			func(b *strings.Builder, name string, m *metricsRun) { fmt.Fprintf(b, "%s %d\n", name, len(m.windows)) }},
		{"ccift_checkpoint_blocked_ns", "histogram", "Per-checkpoint blocked time of one rank, in nanoseconds (derived from successive stats frames).",
			func(b *strings.Builder, name string, m *metricsRun) {
				var cum int64
				for i, bound := range blockedBuckets {
					cum += m.blocked[i]
					fmt.Fprintf(b, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(bound), cum)
				}
				cum += m.blocked[len(blockedBuckets)]
				fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n", name, cum, name, fmtFloat(m.blockedSum), name, cum)
			}},
		perRank("ccift_rank_checkpoints_total", "counter", "Local checkpoints taken by each rank, cumulative across incarnations.",
			func(w rankWindow) int64 { return w.baseCkpts + w.frame.Stats.CheckpointsTaken }),
		perRank("ccift_rank_checkpoint_blocked_ns_total", "counter", "Nanoseconds each rank spent blocked in checkpoints, cumulative across incarnations.",
			func(w rankWindow) int64 { return w.baseBlocked + w.frame.Stats.CheckpointBlockedNs }),
		perRank("ccift_rank_incarnation", "gauge", "Newest incarnation observed per rank (0 = initial execution).",
			func(w rankWindow) int64 { return int64(w.frame.Incarnation) }),
	}
	t := reflect.TypeOf(protocol.Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" || f.Type.Kind() != reflect.Int64 {
			continue
		}
		all = append(all, series{"ccift_" + tag + "_total", "counter",
			"Protocol counter " + f.Name + ", summed over ranks, cumulative across incarnations.",
			func(b *strings.Builder, name string, m *metricsRun) {
				fmt.Fprintf(b, "%s %d\n", name, reflect.ValueOf(m.total).Field(i).Int())
			}})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	return all
}()

// perRank is a family with one child per rank, labeled rank="<r>".
func perRank(name, typ, help string, value func(rankWindow) int64) series {
	return series{name, typ, help, func(b *strings.Builder, name string, m *metricsRun) {
		for r, w := range m.windows {
			fmt.Fprintf(b, "%s{rank=\"%d\"} %d\n", name, r, value(w))
		}
	}}
}

// fmtFloat renders integral values without an exponent or trailing zeros,
// as scrapers (and humans reading curl output) expect.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func (m *metricsRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = m.srv.Shutdown(ctx)
}

// addr returns the endpoint's bound address (host:port), useful when the
// spec asked for ":0".
func (m *metricsRun) addr() string { return m.ln.Addr().String() }
