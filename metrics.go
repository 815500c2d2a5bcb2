package ccift

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"ccift/internal/cerr"
	"ccift/internal/metrics"
	"ccift/internal/protocol"
)

// The metrics endpoint. WithMetricsAddr starts a plain-HTTP listener for
// the duration of a Launch; GET /metrics returns Prometheus text
// exposition. Every protocol counter is exported as
// ccift_<wire name>_total (e.g. ccift_checkpoint_blocked_ns_total),
// summed across ranks and accumulated across incarnations — counters stay
// monotone through rollbacks, as a scraper requires — plus
// ccift_restarts_total, ccift_ranks, and ccift_incarnation. All series
// are registered up front, so a scrape early in the run sees the full set
// at zero.
//
// Two finer-grained views ride along: ccift_checkpoint_blocked_ns is a
// histogram of per-checkpoint blocked time (how long one rank stalled for
// one checkpoint, derived from successive stats frames), and the
// ccift_rank_* families break checkpoints, blocked time and incarnation
// out per rank via a rank label.

// blockedBuckets are the ccift_checkpoint_blocked_ns histogram bounds:
// 100µs to 10s in decades, in nanoseconds — checkpoint stalls below 100µs
// are noise and above 10s are an outage, both fine in overflow buckets.
var blockedBuckets = []float64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// metricsRun is one Launch's live registry + endpoint.
type metricsRun struct {
	reg         *metrics.Registry
	srv         *metrics.Server
	counters    map[string]*metrics.Counter // Stats field name -> counter
	restarts    *metrics.Counter
	incarnation *metrics.Gauge
	dedup       *metrics.Gauge

	blocked         *metrics.Histogram
	rankCkpts       *metrics.CounterVec
	rankBlocked     *metrics.CounterVec
	rankIncarnation *metrics.GaugeVec
	// last remembers each rank's previous frame (plus the totals of its
	// superseded incarnations) so observe can turn cumulative snapshots
	// into per-checkpoint histogram observations and keep the per-rank
	// counters monotone through rollbacks. Only touched from observe,
	// which the aggregator serializes.
	last map[int]*rankWindow
}

// rankWindow is one rank's delta-tracking state across stats frames.
type rankWindow struct {
	frame       protocol.StatsFrame // newest accepted frame of the current incarnation
	baseCkpts   int64               // checkpoints from superseded incarnations
	baseBlocked int64               // blocked ns from superseded incarnations
}

// newMetricsRun builds the registry (every series declared immediately)
// and starts serving it on addr.
func newMetricsRun(addr string, ranks int) (*metricsRun, error) {
	m := &metricsRun{
		reg:      metrics.NewRegistry(),
		counters: map[string]*metrics.Counter{},
		last:     map[int]*rankWindow{},
	}
	// One counter per protocol counter, named from its json tag so the
	// metric set and the counters the frames carry can never drift.
	t := reflect.TypeOf(protocol.Stats{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if tag == "" || f.Type.Kind() != reflect.Int64 {
			continue
		}
		m.counters[f.Name] = m.reg.Counter("ccift_"+tag+"_total",
			"Protocol counter "+f.Name+", summed over ranks, cumulative across incarnations.")
	}
	m.restarts = m.reg.Counter("ccift_restarts_total", "Rollback-restarts performed by this run.")
	m.incarnation = m.reg.Gauge("ccift_incarnation", "Newest incarnation observed (0 = initial execution).")
	m.dedup = m.reg.Gauge("ccift_checkpoint_dedup_ratio",
		"Fraction of serialized checkpoint bytes NOT written thanks to chunk dedup (0 = everything written).")
	m.reg.Gauge("ccift_ranks", "World size of the run.").Set(float64(ranks))
	m.blocked = m.reg.Histogram("ccift_checkpoint_blocked_ns",
		"Per-checkpoint blocked time of one rank, in nanoseconds (derived from successive stats frames).",
		blockedBuckets)
	m.rankCkpts = m.reg.CounterVec("ccift_rank_checkpoints_total",
		"Local checkpoints taken by each rank, cumulative across incarnations.", "rank")
	m.rankBlocked = m.reg.CounterVec("ccift_rank_checkpoint_blocked_ns_total",
		"Nanoseconds each rank spent blocked in checkpoints, cumulative across incarnations.", "rank")
	m.rankIncarnation = m.reg.GaugeVec("ccift_rank_incarnation",
		"Newest incarnation observed per rank (0 = initial execution).", "rank")
	// Per-rank children exist from the first scrape, at zero.
	for r := 0; r < ranks; r++ {
		lv := strconv.Itoa(r)
		m.rankCkpts.With(lv)
		m.rankBlocked.With(lv)
		m.rankIncarnation.With(lv)
	}

	srv, err := m.reg.Serve(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: WithMetricsAddr: %w", cerr.ErrSpec, err)
	}
	m.srv = srv
	return m, nil
}

// observe is the aggregator hook: refresh every exported series from the
// cumulative total. Totals are monotone (the aggregator folds superseded
// incarnations into its base), so Set preserves counter semantics.
func (m *metricsRun) observe(total protocol.Stats, f protocol.StatsFrame) {
	v := reflect.ValueOf(total)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if c := m.counters[t.Field(i).Name]; c != nil {
			c.Set(v.Field(i).Int())
		}
	}
	if inc := float64(f.Incarnation); inc > m.incarnation.Value() {
		m.incarnation.Set(inc)
	}
	if total.CheckpointBytes > 0 {
		m.dedup.Set(1 - float64(total.CheckpointBytesWritten)/float64(total.CheckpointBytes))
	}

	// Per-rank view and the blocked-time histogram, from frame deltas. The
	// aggregator only hands us accepted frames (stale incarnations are
	// dropped before the hook), so deltas within an incarnation are >= 0.
	w := m.last[f.Rank]
	if w == nil {
		w = &rankWindow{}
		m.last[f.Rank] = w
	}
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
		for i := int64(0); i < dCkpts; i++ {
			m.blocked.Observe(per)
		}
	}
	w.frame = f
	lv := strconv.Itoa(f.Rank)
	m.rankCkpts.With(lv).Set(w.baseCkpts + f.Stats.CheckpointsTaken)
	m.rankBlocked.With(lv).Set(w.baseBlocked + f.Stats.CheckpointBlockedNs)
	if g := m.rankIncarnation.With(lv); float64(f.Incarnation) > g.Value() {
		g.Set(float64(f.Incarnation))
	}
}

func (m *metricsRun) onRestart(restarts int) { m.restarts.Set(int64(restarts)) }

func (m *metricsRun) close() {
	if m.srv != nil {
		m.srv.Close()
	}
}

// Addr returns the endpoint's bound address (host:port), useful when the
// spec asked for ":0".
func (m *metricsRun) addr() string { return m.srv.Addr() }
