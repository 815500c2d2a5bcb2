package protocol

import (
	"reflect"
	"sort"
	"sync"

	"ccift/internal/wire"
)

// StatsFrame is a cumulative snapshot of one rank's counters in one
// incarnation. Final marks the rank's last frame of an incarnation (emitted
// as it ends). A distributed worker ships Incarnation, Final and Stats to
// its launcher as a control frame, and the launcher fills in Rank from the
// stream the frame arrived on. V is not carried on the wire: it stays only
// while the benchmark module sets it, and goes with the next change there.
type StatsFrame struct {
	V           int   `json:"v"`
	Rank        int   `json:"rank"`
	Incarnation int   `json:"incarnation"`
	Final       bool  `json:"final,omitempty"`
	Stats       Stats `json:"stats"`
}

// Code is the counters' one layout, as a worker ships them to its launcher:
// every int64 field in declaration order, walked as Add walks them, so a
// counter added to Stats crosses the stream with no edit here.
func (s *Stats) Code(c *wire.Codec) {
	sv := reflect.ValueOf(s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Kind() == reflect.Int64 {
			wire.Int(c, f.Addr().Interface().(*int64))
		}
	}
}

// Add accumulates o's counters into s field-by-field. It walks the struct
// reflectively so a counter added to Stats is summed without anyone
// remembering to update this method.
func (s *Stats) Add(o Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + ov.Field(i).Int())
		}
	}
}

// RankStats is one rank's counters in the incarnation that produced them —
// the per-rank element of a run's observability result.
type RankStats struct {
	Rank        int   `json:"rank"`
	Incarnation int   `json:"incarnation"`
	Stats       Stats `json:"stats"`
}

// Aggregator folds a stream of stats frames — from any substrate, any
// number of incarnations — into the two views a run reports: the latest
// per-rank snapshots and a whole-run cumulative total.
//
// Counters reset when an incarnation rolls back and its ranks restart, so
// the aggregator keys the latest snapshot per rank on that rank's newest
// incarnation and folds superseded incarnations into a base. Total is
// therefore monotone across restarts, which is what a Prometheus counter
// scraped mid-run requires.
type Aggregator struct {
	mu   sync.Mutex
	base Stats              // counters of superseded incarnations, all ranks
	cur  map[int]StatsFrame // rank -> latest frame of its newest incarnation
	onOb func(total Stats, f StatsFrame)
}

// NewAggregator returns an empty aggregator. onObserve, when non-nil, runs
// under the aggregator's lock after each accepted frame with the updated
// cumulative total — the hook the metrics endpoint folds frames in from.
func NewAggregator(onObserve func(total Stats, f StatsFrame)) *Aggregator {
	return &Aggregator{cur: make(map[int]StatsFrame), onOb: onObserve}
}

// Observe folds one frame in. Safe for concurrent use (rank goroutines and
// per-worker control-stream watchers all feed the same aggregator).
func (a *Aggregator) Observe(f StatsFrame) {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev, ok := a.cur[f.Rank]
	switch {
	case !ok || f.Incarnation > prev.Incarnation:
		// New incarnation for this rank: the superseded one's counters are
		// history that must keep counting, so fold them into the base.
		if ok {
			a.base.Add(prev.Stats)
		}
		a.cur[f.Rank] = f
	case f.Incarnation == prev.Incarnation:
		// Cumulative snapshots: latest wins.
		a.cur[f.Rank] = f
	default:
		// A stale frame from a dead incarnation raced in after its
		// successor; drop it.
		return
	}
	if a.onOb != nil {
		a.onOb(a.totalLocked(), f)
	}
}

// totalLocked returns the whole-run cumulative counters: every superseded
// incarnation plus the latest snapshot of each rank's current one.
func (a *Aggregator) totalLocked() Stats {
	t := a.base
	for _, f := range a.cur {
		t.Add(f.Stats)
	}
	return t
}

// PerRank returns the latest snapshot of each rank's newest incarnation,
// sorted by rank — the distributed substrate's answer to reading
// layer.Stats off every in-process rank.
func (a *Aggregator) PerRank() []RankStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]RankStats, 0, len(a.cur))
	for _, f := range a.cur {
		out = append(out, RankStats{Rank: f.Rank, Incarnation: f.Incarnation, Stats: f.Stats})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// FinalStats returns PerRank flattened to the bare per-rank Stats slice
// (indexed by position, ranks sorted), for callers that want the engine
// Result.Stats shape.
func (a *Aggregator) FinalStats() []Stats {
	pr := a.PerRank()
	out := make([]Stats, len(pr))
	for i, r := range pr {
		out[i] = r.Stats
	}
	return out
}
