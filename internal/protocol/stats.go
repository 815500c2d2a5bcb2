package protocol

// The cross-process stats stream. A distributed worker emits its protocol
// counters as newline-delimited JSON frames on a pipe the launcher holds
// the read end of (CCIFT_STATS_FD); the launcher feeds every frame into an
// Aggregator, which reconstructs per-rank and whole-run views identical to
// what the in-process substrate reads straight out of its layers.
//
// The wire form is versioned and decoded tolerantly: unknown fields —
// counters a newer worker grew — are ignored, so a launcher never breaks
// when scraping a newer worker's stream. Renaming or reusing a json tag is
// the only breaking change; don't.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
)

// StatsWireVersion is the version stamped on every emitted frame. Bump it
// only for changes an old launcher cannot ignore (added fields are NOT
// that — tolerant decode absorbs them).
const StatsWireVersion = 1

// StatsFrame is one line of the stats stream: a cumulative snapshot of one
// rank's counters in one incarnation. Final marks the rank's last frame of
// an incarnation (emitted as its worker shuts down).
type StatsFrame struct {
	V           int   `json:"v"`
	Rank        int   `json:"rank"`
	Incarnation int   `json:"incarnation"`
	Final       bool  `json:"final,omitempty"`
	Stats       Stats `json:"stats"`
}

// WriteStatsFrame emits f as one JSON line on w, stamping the current wire
// version.
func WriteStatsFrame(w io.Writer, f StatsFrame) error {
	f.V = StatsWireVersion
	b, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("protocol: encode stats frame: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// parseStatsFrame decodes one line of the stream. Unknown fields (at any
// nesting level) are ignored so newer emitters interoperate with older
// readers; a missing or zero version marks the line as not a stats frame.
func parseStatsFrame(line []byte) (StatsFrame, error) {
	var f StatsFrame
	if err := json.Unmarshal(line, &f); err != nil {
		return StatsFrame{}, fmt.Errorf("protocol: decode stats frame: %w", err)
	}
	if f.V < 1 {
		return StatsFrame{}, fmt.Errorf("protocol: stats frame without version field")
	}
	return f, nil
}

// ReadStatsFrames consumes newline-delimited frames from r until EOF,
// calling sink for each well-formed frame. Malformed lines are skipped —
// a worker dying mid-write must not poison the frames already received.
func ReadStatsFrames(r io.Reader, sink func(StatsFrame)) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if f, err := parseStatsFrame(line); err == nil {
			sink(f)
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
// under the aggregator's lock after each frame with the updated cumulative
// total — the hook a metrics registry refreshes from.
func NewAggregator(onObserve func(total Stats, f StatsFrame)) *Aggregator {
	return &Aggregator{cur: make(map[int]StatsFrame), onOb: onObserve}
}

// Observe folds one frame in. Safe for concurrent use (rank goroutines and
// per-worker pipe readers all feed the same aggregator).
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
