package main

import (
	"sync"
	"time"

	"ccift/internal/protocol"
)

// stampedFrame is one stats frame with the wall-clock time it reached the
// benchmark's sink. The protocol emits a frame at each freeze (its
// CheckpointsTaken steps), at each integrated flush (its CheckpointBytes
// steps) and at Finish, so the time between a freeze frame and the next
// flushed frame of the same rank is how long that checkpoint's work stayed
// unprotected — measured entirely from outside.
type stampedFrame struct {
	AtNs int64
	F    protocol.StatsFrame
}

// frameLog is a StatsSink that timestamps frames on arrival. Safe for the
// concurrent calls both substrates make (rank goroutines, pipe readers).
type frameLog struct {
	mu     sync.Mutex
	frames []stampedFrame
}

func (l *frameLog) sink(f protocol.StatsFrame) {
	now := time.Now().UnixNano()
	l.mu.Lock()
	l.frames = append(l.frames, stampedFrame{AtNs: now, F: f})
	l.mu.Unlock()
}

func (l *frameLog) snapshot() []stampedFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stampedFrame(nil), l.frames...)
}

// ckptSample is one local checkpoint of one rank in one incarnation.
type ckptSample struct {
	Rank, Incarnation int
	// Index counts the rank's checkpoints within the incarnation from 1;
	// index 1 is the cold epoch (nothing to re-reference yet).
	Index     int
	BlockedMs float64
	FreezeNs  int64 // arrival of the freeze frame
	// FlushedNs is the arrival of the frame in which this checkpoint's
	// bytes were integrated; 0 when the incarnation died first.
	FlushedNs int64
	Bytes     int64 // logical bytes of this checkpoint
	Written   int64 // bytes stored after dedup
}

// durableMs is freeze-frame arrival to flushed-frame arrival, or -1 when
// the flush never reported (the incarnation was killed mid-flight).
func (c ckptSample) durableMs() float64 {
	if c.FlushedNs == 0 {
		return -1
	}
	return float64(c.FlushedNs-c.FreezeNs) / 1e6
}

// extractCheckpoints turns a frame stream into per-checkpoint samples.
// Counters are cumulative within one (rank, incarnation) and restart from
// zero in the next incarnation, so deltas are taken against the previous
// frame of the same pair only. At most one flush is in flight per rank,
// so a flushed frame always belongs to the oldest unflushed checkpoint.
func extractCheckpoints(frames []stampedFrame) []ckptSample {
	type key struct{ rank, inc int }
	prev := map[key]protocol.Stats{}
	open := map[key]int{} // index into out of the oldest unflushed sample
	var out []ckptSample
	for _, sf := range frames {
		k := key{sf.F.Rank, sf.F.Incarnation}
		p, s := prev[k], sf.F.Stats
		if s.CheckpointsTaken > p.CheckpointsTaken {
			out = append(out, ckptSample{
				Rank: k.rank, Incarnation: k.inc, Index: int(s.CheckpointsTaken),
				BlockedMs: float64(s.CheckpointBlockedNs-p.CheckpointBlockedNs) / 1e6,
				FreezeNs:  sf.AtNs,
			})
			if _, pending := open[k]; !pending {
				open[k] = len(out) - 1
			}
		}
		if s.CheckpointBytes > p.CheckpointBytes {
			if i, pending := open[k]; pending {
				out[i].FlushedNs = sf.AtNs
				out[i].Bytes = s.CheckpointBytes - p.CheckpointBytes
				out[i].Written = s.CheckpointBytesWritten - p.CheckpointBytesWritten
				delete(open, k)
				// A later freeze of the same pair may already be waiting.
				for j := i + 1; j < len(out); j++ {
					if out[j].Rank == k.rank && out[j].Incarnation == k.inc && out[j].FlushedNs == 0 {
						open[k] = j
						break
					}
				}
			}
		}
		prev[k] = s
	}
	return out
}

// lastFrames returns the newest frame of every (rank, incarnation), which
// carries that pair's final cumulative counters.
func lastFrames(frames []stampedFrame) []protocol.StatsFrame {
	type key struct{ rank, inc int }
	idx := map[key]int{}
	var out []protocol.StatsFrame
	for _, sf := range frames {
		k := key{sf.F.Rank, sf.F.Incarnation}
		if i, ok := idx[k]; ok {
			out[i] = sf.F
		} else {
			idx[k] = len(out)
			out = append(out, sf.F)
		}
	}
	return out
}
