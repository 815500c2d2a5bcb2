// Package trace records protocol events and renders them as the kind of
// space-time diagram the paper uses throughout (Figures 3 and 5): one
// timeline per rank, epoch boundaries marked, messages classified as late,
// intra-epoch or early. It exists for debugging, for the c3run -trace
// flag, and as an executable form of the paper's figures.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"ccift/internal/protocol"
)

// Recorder collects protocol events from all ranks. It implements
// protocol.Tracer and is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []protocol.TraceEvent
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Trace implements protocol.Tracer.
func (r *Recorder) Trace(e protocol.TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// snapshot returns a copy of the recorded events in arrival order.
func (r *Recorder) snapshot() []protocol.TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]protocol.TraceEvent, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// glyphs maps event kinds to single-character timeline marks. 'x' for a
// local checkpoint follows the paper's figures.
func glyph(k protocol.TraceKind) byte {
	switch k {
	case protocol.TraceSend:
		return 's'
	case protocol.TraceSendSuppressed:
		return '!'
	case protocol.TraceRecvIntra:
		return 'r'
	case protocol.TraceRecvLate:
		return 'L'
	case protocol.TraceRecvEarly:
		return 'E'
	case protocol.TraceReplayLate:
		return '^'
	case protocol.TraceCheckpoint:
		return 'x'
	case protocol.TraceLogFinalized:
		return 'F'
	case protocol.TraceCommit:
		return 'C'
	case protocol.TraceCollective:
		return 'o'
	}
	return '?'
}

// Timeline renders the space-time diagram: one row per rank, one column
// per recorded event (global arrival order), '-' where the rank was idle.
//
//	P0: --s---x--F----C
//	P1: ---s--r-x-L-F--
//	P2: s------x--F----
//
// reads exactly like the paper's Figure 3: checkpoints at 'x', a late
// message logged at 'L', logging finalized at 'F', the global commit at
// 'C'. Long traces are truncated to the last maxCols events.
func (r *Recorder) Timeline(ranks int) string {
	const maxCols = 160
	events := r.snapshot()
	if len(events) > maxCols {
		events = events[len(events)-maxCols:]
	}
	rows := make([][]byte, ranks)
	for i := range rows {
		rows[i] = []byte(strings.Repeat("-", len(events)))
	}
	for col, e := range events {
		if e.Rank >= 0 && e.Rank < ranks {
			rows[e.Rank][col] = glyph(e.Kind)
		}
	}
	var b strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-2d %s\n", i, row)
	}
	b.WriteString("    s send  r recv  L late(logged)  E early(recorded)  x checkpoint\n")
	b.WriteString("    F log finalized  C commit  o collective  ! send suppressed  ^ late replayed\n")
	return b.String()
}

// Summary aggregates event counts per kind.
func (r *Recorder) Summary() string {
	counts := map[protocol.TraceKind]int{}
	for _, e := range r.snapshot() {
		counts[e.Kind]++
	}
	kinds := []protocol.TraceKind{
		protocol.TraceSend, protocol.TraceRecvIntra, protocol.TraceRecvLate,
		protocol.TraceRecvEarly, protocol.TraceCheckpoint, protocol.TraceLogFinalized,
		protocol.TraceCommit, protocol.TraceCollective, protocol.TraceSendSuppressed,
		protocol.TraceReplayLate,
	}
	var b strings.Builder
	for _, k := range kinds {
		if counts[k] > 0 {
			fmt.Fprintf(&b, "%-16s %d\n", k, counts[k])
		}
	}
	return b.String()
}
