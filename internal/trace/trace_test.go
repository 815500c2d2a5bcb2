package trace

import (
	"fmt"
	"strings"
	"testing"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

func TestRecorderCollectsClassifiedEvents(t *testing.T) {
	rec := New()
	w := mpi.NewWorld(2, mpi.Options{})
	store := storage.NewCheckpointStore(storage.NewMemory())
	mk := func(r int) *protocol.Layer {
		return protocol.NewLayer(w.Comm(r), protocol.Config{
			Mode: protocol.Full, Store: store, Debug: true, Tracer: rec, EveryN: 1,
		})
	}
	P, Q := mk(0), mk(1)

	P.PotentialCheckpoint() // EveryN 1: the initiator's first call starts a global checkpoint
	P.Send(1, 1, []byte("will-be-late"))
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	Q.Recv(0, 1) // late

	Q.Send(0, 2, []byte("intra"))
	P.Recv(1, 2) // intra-epoch

	if got := rec.count(protocol.TraceRecvLate); got != 1 {
		t.Fatalf("late events = %d", got)
	}
	if got := rec.count(protocol.TraceRecvIntra); got != 1 {
		t.Fatalf("intra events = %d", got)
	}
	if got := rec.count(protocol.TraceCheckpoint); got != 2 {
		t.Fatalf("checkpoint events = %d", got)
	}
	if got := rec.count(protocol.TraceSend); got != 2 {
		t.Fatalf("send events = %d", got)
	}
}

func TestTimelineRendersGlyphs(t *testing.T) {
	rec := New()
	w := mpi.NewWorld(2, mpi.Options{})
	store := storage.NewCheckpointStore(storage.NewMemory())
	mk := func(r int) *protocol.Layer {
		return protocol.NewLayer(w.Comm(r), protocol.Config{
			Mode: protocol.Full, Store: store, Tracer: rec, EveryN: 1,
		})
	}
	P, Q := mk(0), mk(1)
	P.PotentialCheckpoint() // EveryN 1: the initiator's first call starts a global checkpoint
	P.Send(1, 1, []byte("m"))
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	Q.Recv(0, 1)

	out := rec.Timeline(2)
	if !strings.Contains(out, "P0 ") || !strings.Contains(out, "P1 ") {
		t.Fatalf("timeline missing rank rows:\n%s", out)
	}
	for _, glyph := range []string{"s", "x", "L"} {
		if !strings.Contains(strings.SplitN(out, "\n    ", 2)[0], glyph) {
			t.Errorf("timeline missing glyph %q:\n%s", glyph, out)
		}
	}
}

func TestArrowsClassify(t *testing.T) {
	rec := New()
	w := mpi.NewWorld(2, mpi.Options{})
	store := storage.NewCheckpointStore(storage.NewMemory())
	mk := func(r int) *protocol.Layer {
		return protocol.NewLayer(w.Comm(r), protocol.Config{
			Mode: protocol.Full, Store: store, Tracer: rec, EveryN: 1,
		})
	}
	P, Q := mk(0), mk(1)
	P.PotentialCheckpoint() // EveryN 1: the initiator's first call starts a global checkpoint
	P.Send(1, 1, []byte("m"))
	P.PotentialCheckpoint()
	Q.PotentialCheckpoint()
	Q.Recv(0, 1)

	arrows := rec.arrows()
	if !strings.Contains(arrows, "late (logged)") {
		t.Fatalf("arrows missing late classification:\n%s", arrows)
	}
	if !strings.Contains(arrows, "P0 -> P1") {
		t.Fatalf("arrows missing send:\n%s", arrows)
	}
	sum := rec.Summary()
	if !strings.Contains(sum, "recv-late") || !strings.Contains(sum, "checkpoint") {
		t.Fatalf("summary incomplete:\n%s", sum)
	}
}

func TestTimelineTruncatesLongTraces(t *testing.T) {
	rec := New()
	for i := 0; i < 1000; i++ {
		rec.Trace(protocol.TraceEvent{Rank: 0, Kind: protocol.TraceSend})
	}
	out := rec.Timeline(1)
	first := strings.SplitN(out, "\n", 2)[0]
	if len(first) > 200 {
		t.Fatalf("timeline row too long: %d chars", len(first))
	}
}

// count returns how many events of the given kind were recorded.
func (r *Recorder) count(kind protocol.TraceKind) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// arrows lists every message event with its classification, the textual
// complement to Timeline:
//
//	P <- Q  tag 1 id 3  late (logged)
func (r *Recorder) arrows() string {
	var b strings.Builder
	for _, e := range r.snapshot() {
		switch e.Kind {
		case protocol.TraceSend:
			fmt.Fprintf(&b, "P%d -> P%d  tag %d id %d  (%d B, epoch %d)\n",
				e.Rank, e.Peer, e.Tag, e.ID, e.Bytes, e.Epoch)
		case protocol.TraceRecvIntra, protocol.TraceRecvLate, protocol.TraceRecvEarly:
			class := map[protocol.TraceKind]string{
				protocol.TraceRecvIntra: "intra-epoch",
				protocol.TraceRecvLate:  "late (logged)",
				protocol.TraceRecvEarly: "early (ID recorded)",
			}[e.Kind]
			fmt.Fprintf(&b, "P%d <- P%d  tag %d id %d  %s\n",
				e.Rank, e.Peer, e.Tag, e.ID, class)
		case protocol.TraceSendSuppressed:
			fmt.Fprintf(&b, "P%d -x P%d  tag %d id %d  re-send suppressed\n",
				e.Rank, e.Peer, e.Tag, e.ID)
		case protocol.TraceReplayLate:
			fmt.Fprintf(&b, "P%d <~ P%d  tag %d  late message replayed from log\n",
				e.Rank, e.Peer, e.Tag)
		}
	}
	return b.String()
}
