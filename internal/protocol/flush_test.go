package protocol

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ccift/internal/cerr"
	"ccift/internal/mpi"
	"ccift/internal/storage"
)

// A flush ends in one of three ways — its completion event reaches the
// rank, the rank ran it inline (no AsyncFlush), or Shutdown drained it — and
// all three go through finishFlush. These tests drive each end on a
// one-rank world, with a store that holds the state manifest's Put until
// the test lets it go (so "in flight" is a state, not a race) or fails it.

type gatedStore struct {
	storage.Stable
	gate chan struct{} // closed: manifest Puts proceed
	fail error         // returned by manifest Puts instead of storing
}

func (g *gatedStore) Put(key string, data []byte) error {
	if strings.Contains(key, "/state.") {
		<-g.gate
		if g.fail != nil {
			return g.fail
		}
	}
	return g.Stable.Put(key, data)
}

// checkpointing builds a one-rank Full layer over g with 1 KB of state and
// takes its first local checkpoint.
func checkpointing(t *testing.T, g *gatedStore, ctx context.Context, async bool) *Layer {
	t.Helper()
	w := mpi.NewWorld(1, mpi.Options{})
	l := NewLayer(w.Comm(0), Config{Mode: Full, Store: storage.NewCheckpointStore(g), Ctx: ctx,
		AsyncFlush: async, Debug: true})
	state := make([]byte, 1024)
	if err := l.Saver.VDS.Push("state", &state); err != nil {
		t.Fatal(err)
	}
	l.requestCheckpoint()
	l.PotentialCheckpoint()
	if l.Epoch() != 1 {
		t.Fatalf("epoch %d after the first checkpoint", l.Epoch())
	}
	return l
}

// retainedBlob serializes a retained checkpoint's frozen view the way the
// store holds it.
func retainedBlob(t *testing.T, r *RetainedState) []byte {
	t.Helper()
	app, err := r.Frozen.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func open() chan struct{} { c := make(chan struct{}); close(c); return c }

func TestFlushEndsIntegrateAlike(t *testing.T) {
	ends := map[string]func(l *Layer, g *gatedStore){
		"completion event": func(l *Layer, g *gatedStore) {
			close(g.gate)
			l.ServiceControlUntil(func() bool { return l.flush == nil })
		},
		"drain at shutdown": func(l *Layer, g *gatedStore) {
			close(g.gate)
			if err := l.Shutdown(); err != nil {
				t.Fatal(err)
			}
		},
	}
	inline := checkpointing(t, &gatedStore{Stable: storage.NewMemory(), gate: open()}, nil, false)
	if inline.flush != nil || inline.Stats.CheckpointBytes == 0 || inline.ring[0].Frozen == nil {
		t.Fatalf("inline write not integrated on return: flush %v, %d bytes, retained %v", inline.flush, inline.Stats.CheckpointBytes, inline.ring[0].Frozen != nil)
	}
	for name, end := range ends {
		g := &gatedStore{Stable: storage.NewMemory(), gate: make(chan struct{})}
		l := checkpointing(t, g, nil, true)
		if l.flush == nil || l.Stats.CheckpointBytes != 0 || l.m.stopSent {
			t.Fatalf("%s: the held flush reads as finished: flush %v, %d bytes, stopSent %v", name, l.flush, l.Stats.CheckpointBytes, l.m.stopSent)
		}
		end(l, g)
		if l.flush != nil {
			t.Fatalf("%s: flush still pending", name)
		}
		if got, want := l.Stats.CheckpointBytes, inline.Stats.CheckpointBytes; got != want {
			t.Fatalf("%s: %d checkpoint bytes, the inline write integrated %d", name, got, want)
		}
		if !bytes.Equal(retainedBlob(t, l.ring[0]), retainedBlob(t, inline.ring[0])) {
			t.Fatalf("%s: the retained view differs from the inline write's", name)
		}
		if err := l.Shutdown(); err != nil { // idempotent
			t.Fatalf("%s: second Shutdown: %v", name, err)
		}
	}
}

func TestFlushFailureReachesTheRankOnEveryEnd(t *testing.T) {
	boom := errors.New("disk on fire")
	caught := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	// Inline: the rank panics out of PotentialCheckpoint with the store error.
	p := caught(func() {
		checkpointing(t, &gatedStore{Stable: storage.NewMemory(), gate: open(), fail: boom}, nil, false)
	})
	if err, ok := p.(error); !ok || !errors.Is(err, cerr.ErrStore) || !errors.Is(err, boom) {
		t.Fatalf("inline: panic %v, want a store-category error wrapping the cause", p)
	}
	// Event: the rank panics where it services the completion.
	g := &gatedStore{Stable: storage.NewMemory(), gate: make(chan struct{}), fail: boom}
	l := checkpointing(t, g, nil, true)
	close(g.gate)
	p = caught(func() { l.ServiceControlUntil(func() bool { return false }) })
	if err, ok := p.(error); !ok || !errors.Is(err, cerr.ErrStore) || !errors.Is(err, boom) {
		t.Fatalf("event: panic %v, want a store-category error wrapping the cause", p)
	}
	// Drain: Shutdown returns it and does not panic.
	g = &gatedStore{Stable: storage.NewMemory(), gate: make(chan struct{}), fail: boom}
	l = checkpointing(t, g, nil, true)
	close(g.gate)
	if err := l.Shutdown(); !errors.Is(err, cerr.ErrStore) || !errors.Is(err, boom) {
		t.Fatalf("drain: Shutdown returned %v, want a store-category error wrapping the cause", err)
	}
	// A canceled run: the write aborts on the context; the drain is silent
	// (the run is unwinding already) and the live path raises ErrCanceled.
	for _, drain := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		g = &gatedStore{Stable: storage.NewMemory(), gate: make(chan struct{}), fail: context.Canceled}
		l = checkpointing(t, g, ctx, true)
		close(g.gate)
		if drain {
			if err := l.Shutdown(); err != nil {
				t.Fatalf("drain of a canceled flush: %v, want nil", err)
			}
			cancel()
			continue
		}
		if p := caught(func() { l.ServiceControlUntil(func() bool { return false }) }); p != mpi.ErrCanceled {
			t.Fatalf("event of a canceled flush: panic %v, want mpi.ErrCanceled", p)
		}
		cancel()
	}
}
