package storage

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func testStable(t *testing.T, s Stable) {
	t.Helper()
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if err := s.Put("a/b", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/c", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/b", []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	b, err := s.Get("a/b")
	if err != nil || string(b) != "replaced" {
		t.Fatalf("Get a/b = %q, %v", b, err)
	}
	keys, err := s.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a/b" || keys[1] != "a/c" {
		t.Fatalf("List = %v", keys)
	}
	if err := s.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a/b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
	if err := s.Delete("a/b"); err != nil {
		t.Fatalf("double delete should be a no-op: %v", err)
	}
}

func TestMemoryStable(t *testing.T) { testStable(t, NewMemory()) }

func TestDiskStable(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStable(t, d)
}

func TestMemoryIsolation(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3}
	if err := m.Put("k", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // caller mutation must not affect the stored blob
	got, err := m.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("Put must copy its input")
	}
	got[1] = 99 // returned blob mutation must not affect the store
	got2, _ := m.Get("k")
	if got2[1] != 2 {
		t.Fatal("Get must return a copy")
	}
}

func TestMemoryBytesWritten(t *testing.T) {
	m := NewMemory()
	_ = m.Put("a", make([]byte, 10))
	_ = m.Put("b", make([]byte, 5))
	if m.bytesWritten != 15 {
		t.Fatalf("bytes written = %d", m.bytesWritten)
	}
}

func TestThrottledBandwidth(t *testing.T) {
	m := NewMemory()
	var slept time.Duration
	th := NewThrottled(m, 1000) // 1000 B/s
	th.Sleep = func(d time.Duration) { slept += d }
	if err := th.Put("k", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	// 500 bytes at 1000 B/s should cost ~0.5s of simulated time.
	if slept < 400*time.Millisecond || slept > 600*time.Millisecond {
		t.Fatalf("slept %v, want ~500ms", slept)
	}
	// Reads are not throttled.
	if _, err := th.Get("k"); err != nil {
		t.Fatal(err)
	}
}

func TestThrottledDisabled(t *testing.T) {
	th := NewThrottled(NewMemory(), 0)
	th.Sleep = func(time.Duration) { t.Fatal("should not sleep when disabled") }
	if err := th.Put("k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointStoreCommit(t *testing.T) {
	cs := NewCheckpointStore(NewMemory())
	if _, ok, err := cs.Committed(); err != nil || ok {
		t.Fatalf("fresh store: ok=%v err=%v", ok, err)
	}
	if err := cs.PutState(0, 3, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := cs.PutLog(0, 3, []byte("log")); err != nil {
		t.Fatal(err)
	}
	if err := cs.Commit(0); err != nil {
		t.Fatal(err)
	}
	e, ok, err := cs.Committed()
	if err != nil || !ok || e != 0 {
		t.Fatalf("committed = %d, %v, %v", e, ok, err)
	}
	if err := cs.Commit(1); err != nil {
		t.Fatal(err)
	}
	e, ok, _ = cs.Committed()
	if !ok || e != 1 {
		t.Fatalf("committed = %d, %v", e, ok)
	}
	st, err := cs.GetState(0, 3)
	if err != nil || string(st) != "state" {
		t.Fatalf("GetState = %q, %v", st, err)
	}
	lg, err := cs.GetLog(0, 3)
	if err != nil || string(lg) != "log" {
		t.Fatalf("GetLog = %q, %v", lg, err)
	}
}

func TestCheckpointKeysDistinct(t *testing.T) {
	f := func(e1, r1, e2, r2 uint8) bool {
		if e1 == e2 && r1 == r2 {
			return true
		}
		return StateKey(int(e1), int(r1)) != StateKey(int(e2), int(r2)) &&
			LogKey(int(e1), int(r1)) != LogKey(int(e2), int(r2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThrottledRateIsEnforced(t *testing.T) {
	// 1 MB at 10 MB/s must take ≈100 ms; allow generous scheduling slack
	// downward but reject an unthrottled (instant) write.
	th := NewThrottled(NewMemory(), 10e6)
	start := time.Now()
	if err := th.Put("k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("1 MB at 10 MB/s finished in %v; throttle not applied", elapsed)
	}
	got, err := th.Get("k")
	if err != nil || len(got) != 1<<20 {
		t.Fatalf("get: %v, %d bytes", err, len(got))
	}
}

func TestThrottledReadsAreNotThrottled(t *testing.T) {
	th := NewThrottled(NewMemory(), 1) // 1 B/s: any throttled op would hang
	if err := th.Inner.Put("k", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := th.Get("k"); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("read was throttled")
	}
}

func TestDiskKeysWithSlashes(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := StateKey(12, 3) // "ckpt/00000012/state.0003"
	if err := d.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil || string(got) != "payload" {
		t.Fatalf("get: %v %q", err, got)
	}
	keys, err := d.List("ckpt/00000012/")
	if err != nil || len(keys) != 1 {
		t.Fatalf("list: %v %v", err, keys)
	}
}

func TestCommitOverwrite(t *testing.T) {
	cs := NewCheckpointStore(NewMemory())
	for _, e := range []int{1, 2, 5} {
		if err := cs.Commit(e); err != nil {
			t.Fatal(err)
		}
		got, ok, err := cs.Committed()
		if err != nil || !ok || got != e {
			t.Fatalf("committed = %d %v %v, want %d", got, ok, err, e)
		}
	}
}
