package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"ccift/internal/cerr"
)

func TestLogMarshalRoundTrip(t *testing.T) {
	l := NewLog()
	l.Add(Entry{Kind: KindLate, Seq: 0, Src: 2, Tag: 7, Data: []byte("late payload")})
	l.Add(Entry{Kind: KindWildcard, Seq: 3, Src: 1, Tag: -1})
	l.Add(Entry{Kind: KindCollective, Seq: 0, Data: []byte{1, 2, 3}})
	l.Add(Entry{Kind: KindEvent, Seq: 5, Data: []byte{9}})

	back, err := UnmarshalLog(l.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 4 {
		t.Fatalf("len = %d", back.Len())
	}
	for i := range l.entries {
		a, b := l.entries[i], back.entries[i]
		if a.Kind != b.Kind || a.Seq != b.Seq || a.Src != b.Src || a.Tag != b.Tag || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("entry %d: %+v != %+v", i, a, b)
		}
	}
}

func TestLogMarshalProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog()
		for i := 0; i < int(n%40); i++ {
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			l.Add(Entry{
				Kind: EntryKind(rng.Intn(4) + 1),
				Seq:  rng.Int63n(1000),
				Src:  rng.Intn(10) - 1,
				Tag:  rng.Intn(10) - 1,
				Data: data,
			})
		}
		back, err := UnmarshalLog(l.Marshal())
		if err != nil || back.Len() != l.Len() {
			return false
		}
		for i := range l.entries {
			a, b := l.entries[i], back.entries[i]
			if a.Kind != b.Kind || a.Seq != b.Seq || a.Src != b.Src || a.Tag != b.Tag || !bytes.Equal(a.Data, b.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalLogCorrupt(t *testing.T) {
	l := NewLog()
	l.Add(Entry{Kind: KindLate, Seq: 1, Data: make([]byte, 100)})
	raw := l.Marshal()
	if _, err := UnmarshalLog(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated log should fail to parse")
	}
}

// TestUnmarshalLogRejectsWhatMarshalCannotWrite: an unknown kind, which
// replay would drop — a late message becoming a receive that waits forever
// — and a source or tag outside int32 are store-category errors.
func TestUnmarshalLogRejectsWhatMarshalCannotWrite(t *testing.T) {
	entry := func(kind byte, src, tag uint64) []byte {
		raw := []byte{1, kind, 0}
		raw = binary.AppendUvarint(raw, src)
		raw = binary.AppendUvarint(raw, tag)
		return append(raw, 0)
	}
	if _, err := UnmarshalLog(entry(byte(KindLate), 3, 7)); err != nil {
		t.Fatalf("a well-formed entry: %v", err)
	}
	for name, raw := range map[string][]byte{
		"kind 0":          entry(0, 3, 7),
		"kind 5":          entry(byte(KindEvent)+1, 3, 7),
		"source past 2³¹": entry(byte(KindLate), math.MaxInt32+3, 7),
		"tag past 2³¹":    entry(byte(KindLate), 3, math.MaxUint64),
	} {
		if _, err := UnmarshalLog(raw); !errors.Is(err, cerr.ErrStore) || !strings.Contains(fmt.Sprint(err), "corrupt log entry 0") {
			t.Fatalf("%s: %v, want a corrupt log entry in the store category", name, err)
		}
	}
}

// FuzzUnmarshalLog: arbitrary bytes never panic the log decoder nor make it
// allocate out of proportion to the input; what it accepts holds only the
// four kinds and int32 sources and tags, and survives Marshal and a second
// decode unchanged.
func FuzzUnmarshalLog(f *testing.F) {
	l := NewLog()
	l.Add(Entry{Kind: KindLate, Seq: 0, Src: 2, Tag: 7, Data: []byte("late payload")})
	l.Add(Entry{Kind: KindWildcard, Seq: 3, Src: -1, Tag: -1})
	l.Add(Entry{Kind: KindCollective, Seq: 1})
	l.Add(Entry{Kind: KindCollective, Seq: 2, Data: []byte{1, 2, 3}})
	l.Add(Entry{Kind: KindEvent, Seq: 5, Data: []byte{9}})
	valid := l.Marshal()
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(NewLog().Marshal())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8<<10 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := UnmarshalLog(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
		if err != nil {
			return
		}
		for i, e := range got.entries {
			if e.Kind < KindLate || e.Kind > KindEvent || e.Src != int(int32(e.Src)) || e.Tag != int(int32(e.Tag)) {
				t.Fatalf("entry %d accepted as %+v", i, e)
			}
		}
		again, err := UnmarshalLog(got.Marshal())
		if err != nil {
			t.Fatalf("a decoded log does not decode again: %v", err)
		}
		if !reflect.DeepEqual(normalized(again), normalized(got)) {
			t.Fatalf("round trip changed the log: %+v became %+v", got.entries, again.entries)
		}
	})
}

// normalized is a log's entries with every empty payload nil, the form
// DeepEqual compares.
func normalized(l *Log) []Entry {
	out := append([]Entry(nil), l.entries...)
	for i := range out {
		if len(out[i].Data) == 0 {
			out[i].Data = nil
		}
	}
	return out
}

func TestReplayCursors(t *testing.T) {
	l := NewLog()
	l.Add(Entry{Kind: KindLate, Seq: 2, Src: 1, Tag: 5, Data: []byte("a")})
	l.Add(Entry{Kind: KindLate, Seq: 4, Src: 1, Tag: 5, Data: []byte("b")})
	l.Add(Entry{Kind: KindCollective, Seq: 1, Data: []byte("c")})
	l.Add(Entry{Kind: KindEvent, Seq: 0, Data: []byte("e")})

	r := NewReplay(l)
	if r.Exhausted() {
		t.Fatal("fresh replay should not be exhausted")
	}
	if e := r.Late(0); e != nil {
		t.Fatal("receive 0 was not late")
	}
	if e := r.Late(2); e == nil || string(e.Data) != "a" {
		t.Fatalf("late at 2: %+v", e)
	}
	if e := r.Late(3); e != nil {
		t.Fatal("receive 3 was not late")
	}
	if e := r.Late(4); e == nil || string(e.Data) != "b" {
		t.Fatalf("late at 4: %+v", e)
	}
	if r.PendingLate() != 0 {
		t.Fatalf("pending late = %d", r.PendingLate())
	}
	if e := r.Collective(0); e != nil {
		t.Fatal("collective 0 was not logged")
	}
	if e := r.Collective(1); e == nil || string(e.Data) != "c" {
		t.Fatalf("collective at 1: %+v", e)
	}
	if e := r.Event(0); e == nil || string(e.Data) != "e" {
		t.Fatalf("event at 0: %+v", e)
	}
	if !r.Exhausted() {
		t.Fatal("replay should be exhausted")
	}
}

func TestReplayWildcardPeekConsume(t *testing.T) {
	l := NewLog()
	l.Add(Entry{Kind: KindWildcard, Seq: 1, Src: 3, Tag: 9})
	r := NewReplay(l)
	if e := r.PeekWildcard(0); e != nil {
		t.Fatal("no wildcard at 0")
	}
	if e := r.PeekWildcard(1); e == nil || e.Src != 3 {
		t.Fatalf("peek: %+v", e)
	}
	// Peek does not consume.
	if e := r.PeekWildcard(1); e == nil {
		t.Fatal("peek should not consume")
	}
	r.ConsumeWildcard(1)
	if e := r.PeekWildcard(1); e != nil {
		t.Fatal("consume should advance the cursor")
	}
	if !r.Exhausted() {
		t.Fatal("should be exhausted")
	}
}

func TestLogBytesAccounting(t *testing.T) {
	l := NewLog()
	l.Add(Entry{Kind: KindLate, Data: make([]byte, 1000)})
	if l.Bytes() < 1000 {
		t.Fatalf("Bytes = %d", l.Bytes())
	}
}
