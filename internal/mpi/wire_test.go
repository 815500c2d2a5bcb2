package mpi

import (
	"bytes"
	"runtime"
	"testing"
)

func TestMessageWireRoundTrip(t *testing.T) {
	cases := []*Message{
		{Source: 0, Tag: 0, ctx: 0},
		{Source: 3, Tag: 17, Header: 0xDEADBEEF, Data: []byte("hello"), ctx: 1 << 20},
		{Source: 1, Tag: -14, Data: []byte{0, 1, 2, 3, 4, 5, 6, 7}, ctx: -3},
		{Source: 1023, Tag: 1 << 30, Data: bytes.Repeat([]byte{0xAB}, 4096), ctx: (1 << 40) + 7},
	}
	for i, m := range cases {
		enc := AppendMessage(nil, m)
		if len(enc) != msgWireHeader+len(m.Data) {
			t.Fatalf("case %d: encoded %d bytes for a %d-byte payload", i, len(enc), len(m.Data))
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if got.Source != m.Source || got.Tag != m.Tag || got.Header != m.Header || got.ctx != m.ctx {
			t.Fatalf("case %d: decoded %+v, want %+v", i, got, m)
		}
		if !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("case %d: payload mismatch: %d bytes vs %d", i, len(got.Data), len(m.Data))
		}
		// The decoded payload must be a fresh copy: mutating the wire buffer
		// must not reach through.
		if len(enc) > msgWireHeader {
			enc[msgWireHeader] ^= 0xFF
			if bytes.Equal(got.Data, enc[msgWireHeader:]) {
				t.Fatalf("case %d: decoded payload aliases the wire buffer", i)
			}
		}
	}
}

func TestDecodeMessageRejectsTornFrames(t *testing.T) {
	m := &Message{Source: 2, Tag: 9, Data: []byte("payload"), ctx: 5}
	enc := AppendMessage(nil, m)
	for _, n := range []int{0, 5, msgWireHeader - 1, len(enc) - 1} {
		if _, err := DecodeMessage(enc[:n]); err == nil {
			t.Fatalf("decoding %d of %d bytes succeeded, want error", n, len(enc))
		}
	}
	if _, err := DecodeMessage(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("decoding frame with trailing garbage succeeded, want error")
	}
}

// FuzzDecodeMessage: the frame decoder every cross-process transport feeds
// from a socket never panics on arbitrary bytes and never allocates out of
// proportion to them (the length field cannot make it), and what it accepts
// survives a re-encode — Header included, which on a collective's tag
// carries the protocol's control word. The seeds are the checked-in corpus
// (testdata/fuzz/FuzzDecodeMessage): the empty frame, a short header, a
// length field claiming 2 GiB, a maximal header word, a collective's frame.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 64<<10 {
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := DecodeMessage(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
		if err != nil {
			return
		}
		enc := AppendMessage(nil, m)
		if !bytes.Equal(enc, raw) {
			t.Fatalf("re-encoded frame differs: %x, decoded from %x", enc, raw)
		}
		again, err := DecodeMessage(enc)
		if err != nil || again.Source != m.Source || again.Tag != m.Tag || again.Header != m.Header ||
			again.ctx != m.ctx || !bytes.Equal(again.Data, m.Data) {
			t.Fatalf("round trip: %+v (%v), want %+v", again, err, m)
		}
	})
}
