package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// fields is a layout over one value of every primitive.
type fields struct {
	U8   uint8
	U32  uint32
	U64  uint64
	N    int
	N64  int64
	I    int
	I64  int64
	On   bool
	Off  bool
	S    string
	B    []byte
	Sum  [4]byte
	List [][]uint32
}

func (f *fields) code(c *Codec) {
	Uint(c, &f.U8)
	Uint(c, &f.U32)
	Uint(c, &f.U64)
	Uint(c, &f.N)
	Uint(c, &f.N64)
	Int(c, &f.I)
	Int(c, &f.I64)
	Flag(c, &f.On)
	Flag(c, &f.Off)
	Str(c, &f.S)
	Bytes(c, &f.B)
	Fixed(c, f.Sum[:])
	Seq(c, "list", &f.List, 1, func(l *[]uint32) {
		Seq(c, "item", l, 1, func(v *uint32) { Uint(c, v) })
	})
}

func TestPrimitivesRoundTrip(t *testing.T) {
	for name, f := range map[string]*fields{
		"zero": {B: []byte{}},
		"small": {U8: 1, U32: 127, U64: 128, N: 300, N64: 1 << 40, I: -1, I64: 64, On: true,
			S: "split", B: []byte{0, 0xff}, Sum: [4]byte{1, 2, 3, 4}, List: [][]uint32{nil, {7}, {0, 1 << 31}}},
		"extremes": {U8: math.MaxUint8, U32: math.MaxUint32, U64: math.MaxUint64, N: math.MaxInt, N64: math.MaxInt64,
			I: math.MinInt, I64: math.MaxInt64, On: true, S: strings.Repeat("x", 300), B: bytes.Repeat([]byte{9}, 200)},
	} {
		raw := Encode(nil, f.code)
		got := &fields{}
		if err := Decode(raw, got.code); err != nil || !reflect.DeepEqual(got, f) {
			t.Errorf("%s: decoded %+v (%v), encoded %+v", name, got, err, f)
		}
	}
}

// uv is a uvarint and the bytes after it.
func uv(v uint64, rest ...byte) []byte { return append(binary.AppendUvarint(nil, v), rest...) }

func TestDecodeRejects(t *testing.T) {
	var u8 uint8
	var n64 int64
	var i int
	var on bool
	var s string
	var b []byte
	var sum [32]byte
	var list []uint8
	items := func(c *Codec) { Seq(c, "item", &list, 1, func(v *uint8) { Uint(c, v) }) }
	for _, c := range []struct {
		name   string
		raw    []byte
		layout func(*Codec)
		want   string
	}{
		{"uint past its type", uv(256), func(c *Codec) { Uint(c, &u8) }, "out of range"},
		{"uint past int64", uv(1 << 63), func(c *Codec) { Uint(c, &n64) }, "out of range"},
		{"truncated varint", []byte{0x80}, func(c *Codec) { Int(c, &i) }, "truncated"},
		{"overlong varint", bytes.Repeat([]byte{0xff}, 11), func(c *Codec) { Int(c, &i) }, "overlong"},
		{"empty input", nil, func(c *Codec) { Uint(c, &u8) }, "truncated"},
		{"flag of 2", uv(2), func(c *Codec) { Flag(c, &on) }, "neither 0 nor 1"},
		{"short string", uv(5, []byte("four")...), func(c *Codec) { Str(c, &s) }, "count 5"},
		{"short bytes", uv(5, 1, 2, 3, 4), func(c *Codec) { Bytes(c, &b) }, "count 5"},
		{"short fixed", make([]byte, 31), func(c *Codec) { Fixed(c, sum[:]) }, "32 bytes wanted, 31 left"},
		// 200 is a two-byte uvarint: with 199 bytes after it and 201 in
		// all, the count is refused at the count, not at element 199.
		{"count checked after its own varint", uv(200, make([]byte, 199)...), items, "item count: count 200 exceeds what 199 bytes"},
		{"lying count", uv(1<<40, 0), items, "item count"},
		{"failure inside an element", uv(2, 1, 0x80), items, "item 1: truncated"},
		{"trailing bytes", uv(1, 0), func(c *Codec) { Uint(c, &u8) }, "1 trailing bytes"},
	} {
		err := Decode(c.raw, c.layout)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
	if err := Decode(uv(200, make([]byte, 200)...), items); err != nil || len(list) != 200 {
		t.Errorf("200 one-byte items in 200 bytes: %d items, %v", len(list), err)
	}
}

// allocated is the bytes this process allocates while f runs.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func frame(body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestReadFrame(t *testing.T) {
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	buf := make([]byte, 64<<10)
	got, err := ReadFrame(bytes.NewReader(frame(big)), buf)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("a 4 MiB frame through a 64 KiB buffer: %d bytes, %v", len(got), err)
	}
	got, err = ReadFrame(bytes.NewReader(frame([]byte("fits"))), buf)
	if err != nil || string(got) != "fits" || &got[0] != &buf[0] {
		t.Fatalf("a frame that fits: %q, %v, in the caller's buffer %v", got, err, err == nil && &got[0] == &buf[0])
	}

	claim := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	for _, b := range [][]byte{nil, buf} {
		var err error
		if grew := allocated(func() { _, err = ReadFrame(bytes.NewReader(claim), b) }); grew > 1<<20 {
			t.Errorf("a 1 GiB claim and no body allocated %d bytes", grew)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("a 1 GiB claim and no body: %v, want io.ErrUnexpectedEOF", err)
		}
	}
	for name, raw := range map[string][]byte{
		"zero length":      {0, 0, 0, 0},
		"over the bound":   binary.LittleEndian.AppendUint32(nil, MaxFrame+1),
		"truncated header": {1, 0},
		"truncated body":   frame([]byte("body"))[:6],
	} {
		if got, err := ReadFrame(bytes.NewReader(raw), nil); err == nil || got != nil || errors.Is(err, io.EOF) {
			t.Errorf("%s: %q, %v; want a failure other than a clean end", name, got, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("an empty stream: %v, want io.EOF", err)
	}
}
