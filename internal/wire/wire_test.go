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
	V    []byte
	Sum  [4]byte
	Fr   []byte
	List [][]uint32
	W    int
	WF   float64
	WU   uint64
	Fs   []float64
	Is   []int
	I64s []int64
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
	View(c, &f.V)
	Fixed(c, f.Sum[:])
	c.Cut()
	Frame(c, &f.Fr, len(f.Fr), func(c *Codec) { Fixed(c, f.Fr) })
	c.Cut()
	Seq(c, "list", &f.List, 1, func(l *[]uint32) {
		Seq(c, "item", l, 1, func(v *uint32) { Uint(c, v) })
	})
	Word(c, &f.W)
	Word(c, &f.WF)
	Word(c, &f.WU)
	Words(c, &f.Fs)
	Words(c, &f.Is)
	Words(c, &f.I64s)
}

// samples are values of fields: every one zero, small ones, and extremes.
func samples() map[string]*fields {
	return map[string]*fields{
		"zero": {B: []byte{}, V: []byte{}, Fr: []byte{}},
		"small": {U8: 1, U32: 127, U64: 128, N: 300, N64: 1 << 40, I: -1, I64: 64, On: true,
			S: "split", B: []byte{0, 0xff}, V: []byte{7}, Sum: [4]byte{1, 2, 3, 4}, Fr: []byte("framed"), List: [][]uint32{nil, {7}, {0, 1 << 31}},
			W: -2, WF: 0.5, WU: 3, Fs: []float64{1, -2.5}, Is: []int{-1, 0}, I64s: []int64{1 << 40}},
		"extremes": {U8: math.MaxUint8, U32: math.MaxUint32, U64: math.MaxUint64, N: math.MaxInt, N64: math.MaxInt64,
			I: math.MinInt, I64: math.MaxInt64, On: true, S: strings.Repeat("x", 300), B: bytes.Repeat([]byte{9}, 200),
			V: bytes.Repeat([]byte{8}, 200), Fr: bytes.Repeat([]byte{6}, 5000), W: math.MinInt, WF: math.Inf(-1), WU: math.MaxUint64,
			Fs: []float64{math.SmallestNonzeroFloat64, math.MaxFloat64}, Is: []int{math.MaxInt}, I64s: []int64{math.MinInt64}},
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	for name, f := range samples() {
		raw := Encode(nil, f.code)
		got := &fields{}
		if err := Decode(raw, got.code); err != nil || !reflect.DeepEqual(got, f) {
			t.Errorf("%s: decoded %+v (%v), encoded %+v", name, got, err, f)
		}
	}
}

// recorder is a sink that keeps the bytes it is handed and the offsets it
// is cut at. With failAt set, its failAt-th call, a Write or a Cut, fails,
// and it counts every call after that one.
type recorder struct {
	bytes.Buffer
	cuts          []int
	calls, failAt int
	late, longest int
}

var errSink = errors.New("sink failed")

func (r *recorder) call() error {
	switch r.calls++; {
	case r.failAt == 0 || r.calls < r.failAt:
		return nil
	case r.calls > r.failAt:
		r.late++
	}
	return errSink
}

func (r *recorder) Write(p []byte) (int, error) {
	if err := r.call(); err != nil {
		return 0, err
	}
	r.longest = max(r.longest, len(p))
	return r.Buffer.Write(p)
}

func (r *recorder) Cut() error {
	if err := r.call(); err != nil {
		return err
	}
	r.cuts = append(r.cuts, r.Len())
	return nil
}

// TestStreamAndSizeRunTheLayout: for every sample, Size counts what Encode
// writes, and Stream hands a sink Encode's bytes, cut at the same offsets
// whatever its buffer's capacity, in writes no longer than a buffer that
// holds a varint. A sink that fails at any call ends the stream with its
// error: nothing reaches it after that. (A stream of thousands of calls,
// through a buffer of a byte or none, fails at a thousand of them.)
func TestStreamAndSizeRunTheLayout(t *testing.T) {
	for name, f := range samples() {
		want := Encode(nil, f.code)
		if n := Size(f.code); n != len(want) {
			t.Errorf("%s: Size %d, Encode wrote %d", name, n, len(want))
		}
		var cuts []int
		for _, size := range []int{0, 1, 9, 4 << 10, 64 << 10} {
			var r recorder
			if err := Stream(&r, make([]byte, 0, size), f.code); err != nil || !bytes.Equal(r.Bytes(), want) {
				t.Errorf("%s through %d bytes: streamed %d bytes (%v), Encode wrote %d", name, size, r.Len(), err, len(want))
			}
			if size >= binary.MaxVarintLen64 && r.longest > size {
				t.Errorf("%s through %d bytes: a write of %d", name, size, r.longest)
			}
			if cuts == nil {
				cuts = r.cuts
			} else if !reflect.DeepEqual(r.cuts, cuts) {
				t.Errorf("%s through %d bytes: cut at %v, through no buffer at %v", name, size, r.cuts, cuts)
			}
			for k := 1; k <= r.calls; k += 1 + r.calls/1000 { // every call, or a thousand spread over them

				bad := recorder{failAt: k}
				if err := Stream(&bad, make([]byte, 0, size), f.code); err != errSink || bad.late > 0 {
					t.Errorf("%s through %d bytes, a sink failing at call %d: %v, and %d calls after it", name, size, k, err, bad.late)
				}
			}
		}
		if len(cuts) != 2 {
			t.Errorf("%s: cut at %v, want the layout's two cuts", name, cuts)
		}
	}
}

// TestOnlyStreamCuts: a cut reaches a stream's sink, after the bytes
// before it, and changes nothing that Encode, Size or Decode do.
func TestOnlyStreamCuts(t *testing.T) {
	s, cut := "ab", true
	layout := func(c *Codec) {
		Str(c, &s)
		if cut {
			c.Cut()
		}
		Str(c, &s)
	}
	var r recorder
	if err := Stream(&r, make([]byte, 0, 64), layout); err != nil || !reflect.DeepEqual(r.cuts, []int{3}) {
		t.Errorf("streamed with cuts at %v (%v), want [3]", r.cuts, err)
	}
	raw, n := Encode(nil, layout), Size(layout)
	cut = false
	if !bytes.Equal(raw, Encode(nil, layout)) || n != Size(layout) {
		t.Errorf("a cut changed what Encode or Size make of the layout")
	}
	cut = true
	if err := Decode(raw, layout); err != nil || s != "ab" {
		t.Errorf("decoded %q across a cut: %v", s, err)
	}
}

// TestFrameHoldsItsBodyToItsLength: a framed field whose body writes more
// or less than its length fails the encode, in memory and streaming, and a
// stream writes nothing after it. Sizing trusts the length and does not
// run the body.
func TestFrameHoldsItsBodyToItsLength(t *testing.T) {
	for _, n := range []int{3, 5} {
		ran := false
		layout := func(c *Codec) {
			var p []byte
			Frame(c, &p, n, func(c *Codec) { ran = true; Fixed(c, []byte("four")) })
			c.Cut()
		}
		var err error
		Encode(nil, func(c *Codec) { layout(c); err = c.Err() })
		if err == nil || !strings.Contains(err.Error(), "wrote 4") {
			t.Errorf("a body of 4 bytes framed as %d encoded: %v", n, err)
		}
		var r recorder
		if err := Stream(&r, nil, layout); err == nil || r.calls > 1 {
			t.Errorf("a body of 4 bytes framed as %d streamed: %v, %d sink calls", n, err, r.calls)
		}
		if ran = false; Size(layout) != 1+n || ran {
			t.Errorf("framed as %d: Size %d, body run %v", n, Size(layout), ran)
		}
	}
}

// TestDecodeKeepsWhatDidNotFit: decoded into a value that holds fields
// already, a record cut short sets the fields before the cut and keeps the
// failed field and the ones after it. A list is replaced whole, by nil when
// the record's is empty.
func TestDecodeKeepsWhatDidNotFit(t *testing.T) {
	ext := samples()["extremes"]
	raw := Encode(nil, ext.code)
	for k := range raw {
		got := samples()["small"]
		if err := Decode(raw[:k], got.code); err == nil {
			t.Fatalf("%d bytes of %d decoded", k, len(raw))
		}
		g, e, s := reflect.ValueOf(got).Elem(), reflect.ValueOf(ext).Elem(), reflect.ValueOf(samples()["small"]).Elem()
		set := 0
		for set < g.NumField() && reflect.DeepEqual(g.Field(set).Interface(), e.Field(set).Interface()) {
			set++
		}
		for i := set; i < g.NumField(); i++ {
			if !reflect.DeepEqual(g.Field(i).Interface(), s.Field(i).Interface()) {
				t.Fatalf("%d bytes of %d: field %s is %v, neither the record's nor the one it had", k, len(raw), g.Type().Field(i).Name, g.Field(i))
			}
		}
	}
	got := samples()["small"]
	if err := Decode(Encode(nil, samples()["zero"].code), got.code); err != nil || got.List != nil || len(got.Fs) != 0 {
		t.Errorf("empty lists decoded over full ones: list %v, words %v, %v", got.List, got.Fs, err)
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
	var w float64
	var ws []int64
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
		{"short view", uv(5, 1, 2, 3, 4), func(c *Codec) { View(c, &b) }, "count 5"},
		{"short word", make([]byte, 7), func(c *Codec) { Word(c, &w) }, "8 bytes wanted, 7 left"},
		{"short words", uv(2, make([]byte, 15)...), func(c *Codec) { Words(c, &ws) }, "count 2 exceeds what 15 bytes"},
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

// TestViewsAndWordsShareTheirMemory: a view is the input's bytes with no
// room behind them, and a vector of words decodes into the array its
// destination already has when that is big enough.
func TestViewsAndWordsShareTheirMemory(t *testing.T) {
	type pair struct {
		V  []byte
		Fs []float64
	}
	code := func(p *pair) func(*Codec) {
		return func(c *Codec) { View(c, &p.V); Words(c, &p.Fs) }
	}
	raw := Encode(nil, code(&pair{V: []byte("view"), Fs: []float64{1, 2, 3}}))
	if want := 1 + 4 + 1 + 3*8; len(raw) != want || cap(raw) < want {
		t.Fatalf("encoded %d bytes, want %d", len(raw), want)
	}
	dst := make([]float64, 8)
	got := &pair{Fs: dst}
	if err := Decode(raw, code(got)); err != nil {
		t.Fatal(err)
	}
	if string(got.V) != "view" || &got.V[0] != &raw[1] || cap(got.V) != 4 {
		t.Errorf("view %q at %p, capacity %d: want the input's 4 bytes at %p", got.V, &got.V[0], cap(got.V), &raw[1])
	}
	if !reflect.DeepEqual(got.Fs, []float64{1, 2, 3}) || &got.Fs[0] != &dst[0] {
		t.Errorf("words %v: want [1 2 3] in the destination's array", got.Fs)
	}
	var x float64
	word := Encode(nil, func(c *Codec) { Word(c, &x) })
	if n := testing.AllocsPerRun(100, func() { _ = Decode(word, func(c *Codec) { Word(c, &x) }) }); n > 1 {
		t.Errorf("decoding a word allocates %v times, want the codec's one", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Decode(raw, code(got)) }); n > 1 {
		t.Errorf("decoding a view and words into room allocates %v times, want the codec's one", n)
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
