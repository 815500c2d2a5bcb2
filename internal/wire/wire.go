// Package wire is the one codec of the records read back from outside the
// process that wrote them (a local checkpoint's protocol record and log, a
// chunk manifest, a control frame) and the one [u32 length | body] frame
// reader. A format is one layout, visiting its fields in order, that a
// Codec runs either way: it encodes into memory or streams into a sink,
// sizes what it would encode, or decodes. It imports only the standard
// library.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Codec runs a layout one way. Encoding, b is the output; streaming, the
// buffer the sink takes its bytes through; sizing, empty, and n counts what
// a stream handed on or a sizing run counted. Decoding, b is what is left
// of the input. err is the first field that did not fit, or the first
// failure to encode: that field and every one after it keep the value they
// had, and a stream writes nothing more.
type Codec struct {
	b      []byte
	dec    bool
	sizing bool
	sink   Sink
	n      int
	err    error
}

// Sink takes a stream's bytes. Cut marks a boundary in them: a chunked
// store closes its chunk there, so what follows hashes apart from what
// came before.
type Sink interface {
	io.Writer
	Cut() error
}

// lender is a Sink that can take a view of a field in place of a copy of
// its bytes: it reads p until it is finished with the stream, and p must
// stay unmodified that long.
type lender interface {
	Lend(p []byte) error
}

// lendBytes is the shortest field a stream lends to a sink that takes
// views: a shorter one costs less to copy than to carry as a part of its own.
const lendBytes = 4 << 10

// Encode appends the fields layout visits to dst.
func Encode(dst []byte, layout func(*Codec)) []byte {
	c := codecs.Get().(*Codec)
	*c = Codec{b: dst}
	layout(c)
	out := c.b
	*c = Codec{}
	codecs.Put(c)
	return out
}

// Stream encodes what layout visits into sink, through buf: the bytes
// collect in buf and go on whenever it fills, so a field longer than buf
// reaches the sink in buf-sized batches and is never held whole. A sink that
// takes lent views (Lend) is handed every []byte of lendBytes or more that
// Fixed codes as it is, with no copy: such a field must stay unmodified
// until the sink is finished with the stream. It returns the sink's first
// error, after which nothing more is written, or the layout's.
func Stream(sink Sink, buf []byte, layout func(*Codec)) error {
	c := &Codec{b: buf[:0], sink: sink}
	layout(c)
	c.flush()
	return c.err
}

// Size is the length of what Encode appends for layout, counted as layout
// runs: nothing is written, and a framed field's body does not run.
func Size(layout func(*Codec)) int {
	c := codecs.Get().(*Codec)
	*c = Codec{sizing: true}
	layout(c)
	n := c.n
	codecs.Put(c)
	return n
}

// codecs recycles the codecs of Encode, Size and Decode: a checkpoint sizes
// every record it captures, a restore decodes every value it hands back, and
// a codec handed to a layout escapes to the heap.
var codecs = sync.Pool{New: func() any { return new(Codec) }}

// Decode fills the fields layout visits from all of src.
func Decode(src []byte, layout func(*Codec)) error {
	c := codecs.Get().(*Codec)
	*c = Codec{b: src, dec: true}
	layout(c)
	if c.err == nil && len(c.b) != 0 {
		c.fail("%d trailing bytes", len(c.b))
	}
	err := c.err
	*c = Codec{}
	codecs.Put(c)
	return err
}

// DecodePrefix fills the fields layout visits from the start of src, and
// reports how many bytes they took: what leads a record whose length the
// reader does not know yet.
func DecodePrefix(src []byte, layout func(*Codec)) (int, error) {
	c := codecs.Get().(*Codec)
	*c = Codec{b: src, dec: true}
	layout(c)
	n, err := len(src)-len(c.b), c.err
	*c = Codec{}
	codecs.Put(c)
	return n, err
}

// Decoding reports which way the layout runs.
func (c *Codec) Decoding() bool { return c.dec }

// Err is the first field that did not fit, or the first failure to encode,
// or nil.
func (c *Codec) Err() error { return c.err }

// Require fails a decode unless ok: a layout's check beyond a field's type.
func (c *Codec) Require(ok bool, format string, args ...any) {
	if c.dec && !ok {
		c.fail(format, args...)
	}
}

// Cut passes a boundary on to a stream's sink, after the bytes before it.
// Encoding in memory, sizing or decoding, it does nothing.
func (c *Codec) Cut() {
	if c.sink == nil {
		return
	}
	if c.flush(); c.err == nil {
		c.err = c.sink.Cut()
	}
}

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// flush hands a stream's buffer to the sink; after a failure the bytes are
// counted and dropped.
func (c *Codec) flush() {
	if len(c.b) == 0 {
		return
	}
	if c.err == nil {
		_, c.err = c.sink.Write(c.b)
	}
	c.n, c.b = c.n+len(c.b), c.b[:0]
}

// at is how many bytes the encode has produced so far.
func (c *Codec) at() int { return c.n + len(c.b) }

// room flushes a stream's buffer when fewer than k bytes are free in it.
func (c *Codec) room(k int) {
	if c.sink != nil && cap(c.b)-len(c.b) < k {
		c.flush()
	}
}

// lend writes p as it is: a stream lends a long p to a sink that takes
// views, after the bytes before it, and puts it otherwise.
func (c *Codec) lend(p []byte) {
	l, ok := c.sink.(lender)
	if !ok || len(p) < lendBytes {
		put(c, p)
		return
	}
	if c.flush(); c.err == nil {
		c.err = l.Lend(p)
	}
	c.n += len(p)
}

// put writes p as it is; a stream fills its buffer with p one batch at a
// time. (A buffer of no capacity grows by append.)
func put[S ~string | ~[]byte](c *Codec, p S) {
	if c.sizing {
		c.n += len(p)
		return
	}
	for c.sink != nil && cap(c.b) > 0 && len(p) > cap(c.b)-len(c.b) {
		k := cap(c.b) - len(c.b)
		c.b = append(c.b, p[:k]...)
		p = p[k:]
		c.flush()
	}
	c.b = append(c.b, p...)
}

// uvarint writes x as a uvarint.
func (c *Codec) uvarint(x uint64) {
	switch {
	case c.sizing:
		c.n += (bits.Len64(x|1) + 6) / 7
	case x < 0x80: // most of a layout's: a tag, a kind, a short length
		c.room(1)
		c.b = append(c.b, byte(x))
	default:
		c.room(binary.MaxVarintLen64)
		c.b = binary.AppendUvarint(c.b, x)
	}
}

// Uint codes a non-negative integer as a uvarint; decoded, it must fit in T.
func Uint[T ~uint8 | ~uint32 | ~uint64 | ~int | ~int64](c *Codec, v *T) {
	if !c.dec {
		c.uvarint(uint64(*v))
		return
	}
	x, n := binary.Uvarint(c.b)
	switch t := T(x); {
	case c.err != nil:
	case n <= 0:
		c.fail("truncated or overlong varint")
	case t < 0 || uint64(t) != x:
		c.fail("%d out of range for %T", x, t)
	default:
		*v, c.b = t, c.b[n:]
	}
}

// Int codes an integer as a zigzag varint, binary.AppendVarint's bytes;
// decoded, it must fit in T.
func Int[T ~int | ~int64](c *Codec, v *T) {
	x := int64(*v)
	z := uint64(x<<1) ^ uint64(x>>63)
	if Uint(c, &z); c.dec && c.err == nil {
		x = int64(z>>1) ^ -int64(z&1)
		if t := T(x); int64(t) != x {
			c.fail("%d out of range for %T", x, t)
		} else {
			*v = t
		}
	}
}

// Flag codes a bool as the uvarint 0 or 1.
func Flag(c *Codec, v *bool) {
	var x uint8
	if *v {
		x = 1
	}
	if Uint(c, &x); c.dec && c.err == nil {
		if c.Require(x <= 1, "flag %d is neither 0 nor 1", x); c.err == nil {
			*v = x == 1
		}
	}
}

// count codes a length; decoded, the bytes left after it must hold that
// many elements of at least min bytes each.
func (c *Codec) count(n, min int) int {
	if Uint(c, &n); c.dec && c.err == nil && n > len(c.b)/min {
		c.fail("count %d exceeds what %d bytes can hold", n, len(c.b))
		return 0
	}
	return n
}

// Seq codes a list as its length and then each element through elem, which
// takes at least min bytes. Decoded, the list is a new one, nil when empty,
// stored once every element has fit, and a failure names the list's noun
// and the element it is in. An encode's failure goes back as it is.
func Seq[T any](c *Codec, noun string, s *[]T, min int, elem func(*T)) {
	if c.err != nil {
		return
	}
	n := c.count(len(*s), min)
	if c.err != nil {
		if c.dec {
			c.err = fmt.Errorf("%s count: %w", noun, c.err)
		}
		return
	}
	list := *s
	if c.dec {
		list = nil
		if n > 0 {
			list = make([]T, n)
		}
	}
	for i := range list {
		if elem(&list[i]); c.err != nil {
			if c.dec {
				c.err = fmt.Errorf("%s %d: %w", noun, i, c.err)
			}
			return
		}
	}
	*s = list
}

// Str codes a string as its length and its bytes.
func Str(c *Codec, s *string) {
	if b := text(c, *s); c.dec && c.err == nil {
		*s = string(b)
	}
}

// text encodes s as Str does, with no copy of it; decoding, it is a view
// of the string's bytes.
func text(c *Codec, s string) []byte {
	var b []byte
	if c.dec {
		view(c, &b)
		return b
	}
	c.count(len(s), 1)
	put(c, s)
	return nil
}

// Bytes codes a byte slice as its length and its bytes; decoded, a copy.
func Bytes(c *Codec, p *[]byte) {
	if view(c, p); c.dec && c.err == nil {
		*p = bytes.Clone(*p)
	}
}

// view codes a byte slice as Bytes does; decoded, a view of the input, its
// capacity clipped so that an append cannot reach the bytes behind it.
func view(c *Codec, p *[]byte) {
	n := c.count(len(*p), 1)
	switch {
	case !c.dec:
		put(c, *p)
	case c.err == nil:
		*p, c.b = c.b[:n:n], c.b[n:]
	}
}

// Frame codes a field framed by its length: n, then the body. Encoding, n
// is a length the caller already knows and body writes the body, which
// must fill exactly n bytes or the encode fails; sizing, body does not run.
// Decoding, *p is the body, a view of the input, and body does not run.
func Frame(c *Codec, p *[]byte, n int, body func(*Codec)) {
	switch {
	case c.dec:
		view(c, p)
	case c.sizing:
		Uint(c, &n)
		c.n += n
	default:
		Uint(c, &n)
		Span(c, p, n, body)
	}
}

// Span codes a field of n bytes that a length coded elsewhere announces,
// with none before it. Encoding, body writes it, and must write exactly n
// bytes or the encode fails; sizing, body does not run. Decoding, *p is a
// view of the next n bytes of the input, its capacity clipped, and body does
// not run.
func Span(c *Codec, p *[]byte, n int, body func(*Codec)) {
	switch {
	case c.dec:
		if c.err == nil && (n < 0 || n > len(c.b)) {
			c.fail("%d bytes wanted, %d left", n, len(c.b))
		}
		if c.err == nil {
			*p, c.b = c.b[:n:n], c.b[n:]
		}
	case c.sizing:
		c.n += n
	default:
		at := c.at()
		if body(c); c.at()-at != n {
			c.fail("a field framed as %d bytes wrote %d", n, c.at()-at)
		}
	}
}

// word is what Word, Words and Fixed code: eight bytes, little-endian.
type word interface{ int | int64 | uint64 | float64 }

// Word codes a fixed 8-byte little-endian word: an integer's two's
// complement, a float64's IEEE 754 bits.
func Word[T word](c *Codec, v *T) {
	s := []T{*v}
	codeWords(c, s)
	*v = s[0]
}

// Words codes a vector of words as its length and then each word. Encoded
// in memory, the output grows once; decoded, the words fill *s's array when it has the
// capacity.
func Words[T word](c *Codec, s *[]T) {
	n := c.count(len(*s), 8)
	if c.err != nil {
		return
	}
	if c.dec && cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	codeWords(c, *s)
}

// Fixed codes len(p) bytes or floats as they are, with no length before
// them; decoded, into p. Streamed, bytes of lendBytes or more are lent to a
// sink that takes views (see Stream).
func Fixed[T byte | float64](c *Codec, p []T) {
	switch b := any(p).(type) {
	case []float64:
		codeWords(c, b)
	case []byte:
		switch {
		case !c.dec:
			c.lend(b)
		case c.err == nil && len(b) > len(c.b):
			c.fail("%d bytes wanted, %d left", len(b), len(c.b))
		case c.err == nil:
			c.b = c.b[copy(b, c.b):]
		}
	}
}

// codeWords codes len(s) words with no length before them. A stream
// converts them into its buffer a buffer's worth at a time; in memory, the
// output grows once. Walking both slices, not indexing them, lets the
// compiler drop the per-element bounds checks: the loops run at memcpy
// speed, and a checkpoint and a restore convert a whole state through them.
func codeWords[T word](c *Codec, s []T) {
	switch {
	case c.sizing:
		c.n += 8 * len(s)
	case !c.dec:
		for len(s) > 0 {
			k := len(s)
			if c.sink != nil {
				c.room(8)
				k = min(k, max(cap(c.b)-len(c.b), 8)/8)
			}
			at := len(c.b)
			c.b = slices.Grow(c.b, 8*k)[:at+8*k]
			if fs, ok := any(s[:k]).([]float64); ok {
				putFloats(c.b[at:], fs)
			} else {
				out := c.b[at:]
				for _, x := range s[:k] {
					binary.LittleEndian.PutUint64(out, uint64(x))
					out = out[8:]
				}
			}
			s = s[k:]
		}
	case c.err == nil && 8*len(s) > len(c.b):
		c.fail("%d bytes wanted, %d left", 8*len(s), len(c.b))
	case c.err == nil:
		src := c.b[:8*len(s)]
		c.b = c.b[8*len(s):]
		if fs, ok := any(s).([]float64); ok {
			getFloats(fs, src)
			return
		}
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint64(src))
			src = src[8:]
		}
	}
}

// putFloats and getFloats convert floats to and from their words outside
// the generic code: converted inside it, a streamed grid ran at a third of
// the speed.
func putFloats(out []byte, xs []float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(out, math.Float64bits(x))
		out = out[8:]
	}
}

func getFloats(xs []float64, src []byte) {
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}

// MaxFrame bounds a frame's length word, and the size of any one blob or
// record a decoder accepts.
const MaxFrame = 1 << 30

// ReadFrame reads one [u32 little-endian length | body] frame from r and
// returns its body, in buf's array when it fits. Otherwise the buffer grows
// as bytes arrive, each step by what has arrived (64 KiB to start), so a
// length word that lies provokes no allocation near the size it names. A
// stream that ends before a frame is io.EOF, inside one io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	word := binary.LittleEndian.Uint32(hdr[:])
	if word == 0 || word > MaxFrame {
		return nil, fmt.Errorf("frame length %d outside (0, %d]", word, MaxFrame)
	}
	n, body := int(word), buf[:0]
	for len(body) < n {
		body = slices.Grow(body, min(n-len(body), max(len(body), 64<<10)))
		got, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		if body = body[:len(body)+got]; err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}
