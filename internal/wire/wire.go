// Package wire is the one codec of the records read back from outside the
// process that wrote them (a local checkpoint's protocol record and log, a
// chunk manifest, a control frame) and the one [u32 length | body] frame
// reader. A format is one layout, visiting its fields in order, that a
// Codec runs either way. It imports only the standard library.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Codec runs a layout one way. Encoding, b is the output. Decoding, b is
// what is left of the input and err the first field that did not fit: that
// field and every one after it keep the value they had.
type Codec struct {
	b   []byte
	dec bool
	err error
}

// Encode appends the fields layout visits to dst.
func Encode(dst []byte, layout func(*Codec)) []byte {
	c := &Codec{b: dst}
	layout(c)
	return c.b
}

// Decode fills the fields layout visits from all of src.
func Decode(src []byte, layout func(*Codec)) error {
	c := &Codec{b: src, dec: true}
	layout(c)
	if c.err == nil && len(c.b) != 0 {
		c.fail("%d trailing bytes", len(c.b))
	}
	return c.err
}

// Decoding reports which way the layout runs.
func (c *Codec) Decoding() bool { return c.dec }

// Err is the first field that did not fit, or nil.
func (c *Codec) Err() error { return c.err }

// Require fails a decode unless ok: a layout's check beyond a field's type.
func (c *Codec) Require(ok bool, format string, args ...any) {
	if c.dec && !ok {
		c.fail(format, args...)
	}
}

func (c *Codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Uint codes a non-negative integer as a uvarint; decoded, it must fit in T.
func Uint[T ~uint8 | ~uint32 | ~uint64 | ~int | ~int64](c *Codec, v *T) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(*v))
		return
	}
	x, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("truncated or overlong varint")
	}
	if t := T(x); c.err != nil || t < 0 || uint64(t) != x {
		c.fail("%d out of range for %T", x, t)
		return
	}
	*v, c.b = T(x), c.b[n:]
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
	Uint(c, &x)
	if c.Require(x <= 1, "flag %d is neither 0 nor 1", x); c.err == nil {
		*v = x == 1
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
// stored once every element has fit; a failure names the list's noun and
// the element it is in.
func Seq[T any](c *Codec, noun string, s *[]T, min int, elem func(*T)) {
	if c.err != nil {
		return
	}
	n := c.count(len(*s), min)
	if c.err != nil {
		c.err = fmt.Errorf("%s count: %w", noun, c.err)
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
			c.err = fmt.Errorf("%s %d: %w", noun, i, c.err)
			return
		}
	}
	*s = list
}

// Str codes a string as its length and its bytes.
func Str(c *Codec, s *string) {
	b := []byte(*s)
	if Bytes(c, &b); c.dec {
		*s = string(b)
	}
}

// Bytes codes a byte slice as its length and its bytes; decoded, a copy.
func Bytes(c *Codec, p *[]byte) {
	if View(c, p); c.dec && c.err == nil {
		*p = bytes.Clone(*p)
	}
}

// View codes a byte slice as Bytes does; decoded, a view of the input, its
// capacity clipped so that an append cannot reach the bytes behind it.
func View(c *Codec, p *[]byte) {
	n := c.count(len(*p), 1)
	switch {
	case !c.dec:
		c.b = append(c.b, *p...)
	case c.err == nil:
		*p, c.b = c.b[:n:n], c.b[n:]
	}
}

// word is what Word and Words code: eight bytes, little-endian.
type word interface{ int | int64 | uint64 | float64 }

// Word codes a fixed 8-byte little-endian word: an integer's two's
// complement, a float64's IEEE 754 bits.
func Word[T word](c *Codec, v *T) {
	s := []T{*v}
	codeWords(c, s)
	*v = s[0]
}

// Words codes a vector of words as its length and then each word. Encoded,
// the output grows once; decoded, the words fill *s's array when it has the
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

// codeWords codes len(s) words with no length before them. Walking both
// slices, not indexing them, lets the compiler drop the per-element bounds
// checks: the loops run at memcpy speed, and a restore converts a whole
// state through them.
func codeWords[T word](c *Codec, s []T) {
	if !c.dec {
		at := len(c.b)
		c.b = slices.Grow(c.b, 8*len(s))[:at+8*len(s)]
		out := c.b[at:]
		if fs, ok := any(s).([]float64); ok {
			for _, x := range fs {
				binary.LittleEndian.PutUint64(out, math.Float64bits(x))
				out = out[8:]
			}
			return
		}
		for _, x := range s {
			binary.LittleEndian.PutUint64(out, uint64(x))
			out = out[8:]
		}
		return
	}
	if c.err == nil && 8*len(s) > len(c.b) {
		c.fail("%d bytes wanted, %d left", 8*len(s), len(c.b))
	}
	if c.err != nil {
		return
	}
	src := c.b[:8*len(s)]
	c.b = c.b[8*len(s):]
	if fs, ok := any(s).([]float64); ok {
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
			src = src[8:]
		}
		return
	}
	for i := range s {
		s[i] = T(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}

// Fixed codes len(p) bytes as they are, with no length before them.
func Fixed(c *Codec, p []byte) {
	switch {
	case !c.dec:
		c.b = append(c.b, p...)
	case c.err == nil && len(p) > len(c.b):
		c.fail("%d bytes wanted, %d left", len(p), len(c.b))
	case c.err == nil:
		c.b = c.b[copy(p, c.b):]
	}
}

// MaxFrame bounds a frame's length word: a start frame carries replicas.
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
