// Package wire is the one codec of the records read back from outside the
// process that wrote them (a local checkpoint's protocol record and log, a
// chunk manifest, a control frame) and the one [u32 length | body] frame
// reader. A format is one layout, visiting its fields in order, that a
// Codec runs either way. It imports only the standard library.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Codec runs a layout one way. Encoding, b is the output. Decoding, b is
// what is left of the input and err the first field that did not fit,
// after which every field reads as zero.
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
	if *v = T(x); c.err != nil || *v < 0 || uint64(*v) != x {
		*v = 0
		c.fail("%d out of range for %T", x, *v)
		return
	}
	c.b = c.b[n:]
}

// Int codes an integer as a zigzag varint, binary.AppendVarint's bytes;
// decoded, it must fit in T.
func Int[T ~int | ~int64](c *Codec, v *T) {
	x := int64(*v)
	z := uint64(x<<1) ^ uint64(x>>63)
	if Uint(c, &z); c.dec {
		x = int64(z>>1) ^ -int64(z&1)
		if *v = T(x); int64(*v) != x {
			*v = 0
			c.fail("%d out of range for %T", x, *v)
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
	c.Require(x <= 1, "flag %d is neither 0 nor 1", x)
	*v = x == 1
}

// count codes a length; decoded, the bytes left after it must hold that
// many elements of at least min bytes each.
func (c *Codec) count(n, min int) int {
	if Uint(c, &n); c.dec && n > len(c.b)/min {
		c.fail("count %d exceeds what %d bytes can hold", n, len(c.b))
		return 0
	}
	return n
}

// Seq codes a list as its length and then each element through elem, which
// takes at least min bytes. Decoded, an empty list is nil, and a failure
// names the list's noun and the element it is in.
func Seq[T any](c *Codec, noun string, s *[]T, min int, elem func(*T)) {
	if c.err != nil {
		return
	}
	if n := c.count(len(*s), min); c.err != nil {
		c.err = fmt.Errorf("%s count: %w", noun, c.err)
	} else if c.dec && n > 0 {
		*s = make([]T, n)
	}
	for i := 0; i < len(*s) && c.err == nil; i++ {
		if elem(&(*s)[i]); c.err != nil {
			c.err = fmt.Errorf("%s %d: %w", noun, i, c.err)
		}
	}
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
	if n := c.count(len(*p), 1); c.dec {
		*p = make([]byte, n)
	}
	Fixed(c, *p)
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
