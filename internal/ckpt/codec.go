package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
)

// The checkpoint codec. C3 copies raw bytes from the VDS/HOS descriptors
// into the checkpoint file; the Go analogue is a compact little-endian
// encoding with fast paths for the numeric kernels HPC codes checkpoint
// ([]float64 grids and vectors, counters) and a gob fallback for arbitrary
// structured data. The fast paths matter because checkpoint cost in
// Figure 8 is dominated by moving application state, so the encoder must
// run near memory bandwidth rather than at reflection speed.

// Type tags for the encoding.
const (
	tagInt byte = iota + 1
	tagInt64
	tagUint64
	tagFloat64
	tagBool
	tagString
	tagBytes
	tagFloat64Slice
	tagIntSlice
	tagInt64Slice
	tagFloat64Matrix
	tagGob
)

// Encode serializes the value pointed to by ptr.
func Encode(ptr any) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeTo(&buf, ptr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeTo serializes the value pointed to by ptr into w.
func EncodeTo(buf *bytes.Buffer, ptr any) error {
	switch p := ptr.(type) {
	case *int:
		buf.WriteByte(tagInt)
		writeUint64(buf, uint64(*p))
	case *int64:
		buf.WriteByte(tagInt64)
		writeUint64(buf, uint64(*p))
	case *uint64:
		buf.WriteByte(tagUint64)
		writeUint64(buf, *p)
	case *float64:
		buf.WriteByte(tagFloat64)
		writeUint64(buf, math.Float64bits(*p))
	case *bool:
		buf.WriteByte(tagBool)
		if *p {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case *string:
		buf.WriteByte(tagString)
		writeString(buf, *p)
	case *[]byte:
		buf.WriteByte(tagBytes)
		writeBytes(buf, *p)
	case *[]float64:
		buf.WriteByte(tagFloat64Slice)
		writeFloat64s(buf, *p)
	case *[]int:
		buf.WriteByte(tagIntSlice)
		writeUvarint(buf, uint64(len(*p)))
		for _, x := range *p {
			writeUint64(buf, uint64(x))
		}
	case *[]int64:
		buf.WriteByte(tagInt64Slice)
		writeUvarint(buf, uint64(len(*p)))
		for _, x := range *p {
			writeUint64(buf, uint64(x))
		}
	case *[][]float64:
		buf.WriteByte(tagFloat64Matrix)
		writeUvarint(buf, uint64(len(*p)))
		for _, row := range *p {
			writeFloat64s(buf, row)
		}
	default:
		buf.WriteByte(tagGob)
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(ptr); err != nil {
			return fmt.Errorf("ckpt: gob encode %T: %w", ptr, err)
		}
		writeBytes(buf, gb.Bytes())
	}
	return nil
}

// Decode deserializes raw (produced by Encode) into the value pointed to by
// ptr. The dynamic type of ptr must match the one used at encode time.
// What it stores through ptr is a copy (for *[]float64, a conversion) and
// never a view of raw, which a survivor restores from again.
func Decode(raw []byte, ptr any) error {
	return decodeFrom(&cursor{raw}, ptr)
}

// decodeFrom deserializes one value from rd into ptr.
func decodeFrom(rd *cursor, ptr any) error {
	tag, err := rd.ReadByte()
	if err != nil {
		return err
	}
	mismatch := func(want byte) error {
		return fmt.Errorf("ckpt: decode %T: tag %d, want %d", ptr, tag, want)
	}
	switch p := ptr.(type) {
	case *int:
		if tag != tagInt {
			return mismatch(tagInt)
		}
		v, err := readUint64(rd)
		if err != nil {
			return err
		}
		*p = int(v)
	case *int64:
		if tag != tagInt64 {
			return mismatch(tagInt64)
		}
		v, err := readUint64(rd)
		if err != nil {
			return err
		}
		*p = int64(v)
	case *uint64:
		if tag != tagUint64 {
			return mismatch(tagUint64)
		}
		v, err := readUint64(rd)
		if err != nil {
			return err
		}
		*p = v
	case *float64:
		if tag != tagFloat64 {
			return mismatch(tagFloat64)
		}
		v, err := readUint64(rd)
		if err != nil {
			return err
		}
		*p = math.Float64frombits(v)
	case *bool:
		if tag != tagBool {
			return mismatch(tagBool)
		}
		b, err := rd.ReadByte()
		if err != nil {
			return err
		}
		*p = b != 0
	case *string:
		if tag != tagString {
			return mismatch(tagString)
		}
		s, err := readString(rd)
		if err != nil {
			return err
		}
		*p = s
	case *[]byte:
		if tag != tagBytes {
			return mismatch(tagBytes)
		}
		b, err := readBytes(rd)
		if err != nil {
			return err
		}
		*p = bytes.Clone(b) // live program memory: the one copy
	case *[]float64:
		if tag != tagFloat64Slice {
			return mismatch(tagFloat64Slice)
		}
		xs, err := readFloat64sInto(rd, *p)
		if err != nil {
			return err
		}
		*p = xs
	case *[]int:
		if tag != tagIntSlice {
			return mismatch(tagIntSlice)
		}
		n, err := readCount(rd, 8)
		if err != nil {
			return err
		}
		xs := resizeInts(*p, n)
		for i := range xs {
			v, err := readUint64(rd)
			if err != nil {
				return err
			}
			xs[i] = int(v)
		}
		*p = xs
	case *[]int64:
		if tag != tagInt64Slice {
			return mismatch(tagInt64Slice)
		}
		n, err := readCount(rd, 8)
		if err != nil {
			return err
		}
		xs := make([]int64, n)
		for i := range xs {
			v, err := readUint64(rd)
			if err != nil {
				return err
			}
			xs[i] = int64(v)
		}
		*p = xs
	case *[][]float64:
		if tag != tagFloat64Matrix {
			return mismatch(tagFloat64Matrix)
		}
		n, err := readCount(rd, 1)
		if err != nil {
			return err
		}
		rows := *p
		if len(rows) != n {
			rows = make([][]float64, n)
		}
		for i := range rows {
			rows[i], err = readFloat64sInto(rd, rows[i])
			if err != nil {
				return err
			}
		}
		*p = rows
	default:
		if tag != tagGob {
			return mismatch(tagGob)
		}
		b, err := readBytes(rd)
		if err != nil {
			return err
		}
		if !GobFramed(b) {
			return fmt.Errorf("ckpt: gob decode %T: %w", ptr, errTornGob)
		}
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(ptr); err != nil {
			return fmt.Errorf("ckpt: gob decode %T: %w", ptr, err)
		}
	}
	return nil
}

// errTornGob is a gob field whose messages claim more bytes than it holds.
var errTornGob = errors.New("a message claims more bytes than the field holds")

// GobFramed reports whether b is a whole number of gob messages. The gob
// decoder allocates a message's claimed length (up to 10 MB at a time)
// before it reads it; checked here first, every claim it meets is backed by
// bytes that are present.
func GobFramed(b []byte) bool {
	for len(b) > 0 {
		n, w := uint64(b[0]), 1
		if b[0] > 0x7f {
			// A negated byte count, then that many bytes, high byte first.
			k := 256 - int(b[0])
			if k > 8 || k >= len(b) {
				return false
			}
			n = 0
			for _, c := range b[1 : 1+k] {
				n = n<<8 | uint64(c)
			}
			w += k
		}
		if n > uint64(len(b)-w) {
			return false
		}
		b = b[w+int(n):]
	}
	return true
}

// --- primitive writers/readers ---

func writeUint64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

// cursor reads an immutable blob front to back. The readers below hand out
// sub-slices of it (capacity clipped, so an append cannot reach the bytes
// behind), not copies; whoever turns one into mutable program memory
// copies it, once.
type cursor struct{ b []byte }

func (c *cursor) ReadByte() (byte, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// take returns the next n bytes as a view of the blob.
func (c *cursor) take(n uint64) ([]byte, error) {
	if n > uint64(len(c.b)) {
		return nil, fmt.Errorf("ckpt: truncated blob: need %d bytes, have %d", n, len(c.b))
	}
	v := c.b[:n:n]
	c.b = c.b[n:]
	return v, nil
}

func readUint64(rd *cursor) (uint64, error) {
	b, err := rd.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

func readUvarint(rd *cursor) (uint64, error) {
	v, n := binary.Uvarint(rd.b)
	if n <= 0 {
		return 0, fmt.Errorf("ckpt: truncated or overlong uvarint")
	}
	rd.b = rd.b[n:]
	return v, nil
}

// readCount reads an element count and checks it against what is left of
// the blob at elemBytes or more per element: a lying count is an error
// before anything is allocated from it.
func readCount(rd *cursor, elemBytes int) (int, error) {
	n, err := readUvarint(rd)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(rd.b)/elemBytes) {
		return 0, fmt.Errorf("ckpt: truncated blob: %d elements of %d bytes in %d bytes", n, elemBytes, len(rd.b))
	}
	return int(n), nil
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readString(rd *cursor) (string, error) {
	b, err := readBytes(rd)
	return string(b), err
}

func writeBytes(buf *bytes.Buffer, b []byte) {
	writeUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

// readBytes returns a length-prefixed field as a view of the blob.
func readBytes(rd *cursor) ([]byte, error) {
	n, err := readUvarint(rd)
	if err != nil {
		return nil, err
	}
	return rd.take(n)
}

// floatScratch is the conversion batch for writing float64 slices, in
// bytes: one Write per 1024 elements instead of per element, which keeps
// the encoder near memory bandwidth — checkpoint cost in Figure 8 is
// dominated by this path. A streamed write converts through a buffer of
// this size that its caller owns: an array here would escape through the
// io.Writer and cost an allocation per call.
const floatScratch = 8 * 1024

// writeFloat64s converts straight into the buffer's free space.
func writeFloat64s(buf *bytes.Buffer, xs []float64) {
	writeUvarint(buf, uint64(len(xs)))
	buf.Grow(8 * len(xs))
	out := buf.AvailableBuffer()[:8*len(xs)]
	putFloat64s(out, xs)
	buf.Write(out)
}

// writeFloat64sTo is the io.Writer form of writeFloat64s; the checkpoint
// flusher streams grids through it straight into the chunked store writer,
// with no intermediate whole-state buffer, converting through scratch.
func writeFloat64sTo(w io.Writer, xs []float64, scratch []byte) error {
	n := binary.PutUvarint(scratch, uint64(len(xs)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	return writeFloat64sRawTo(w, xs, scratch)
}

// writeFloat64sRawTo streams the little-endian payload without a length
// prefix — the per-page form: a paged frozen entry writes one prefix for
// the whole slice and then each page's payload through this — one
// len(scratch)/8 elements at a time.
func writeFloat64sRawTo(w io.Writer, xs []float64, scratch []byte) error {
	for len(xs) > 0 {
		n := min(len(xs), len(scratch)/8)
		out := scratch[:8*n]
		putFloat64s(out, xs[:n])
		if _, err := w.Write(out); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

// putFloat64s writes xs little-endian into out (8·len(xs) bytes). Walking
// both slices, not indexing them, is what lets the compiler drop the
// per-element bounds checks: the loop then runs at memcpy speed (a third
// faster), and a survivor's rollback serializes its whole state through it.
func putFloat64s(out []byte, xs []float64) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(out, math.Float64bits(x))
		out = out[8:]
	}
}

// readFloat64sInto converts straight out of the blob into dst (reused
// when it has the capacity): one pass, no bounce buffer.
func readFloat64sInto(rd *cursor, dst []float64) ([]float64, error) {
	n, err := readCount(rd, 8)
	if err != nil {
		return nil, err
	}
	src, _ := rd.take(uint64(8 * n))
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	for i := range dst { // src walked, not indexed: see putFloat64s
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
	return dst, nil
}

func resizeInts(xs []int, n int) []int {
	if cap(xs) >= n {
		return xs[:n]
	}
	return make([]int, n)
}
