package ckpt

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"

	"ccift/internal/wire"
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
	return appendValue(nil, ptr)
}

// appendValue appends the encoding of the value pointed to by ptr to dst.
func appendValue(dst []byte, ptr any) ([]byte, error) {
	var err error
	dst = wire.Encode(dst, func(c *wire.Codec) { err = codeValue(c, ptr) })
	return dst, err
}

// Decode deserializes raw (produced by Encode) into the value pointed to by
// ptr. The dynamic type of ptr must match the one used at encode time.
// What it stores through ptr is a copy (for *[]float64, a conversion) and
// never a view of raw, which a survivor restores from again.
func Decode(raw []byte, ptr any) error {
	var gobErr error
	if err := wire.Decode(raw, func(c *wire.Codec) { gobErr = codeValue(c, ptr) }); err != nil {
		return fmt.Errorf("ckpt: decode %T: %w", ptr, err)
	}
	return gobErr
}

// codeValue is the value codec's one layout: a type tag, then the value.
// Words are 8 bytes little-endian, a bool the uvarint 0 or 1, strings and
// byte slices a length and their bytes, vectors a count and their words. A
// numeric vector decodes into the array the variable has when it is big
// enough; a matrix decodes into new rows. The error is gob's, either way; a
// field that does not fit fails c and leaves *ptr as it was.
func codeValue(c *wire.Codec, ptr any) error {
	switch p := ptr.(type) {
	case *int:
		tag(c, tagInt)
		wire.Word(c, p)
	case *int64:
		tag(c, tagInt64)
		wire.Word(c, p)
	case *uint64:
		tag(c, tagUint64)
		wire.Word(c, p)
	case *float64:
		tag(c, tagFloat64)
		wire.Word(c, p)
	case *bool:
		tag(c, tagBool)
		wire.Flag(c, p)
	case *string:
		tag(c, tagString)
		wire.Str(c, p)
	case *[]byte:
		tag(c, tagBytes)
		wire.Bytes(c, p) // live program memory: the one copy
	case *[]float64:
		tag(c, tagFloat64Slice)
		wire.Words(c, p)
	case *[]int:
		tag(c, tagIntSlice)
		wire.Words(c, p)
	case *[]int64:
		tag(c, tagInt64Slice)
		wire.Words(c, p)
	case *[][]float64:
		tag(c, tagFloat64Matrix)
		wire.Seq(c, "row", p, 1, func(row *[]float64) { wire.Words(c, row) })
	default:
		var raw []byte
		if !c.Decoding() {
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(ptr); err != nil {
				return fmt.Errorf("ckpt: gob encode %T: %w", ptr, err)
			}
			raw = b.Bytes()
		}
		tag(c, tagGob)
		if wire.View(c, &raw); !c.Decoding() || c.Err() != nil {
			return nil
		}
		if !gobFramed(raw) {
			return fmt.Errorf("ckpt: gob decode %T: %w", ptr, errTornGob)
		}
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(ptr); err != nil {
			return fmt.Errorf("ckpt: gob decode %T: %w", ptr, err)
		}
	}
	return nil
}

// tag codes a value's type tag; decoded, it must be want.
func tag(c *wire.Codec, want byte) {
	got := want
	wire.Uint(c, &got)
	c.Require(got == want, "tag %d, want %d", got, want)
}

// errTornGob is a gob field whose messages, or the types they define, claim
// more bytes than it holds.
var errTornGob = errors.New("a message or a type it defines claims more bytes than the field holds")

// gobFramed reports whether b is a whole number of gob messages, each type
// definition among them within its message. The gob decoder allocates what
// a count claims (up to 10 MB at a time) before it reads what is counted: a
// message's length, and the field list of a struct type it is told about.
// Checked here first, every such claim it meets is backed by bytes that are
// present. (A value's own lists are the value type's business: a type the
// codec falls back to gob for is trusted as far as gob trusts it.)
func gobFramed(b []byte) bool {
	for len(b) > 0 {
		n, rest, ok := gobUint(b)
		if !ok || n > uint64(len(rest)) {
			return false
		}
		// A message that starts with a negative type id (low bit 1) defines it.
		if id, def, _ := gobUint(rest[:n]); id&1 == 1 {
			if _, ok := skipGobStruct(def, "wireType"); !ok {
				return false
			}
		}
		b = rest[n:]
	}
	return true
}

// gobWire is encoding/gob's wire form of a type definition, its wireType
// and the structs under it: each struct's fields in order, as a struct's
// name, "int", "string", or "[]" and the name of the elements' struct.
var gobWire = map[string][]string{
	"wireType":       {"arrayType", "sliceType", "structType", "mapType", "gobEncoderType", "gobEncoderType", "gobEncoderType"},
	"arrayType":      {"CommonType", "int", "int"},
	"sliceType":      {"CommonType", "int"},
	"structType":     {"CommonType", "[]fieldType"},
	"mapType":        {"CommonType", "int", "int"},
	"gobEncoderType": {"CommonType"},
	"CommonType":     {"string", "int"},
	"fieldType":      {"string", "int"},
}

// skipGobStruct skips one gob-encoded struct of gobWire's kind at the front
// of b: each field sent is the step from the previous field's number and
// its value, and a step of 0 ends the struct. A field the kind does not
// have, a string longer than the bytes left or a list of more elements than
// there are bytes left (an element takes one at least) is not ok.
func skipGobStruct(b []byte, kind string) ([]byte, bool) {
	fields, field := gobWire[kind], 0
	for {
		step, rest, ok := gobUint(b)
		if !ok || step > uint64(len(fields)-field) {
			return nil, false
		}
		if b = rest; step == 0 {
			return b, true
		}
		field += int(step)
		var n uint64
		switch f := fields[field-1]; {
		case f == "int":
			_, b, ok = gobUint(b)
		case f == "string":
			if n, b, ok = gobUint(b); ok && n <= uint64(len(b)) {
				b = b[n:]
			} else {
				ok = false
			}
		case strings.HasPrefix(f, "[]"):
			if n, b, ok = gobUint(b); n > uint64(len(b)) {
				ok = false
			}
			for ; ok && n > 0; n-- {
				b, ok = skipGobStruct(b, f[2:])
			}
		default:
			b, ok = skipGobStruct(b, f)
		}
		if !ok {
			return nil, false
		}
	}
}

// gobUint reads one of gob's unsigned integers: a byte below 0x80, or a
// negated byte count and then that many bytes, high byte first.
func gobUint(b []byte) (uint64, []byte, bool) {
	if len(b) == 0 {
		return 0, nil, false
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), b[1:], true
	}
	k := 256 - int(b[0])
	if k > 8 || k >= len(b) {
		return 0, nil, false
	}
	var n uint64
	for _, c := range b[1 : 1+k] {
		n = n<<8 | uint64(c)
	}
	return n, b[1+k:], true
}
