package ckpt

import (
	"fmt"
	"reflect"
	"strings"

	"ccift/internal/cerr"
	"ccift/internal/wire"
)

// The checkpoint codec. C3 copies raw bytes from the VDS/HOS descriptors
// into the checkpoint file; the Go analogue is a compact little-endian
// encoding of the types HPC codes checkpoint: numeric scalars, strings,
// []float64 grids and vectors, integer vectors and byte buffers. The
// layouts matter because checkpoint cost in Figure 8 is dominated by moving
// application state, so the encoder must run near memory bandwidth rather
// than at reflection speed. A variable of any other type is refused when it
// registers (see admit): a program registers a struct's fields instead.

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
)

// laidOut is the one list of the types a variable may be registered with:
// each has a case in codeValue and in copyValue. A type is named as Go
// source spells it (what the precompiler reads), given by a pointer to a
// value of it (what a registration is checked against), and marked scalar
// when every freeze re-copies it: a few bytes, which a loop counter changes
// every iteration without a Touch, so dirty-tracking it would trade a free
// copy for a stale-state hazard.
var laidOut = []struct {
	name   string
	ptr    any
	scalar bool
}{
	{"int", new(int), true},
	{"int64", new(int64), true},
	{"uint64", new(uint64), true},
	{"float64", new(float64), true},
	{"bool", new(bool), true},
	{"string", new(string), true},
	{"[]byte", new([]byte), false},
	{"[]float64", new([]float64), false},
	{"[]int", new([]int), false},
	{"[]int64", new([]int64), false},
	{"[][]float64", new([][]float64), false},
}

// LaidOut reports whether the codec lays out the type Go source spells as
// name, and whether that type is a scalar.
func LaidOut(name string) (ok, scalar bool) {
	for _, t := range laidOut {
		if t.name == name {
			return true, t.scalar
		}
	}
	return false, false
}

// admit checks a registration's pointer: it must be non-nil and point to a
// laid-out type. It reports whether that type is a scalar.
func admit(op, name string, ptr any) (scalar bool, err error) {
	if ptr == nil {
		return false, fmt.Errorf("%w: ckpt: VDS.%s(%q): nil pointer", cerr.ErrProgram, op, name)
	}
	for _, t := range laidOut {
		if reflect.TypeOf(t.ptr) == reflect.TypeOf(ptr) {
			return t.scalar, nil
		}
	}
	var names []string
	for _, t := range laidOut {
		names = append(names, t.name)
	}
	return false, fmt.Errorf("%w: ckpt: VDS.%s(%q): %T has no checkpoint layout; register a pointer to one of %s (a struct's fields one by one)",
		cerr.ErrProgram, op, name, ptr, strings.Join(names, ", "))
}

// Encode serializes the value pointed to by ptr, one of the laid-out types.
func Encode(ptr any) []byte {
	return wire.Encode(nil, func(c *wire.Codec) { codeValue(c, ptr) })
}

// Decode deserializes raw (produced by Encode) into the value pointed to by
// ptr. The dynamic type of ptr must match the one used at encode time.
// What it stores through ptr is a copy (for *[]float64, a conversion) and
// never a view of raw, which a survivor restores from again.
func Decode(raw []byte, ptr any) error {
	if err := wire.Decode(raw, func(c *wire.Codec) { codeValue(c, ptr) }); err != nil {
		return fmt.Errorf("ckpt: decode %T: %w", ptr, err)
	}
	return nil
}

// codeValue is the value codec's one layout: a type tag, then the value.
// Words are 8 bytes little-endian, a bool the uvarint 0 or 1, strings and
// byte slices a length and their bytes, vectors a count and their words. A
// numeric vector decodes into the array the variable has when it is big
// enough; a matrix decodes into new rows. A field that does not fit fails c
// and leaves *ptr as it was.
func codeValue(c *wire.Codec, ptr any) {
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
		panic(fmt.Sprintf("ckpt: %T has no checkpoint layout", ptr)) // admit refuses it at registration
	}
}

// tag codes a value's type tag; decoded, it must be want.
func tag(c *wire.Codec, want byte) {
	got := want
	wire.Uint(c, &got)
	c.Require(got == want, "tag %d, want %d", got, want)
}
