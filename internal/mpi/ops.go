package mpi

import (
	"encoding/binary"
	"math"
)

// Built-in reduction operators over packed little-endian payloads. Each is
// its own loop over 8-byte lanes — the load and store are single moves on a
// little-endian host, and the combining operation is a direct call or an
// inlined expression, not a closure invoked per element.

type opFunc func(dst, src []byte)

func (f opFunc) Combine(dst, src []byte) { f(dst, src) }

func f64At(b []byte, i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[i:])) }

func putF64(b []byte, i int, x float64) { binary.LittleEndian.PutUint64(b[i:], math.Float64bits(x)) }

// SumF64 sums payloads interpreted as packed float64 vectors.
var SumF64 Op = opFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		putF64(dst, i, f64At(dst, i)+f64At(src, i))
	}
})

// MaxF64 takes the elementwise maximum of packed float64 vectors
// (math.Max semantics for NaN, ±0 and ±Inf).
var MaxF64 Op = opFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		putF64(dst, i, math.Max(f64At(dst, i), f64At(src, i)))
	}
})

// MinF64 takes the elementwise minimum of packed float64 vectors
// (math.Min semantics for NaN, ±0 and ±Inf).
var MinF64 Op = opFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		putF64(dst, i, math.Min(f64At(dst, i), f64At(src, i)))
	}
})

// SumI64 sums payloads interpreted as packed int64 vectors.
var SumI64 Op = opFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		putI64(dst, i, getI64(dst, i)+getI64(src, i))
	}
})

// MinI64 takes the elementwise minimum of packed int64 vectors.
var MinI64 Op = opFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		if b := getI64(src, i); b < getI64(dst, i) {
			putI64(dst, i, b)
		}
	}
})

// MaxI64 takes the elementwise maximum of packed int64 vectors.
var MaxI64 Op = opFunc(func(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		if b := getI64(src, i); b > getI64(dst, i) {
			putI64(dst, i, b)
		}
	}
})

// BAnd is the bytewise AND; with 0/1 bytes it is a logical conjunction.
var BAnd Op = opFunc(func(dst, src []byte) {
	for i := range dst {
		dst[i] &= src[i]
	}
})

// BOr is the bytewise OR.
var BOr Op = opFunc(func(dst, src []byte) {
	for i := range dst {
		dst[i] |= src[i]
	}
})

// The fixed-width pack and unpack helpers are elems.go's one copy under
// their long-standing names.

// F64Bytes packs a float64 slice into a little-endian payload.
func F64Bytes(xs []float64) []byte { return Packed(xs) }

// BytesF64 unpacks a little-endian payload into a float64 slice. It panics
// if len(b) is not a multiple of 8.
func BytesF64(b []byte) []float64 { return Unpacked[float64](b) }

// F64BytesInto packs xs into dst, which must have length 8*len(xs).
func F64BytesInto(dst []byte, xs []float64) { wireCopy(dst[:8*len(xs)], view(xs), 8) }

// I64Bytes packs an int64 slice into a little-endian payload.
func I64Bytes(xs []int64) []byte { return Packed(xs) }

// BytesI64 unpacks a little-endian payload into an int64 slice. It panics
// if len(b) is not a multiple of 8.
func BytesI64(b []byte) []int64 { return Unpacked[int64](b) }
