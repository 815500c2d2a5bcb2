package mpi

import (
	"fmt"
	"runtime"
	"unsafe"
)

// Fixed-width element vectors and their wire form. The wire form is the
// elements packed little-endian, which on a little-endian host is the
// vector's own memory: packing and unpacking are one copy, and a collective
// can send from, and fill, the typed slice directly. This is the only file
// outside tests that imports unsafe, and it only ever views typed memory as
// bytes — never bytes as typed memory — so alignment is the allocator's
// business and checkptr has nothing to report.

// Fixed enumerates the element types with a fixed-width wire form.
type Fixed interface {
	uint8 | int16 | uint16 | int32 | uint32 | int64 | uint64 | float32 | float64
}

// bigEndian reports that the host's byte order is not the wire's. GOARCH is
// a constant, so this is one too and the branch it selects costs nothing;
// `GOARCH=s390x go vet` type-checks the side no test here can run.
const bigEndian = runtime.GOARCH == "s390x" || runtime.GOARCH == "ppc64" ||
	runtime.GOARCH == "mips" || runtime.GOARCH == "mips64"

func elemSize[T Fixed]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// view returns the memory of xs as bytes.
func view[T Fixed](xs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*elemSize[T]())
}

// wireCopy copies between a vector's memory and its wire form (the
// conversion is its own inverse): a plain copy on a little-endian host.
func wireCopy(dst, src []byte, size int) {
	if bigEndian && size > 1 {
		swapCopy(dst, src, size)
		return
	}
	copy(dst, src)
}

// swapCopy copies src to dst reversing the bytes of every size-byte
// element: the per-element conversion a big-endian host needs.
func swapCopy(dst, src []byte, size int) {
	for i := 0; i+size <= len(src); i += size {
		for j := 0; j < size; j++ {
			dst[i+j] = src[i+size-1-j]
		}
	}
}

// unpack decodes the wire payload b into dst. It is the one place a payload
// meets an element count, and so the one rule for a torn payload: anything
// but exactly len(dst) whole elements panics, naming both lengths like the
// collectives' length mismatches.
func unpack[T Fixed](dst []T, b []byte) {
	size := elemSize[T]()
	if len(b) != len(dst)*size {
		panic(fmt.Sprintf("mpi: payload length mismatch: %d bytes vs %d whole %T elements of %d bytes (sender used a different type?)",
			len(b), len(dst), *new(T), size))
	}
	wireCopy(view(dst), b, size)
}

// Packed returns the wire form of xs in a fresh buffer.
func Packed[T Fixed](xs []T) []byte {
	size := elemSize[T]()
	out := make([]byte, len(xs)*size)
	wireCopy(out, view(xs), size)
	return out
}

// Unpacked decodes a wire payload into a fresh vector. It panics if the
// payload is not a whole number of elements.
func Unpacked[T Fixed](b []byte) []T {
	out := make([]T, len(b)/elemSize[T]())
	unpack(out, b)
	return out
}

// Wire returns the wire form of xs for a call that only reads it: xs's own
// memory on a little-endian host (no copy), a packed copy otherwise.
func Wire[T Fixed](xs []T) []byte {
	if b, ok := View(xs); ok {
		return b
	}
	return Packed(xs)
}

// View returns xs's own memory where it is xs's wire form — on a
// little-endian host — for a reader that may keep it instead of a copy; ok
// is false where it is not, and the caller encodes the elements itself.
func View[T Fixed](xs []T) (b []byte, ok bool) {
	if bigEndian {
		return nil, false
	}
	return view(xs), true
}

// Fill has fill write the wire form of dst's elements: straight into the
// vector's memory on a little-endian host, through a buffer that is then
// decoded otherwise.
func Fill[T Fixed](dst []T, fill func(wire []byte)) {
	if bigEndian {
		w := make([]byte, len(dst)*elemSize[T]())
		fill(w)
		unpack(dst, w)
		return
	}
	fill(view(dst))
}

// Filled is Fill of a fresh n-element vector.
func Filled[T Fixed](n int, fill func(wire []byte)) []T {
	out := make([]T, n)
	Fill(out, fill)
	return out
}
