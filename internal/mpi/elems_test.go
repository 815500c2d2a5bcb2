package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestHostByteOrderConstant: the constant that selects the copy or the
// per-element conversion must agree with the machine the tests run on.
func TestHostByteOrderConstant(t *testing.T) {
	x := uint16(1)
	little := *(*byte)(unsafe.Pointer(&x)) == 1
	if little == bigEndian {
		t.Fatalf("bigEndian = %v on a host whose uint16(1) starts with byte %d", bigEndian, *(*byte)(unsafe.Pointer(&x)))
	}
}

// TestWireFormIsLittleEndian pins the wire format against encoding/binary
// for every element width, and the branch a big-endian host takes against
// the big-endian encoding of the same values.
func TestWireFormIsLittleEndian(t *testing.T) {
	f64 := []float64{0, -0.0, 1.5, math.Inf(-1), math.NaN(), 1e-310}
	want := make([]byte, 8*len(f64))
	be := make([]byte, 8*len(f64))
	for i, x := range f64 {
		binary.LittleEndian.PutUint64(want[8*i:], math.Float64bits(x))
		binary.BigEndian.PutUint64(be[8*i:], math.Float64bits(x))
	}
	if got := Packed(f64); !bytes.Equal(got, want) {
		t.Fatalf("Packed(float64) = %x, want %x", got, want)
	}
	if got := Wire(f64); !bytes.Equal(got, want) {
		t.Fatalf("Wire(float64) = %x, want %x", got, want)
	}
	swapped := make([]byte, len(want))
	swapCopy(swapped, want, 8)
	if !bytes.Equal(swapped, be) {
		t.Fatalf("swapCopy of the wire form = %x, want the big-endian memory image %x", swapped, be)
	}
	back := Unpacked[float64](want)
	for i := range f64 {
		if math.Float64bits(back[i]) != math.Float64bits(f64[i]) {
			t.Fatalf("element %d: %x came back as %x", i, math.Float64bits(f64[i]), math.Float64bits(back[i]))
		}
	}

	i32 := []int32{1, -2, math.MaxInt32, math.MinInt32}
	w32 := make([]byte, 4*len(i32))
	for i, x := range i32 {
		binary.LittleEndian.PutUint32(w32[4*i:], uint32(x))
	}
	if got := Packed(i32); !bytes.Equal(got, w32) {
		t.Fatalf("Packed(int32) = %x, want %x", got, w32)
	}
	u16 := []uint16{1, 0xBEEF}
	if got, want := Packed(u16), []byte{1, 0, 0xEF, 0xBE}; !bytes.Equal(got, want) {
		t.Fatalf("Packed(uint16) = %x, want %x", got, want)
	}
	if got := Unpacked[uint16]([]byte{1, 0, 0xEF, 0xBE}); !reflect.DeepEqual(got, u16) {
		t.Fatalf("Unpacked(uint16) = %v, want %v", got, u16)
	}
	if got := Packed([]byte("abc")); string(got) != "abc" {
		t.Fatalf("Packed(bytes) = %q", got)
	}
}

// TestFilledWritesTheTypedResultInPlace: on this host the buffer a
// collective fills is the result's own memory.
func TestFilledWritesTheTypedResultInPlace(t *testing.T) {
	out := Filled[float64](3, func(w []byte) {
		if len(w) != 24 {
			t.Fatalf("wire buffer of %d bytes for 3 doubles", len(w))
		}
		copy(w, Packed([]float64{1, 2, 3}))
	})
	if !reflect.DeepEqual(out, []float64{1, 2, 3}) {
		t.Fatalf("Filled = %v", out)
	}
	if got := Filled[int64](0, func(w []byte) {}); len(got) != 0 {
		t.Fatalf("Filled(0) = %v", got)
	}
}

// TestTornPayloadOneRule: every unpacker applies the same rule to a payload
// that is not a whole number of elements — it panics, naming both lengths —
// where BytesF64/BytesI64 used to drop the partial element, the into-form
// died on an index and only the generic path complained.
func TestTornPayloadOneRule(t *testing.T) {
	unpackers := map[string]func(b []byte) int{
		"BytesF64":         func(b []byte) int { return len(BytesF64(b)) },
		"Unpacked[int64]":  func(b []byte) int { return len(Unpacked[int64](b)) },
		"unpack":           func(b []byte) int { dst := make([]float64, len(b)/8); unpack(dst, b); return len(dst) },
		"Unpacked[uint64]": func(b []byte) int { return len(Unpacked[uint64](b)) },
	}
	for name, unpackLen := range unpackers {
		for _, n := range []int{0, 7, 8, 15} {
			got, panicked := func() (elems int, msg string) {
				defer func() {
					if p := recover(); p != nil {
						msg = p.(string)
					}
				}()
				return unpackLen(make([]byte, n)), ""
			}()
			if n%8 == 0 {
				if panicked != "" || got != n/8 {
					t.Fatalf("%s(%d bytes): %d elements, panic %q", name, n, got, panicked)
				}
				continue
			}
			if want := fmt.Sprintf("payload length mismatch: %d bytes vs %d whole", n, n/8); !strings.Contains(panicked, want) || !strings.Contains(panicked, "elements of 8 bytes") {
				t.Fatalf("%s(%d bytes): panic %q, want %q naming both lengths", name, n, panicked, want)
			}
		}
	}
	// A destination that is too short or too long is the same mismatch.
	for _, elems := range []int{0, 2} {
		func() {
			defer func() {
				if p := recover(); p == nil {
					t.Fatalf("unpack(%d elements, 8 bytes) did not panic", elems)
				}
			}()
			unpack(make([]float64, elems), make([]byte, 8))
		}()
	}
}
