package ccift

import "ccift/internal/mpi"

// Typed messaging and state: one function per direction for every
// fixed-width element type, and a payload is copied once. The wire format
// is the elements packed little-endian — on a little-endian host, the
// vector's own memory — so Send hands the substrate a view of the caller's
// vector, which the substrate copies once into a recycled message, Recv
// decodes with one copy into the typed result and gives the message back,
// and a collective allocates its result once, with its element type, has
// the substrate fill that memory and sends the caller's vector from its
// own. Typed and untyped ranks interoperate: F64Bytes produces the same
// bytes.

// Element enumerates the fixed-width element types the typed messaging
// front end can put on the wire.
type Element interface {
	byte | int16 | uint16 | int32 | uint32 | int64 | uint64 | float32 | float64
}

// Send sends a vector of fixed-width elements to dst with the given tag.
// The vector is copied before Send returns, so the caller may reuse it.
func Send[T Element](r *Rank, dst, tag int, xs []T) {
	r.Send(dst, tag, mpi.Wire(xs))
}

// Recv receives a vector of fixed-width elements matching (src, tag); src
// may be AnySource and tag AnyTag. It panics if the payload is not a whole
// number of elements — i.e. the sender used a different type. The decoded
// vector is the only copy the receive keeps: the message goes back to the
// world.
func Recv[T Element](r *Rank, src, tag int) (xs []T) {
	r.Layer().RecvFunc(src, tag, func(p []byte) { xs = mpi.Unpacked[T](p) })
	return xs
}

// Element64 is the subset of Element the built-in reduction operators can
// combine: every Op works on packed 8-byte lanes, so reducing a narrower
// element type would silently reinterpret pairs of values as one lane.
type Element64 interface {
	int64 | uint64 | float64
}

// Allreduce combines element vectors across all ranks with op. T is
// restricted to 8-byte elements because the built-in Ops combine 8-byte
// lanes (SumF64, MaxI64, ...).
func Allreduce[T Element64](r *Rank, xs []T, op Op) []T {
	return mpi.Filled[T](len(xs), func(w []byte) { r.AllreduceInto(w, mpi.Wire(xs), op) })
}

// Reg registers a new zero-valued variable of type T under name and
// returns a pointer to it: the value is saved with every checkpoint and —
// through the same VDS machinery Register uses — restored into the
// returned pointer when a restarted incarnation re-executes the Reg call.
// T must be a type Register accepts: int, int64, uint64, float64, bool,
// string, []byte, []float64, []int, []int64 or [][]float64 (or a request
// or communicator handle); any other panics, and the run ends with
// ErrProgram. Register a struct's fields one by one.
func Reg[T any](r *Rank, name string) *T {
	p := new(T)
	r.Register(name, p)
	return p
}
