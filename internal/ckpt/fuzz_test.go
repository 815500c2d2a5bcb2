package ckpt

import (
	"runtime"
	"testing"
)

// fuzzTargets returns a fresh pointer of every type the codec decodes on
// its own, keyed by the name the seed state registers it under — plus a gob
// value without slices or maps, whose every length gob checks against the
// bytes present once gobFramed has passed the field.
func fuzzTargets() map[string]any {
	return map[string]any{
		"int": new(int), "i64": new(int64), "u64": new(uint64), "f64": new(float64), "bool": new(bool),
		"str": new(string), "bytes": new([]byte), "floats": new([]float64), "ints": new([]int),
		"i64s": new([]int64), "matrix": new([][]float64), "gob": new(struct {
			A int64
			B string
		}),
	}
}

// fuzzSeed is a small snapshot holding one value of every target type, and
// one heap block.
func fuzzSeed(tb testing.TB) []byte {
	tb.Helper()
	s := NewSaver()
	s.PS.Push(3)
	vals := map[string]any{
		"int": ptr(-7), "i64": ptr(int64(1) << 40), "u64": ptr(uint64(9)), "f64": ptr(2.5), "bool": ptr(true),
		"str": ptr("state"), "bytes": ptr([]byte{1, 2, 3}), "floats": ptr([]float64{1, -2, 3.5}),
		"ints": ptr([]int{4, 5}), "i64s": ptr([]int64{-6}), "matrix": ptr([][]float64{{1}, {}, {2, 3}}),
		"gob": &struct {
			A int64
			B string
		}{A: 11, B: "fallback"},
	}
	for name, v := range vals {
		if err := s.VDS.Push(name, v); err != nil {
			tb.Fatal(err)
		}
	}
	copy(s.Heap.Alloc(5).Data, "block")
	snap, err := s.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// FuzzRestore: arbitrary bytes given to the restore decoder — as a state
// snapshot, whose registrations then decode their values, and as a single
// encoded value of every type — never panic it and never make it allocate
// more than 1 MiB: every count it reads is checked against the bytes left
// before anything is allocated from it.
func FuzzRestore(f *testing.F) {
	seed := fuzzSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)-1])
	f.Add([]byte{})
	for _, p := range fuzzTargets() {
		if raw, err := Encode(p); err == nil {
			f.Add(raw)
		}
	}
	f.Add([]byte{tagFloat64Matrix, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 2^32 rows, none present
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8<<10 { // a row or a heap block is a byte of input and tens in memory
			t.Skip()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewSaver()
		if s.StartRestore(raw) == nil {
			for name, p := range fuzzTargets() {
				_ = s.VDS.Push(name, p) // a value of the wrong kind or shape is an error, not a panic
			}
		}
		for _, p := range fuzzTargets() {
			_ = Decode(raw, p)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("allocated %d bytes decoding %d", grew, len(raw))
		}
	})
}
