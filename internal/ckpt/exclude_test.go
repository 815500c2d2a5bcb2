package ckpt

import (
	"strings"
	"testing"
)

func TestComputedEntrySavesOnlyFingerprint(t *testing.T) {
	s := NewSaver()
	v := s.VDS
	big := make([]float64, 1<<16)
	for i := range big {
		big[i] = float64(i)
	}
	if err := v.PushComputed("big", &big, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap) > 128 {
		t.Fatalf("computed snapshot is %d bytes; should be a fingerprint, not the data", len(snap))
	}
}

func TestComputedRestoreRecomputesAndVerifies(t *testing.T) {
	fill := func(dst []float64) {
		for i := range dst {
			dst[i] = float64(i) * 1.5
		}
	}
	s := NewSaver()
	v := s.VDS
	data := make([]float64, 1024)
	fill(data)
	if err := v.PushComputed("data", &data, func() error { fill(data); return nil }); err != nil {
		t.Fatal(err)
	}

	// Restart: the value is regenerated, not decoded.
	v2 := rollback(t, s).VDS
	data2 := make([]float64, 1024)
	ran := false
	err := v2.PushComputed("data", &data2, func() error { ran = true; fill(data2); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("recompute did not run on restore")
	}
	if len(v2.restore) != 0 {
		t.Fatal("restore not consumed")
	}
	for i := range data2 {
		if data2[i] != float64(i)*1.5 {
			t.Fatalf("data2[%d] = %v", i, data2[i])
		}
	}
}

func TestComputedRestoreDetectsWrongRecomputation(t *testing.T) {
	s := NewSaver()
	x := 42
	if err := s.VDS.PushComputed("x", &x, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	v2 := rollback(t, s).VDS
	var y int
	err := v2.PushComputed("x", &y, func() error { y = 7; return nil }) // wrong value
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

func TestKindMismatchDetected(t *testing.T) {
	s := NewSaver()
	x := 1
	if err := s.VDS.Push("x", &x); err != nil {
		t.Fatal(err)
	}
	v2 := rollback(t, s).VDS
	var y int
	if err := v2.PushComputed("x", &y, func() error { return nil }); err == nil {
		t.Fatal("saved entry restored as computed should fail")
	}
}
