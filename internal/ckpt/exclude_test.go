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

func TestReplicatedSavedOnPrimaryOnly(t *testing.T) {
	mk := func(primary bool) []byte {
		s := NewSaver()
		s.VDS.Primary = primary
		tbl := []float64{1, 2, 3, 4}
		if err := s.VDS.PushReplicated("tbl", &tbl); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		return snap
	}
	primarySnap, otherSnap := mk(true), mk(false)
	if len(primarySnap) <= len(otherSnap) {
		t.Fatalf("primary snapshot (%dB) should carry the data the others (%dB) omit",
			len(primarySnap), len(otherSnap))
	}
}

func TestReplicatedRestoreThroughReplicaMap(t *testing.T) {
	// The primary rank's Saver snapshot carries the value; the recovery
	// driver extracts it from exactly this format.
	sp := NewSaver()
	sp.VDS.Primary = true
	tbl := []float64{10, 20, 30}
	if err := sp.VDS.PushReplicated("tbl", &tbl); err != nil {
		t.Fatal(err)
	}
	primaryBlob := sp.Snapshot()
	replicas, err := ExtractReplicated(primaryBlob)
	if err != nil {
		t.Fatal(err)
	}
	if len(replicas) != 1 {
		t.Fatalf("replicas = %v", replicas)
	}

	// A non-primary rank's snapshot carries only the marker; restore pulls
	// the value from the distributed replica map.
	so := NewSaver()
	tblO := []float64{10, 20, 30}
	if err := so.VDS.PushReplicated("tbl", &tblO); err != nil {
		t.Fatal(err)
	}
	v2 := rollback(t, so).VDS
	v2.SetReplicas(replicas)
	var got []float64
	if err := v2.PushReplicated("tbl", &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestReplicatedRestoreWithoutReplicaFails(t *testing.T) {
	so := NewSaver()
	tbl := []float64{1}
	if err := so.VDS.PushReplicated("tbl", &tbl); err != nil {
		t.Fatal(err)
	}
	v2 := rollback(t, so).VDS
	var got []float64
	err := v2.PushReplicated("tbl", &got)
	if err == nil || !strings.Contains(err.Error(), "no replica") {
		t.Fatalf("err = %v, want no-replica error", err)
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
