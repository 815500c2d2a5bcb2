package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestSystemNowAdvances(t *testing.T) {
	a := system.Now()
	time.Sleep(2 * time.Millisecond)
	if d := system.Since(a); d <= 0 {
		t.Fatalf("Since = %v, want > 0", d)
	}
}

func TestSystemAfterFuncFiresAndStops(t *testing.T) {
	var fired atomic.Int32
	tm := system.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for fired.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fired.Load() != 1 {
		t.Fatal("AfterFunc never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing reported cancellation")
	}

	tm = system.AfterFunc(time.Hour, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop before firing reported already-run")
	}
}

func TestOr(t *testing.T) {
	if Or(nil) != system {
		t.Fatal("Or(nil) != system")
	}
	c := systemClock{}
	if Or(c) != c {
		t.Fatal("Or(c) != c")
	}
}

func TestGoOnTheWallClock(t *testing.T) {
	var ran atomic.Bool
	release := make(chan struct{})
	wait := Go(system, func() { <-release; ran.Store(true) })
	if ran.Load() {
		t.Fatal("the task ran ahead of its release")
	}
	close(release)
	wait()
	if !ran.Load() {
		t.Fatal("wait returned before the task had")
	}
}
