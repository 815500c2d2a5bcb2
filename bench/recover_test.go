package main

import (
	"math"
	"testing"
)

// One kill on a synthetic stamp file: rank 1 dies after iteration 12, the
// launcher decides to restart at t=700 ms, the replacement enters the
// program at 760 and resumes at 790; the survivor (rolled back in memory)
// resumes at 770.
const (
	rank0Stamps = "E 0 100000000 0 41\nI 10 400000000 50 41\nI 11 450000000 55 41\nI 12 500000000 60 41\n" +
		"E 0 765000000 0 41\nI 10 770000000 5 41\nI 11 800000000 10 41\nI 12 850000000 15 41\nI 13 900000000 20 41\nD 14 950000000 25 41\n"
	rank1Stamps = "E 0 101000000 0 42\nI 10 401000000 50 42\nI 11 451000000 55 42\nI 12 495000000 60 42\n" +
		"E 0 760000000 0 77\nI 10 790000000 5 77\nI 11 810000000 10 77\nI 12 860000000 15 77\nI 13 905000000 20 77\nD 14 951000000 25 77\n"
)

func TestPhasesFromStamps(t *testing.T) {
	stamps := [][][]stamp{splitIncarnations(parseStamps(rank0Stamps)), splitIncarnations(parseStamps(rank1Stamps))}
	if len(stamps[0]) != 2 || len(stamps[1]) != 2 {
		t.Fatalf("incarnations: %d and %d, want 2 and 2", len(stamps[0]), len(stamps[1]))
	}
	if pid := stamps[1][1][0].Pid; pid != 77 {
		t.Errorf("replacement pid = %d, want 77", pid)
	}
	ps, err := phasesFromStamps(stamps, []int{1}, []int64{700e6})
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	want := recoveryPhases{DetectMs: 205, RespawnMs: 60, RestoreMs: 30, ReexecMs: 115, RecoverMs: 295}
	if p != want {
		t.Errorf("phases = %+v, want %+v", p, want)
	}
	// The identity: the replacement was the last to resume, so the three
	// phases sum to recover exactly.
	if gap := identityGap(ps); math.Abs(gap) > 1e-12 {
		t.Errorf("identity gap = %v, want 0", gap)
	}
	// Had the survivor resumed 20 ms after the replacement, recover grows and
	// the parts fall short by that gap.
	stamps[0][1][1].AtNs = 810e6
	ps, _ = phasesFromStamps(stamps, []int{1}, []int64{700e6})
	if ps[0].RecoverMs != 315 || math.Abs(identityGap(ps)-20.0/315) > 1e-12 {
		t.Errorf("late survivor: recover %v gap %v, want 315 and 20/315", ps[0].RecoverMs, identityGap(ps))
	}
}

func TestParseStampsStopsAtTornLine(t *testing.T) {
	ss := parseStamps("E 0 1 0 9\nI 0 2 3 9\nI 1 3")
	if len(ss) != 2 || ss[1].Kind != 'I' || ss[1].Ops != 3 {
		t.Errorf("parsed %+v, want the two whole lines", ss)
	}
	if _, err := phasesFromStamps([][][]stamp{splitIncarnations(ss), splitIncarnations(ss)}, []int{0}, []int64{5}); err == nil {
		t.Error("a kill without a following incarnation was accepted")
	}
}

func TestKillScheduleIsSeededAndAfterTheCheckpoint(t *testing.T) {
	w, _ := findWorkload("ring-recover")
	ops := [ranks]float64{4, 4}
	a, b := w.killSchedule(w.Kills, ops, 7), w.killSchedule(w.Kills, ops, 7)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("same seed, different schedule: %+v vs %+v", a, b)
		}
		iters := float64(a[k].AtOp) / 4
		if iters < float64(w.FKillAfter) || iters >= float64(2*w.FEveryN) || a[k].Incarnation != k {
			t.Errorf("kill %d at iteration %v of incarnation %d: want [%d, %d) of incarnation %d", k, iters, a[k].Incarnation, w.FKillAfter, 2*w.FEveryN, k)
		}
		if k > 0 && a[k].Rank == a[k-1].Rank {
			t.Errorf("victims do not alternate: %+v", a)
		}
	}
	if c := w.killSchedule(w.Kills, ops, 8); c[0].Rank == a[0].Rank {
		t.Errorf("seeds 7 and 8 start with the same victim")
	}
}
