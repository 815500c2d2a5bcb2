package main

import "fmt"

// recoveryPhases is one kill's time-to-recover, split at the three
// instants the benchmark can see from outside: the victim's last sign of
// life, the driver's restart decision (OnRestart), and the replacement's
// program entry.
//
//	detect  = OnRestart            - victim's last stamp
//	respawn = replacement's entry  - OnRestart
//	restore = replacement's first iteration - its entry
//	recover = last rank's first iteration   - victim's last stamp
//
// detect + respawn + restore ends at the replacement's first iteration and
// recover at the slowest rank's, so the sum equals recover whenever the
// replacement is the last to resume (it has a process to start and a state
// to read; survivors roll back from memory) and falls short by the gap
// otherwise. Re-execution of the lost iterations is reported apart: it is a
// property of the checkpoint interval, not of recovery.
type recoveryPhases struct {
	DetectMs, RespawnMs, RestoreMs, ReexecMs, RecoverMs float64
}

// phasesFromStamps computes one recoveryPhases per kill. stamps[r][k] are
// rank r's stamps in incarnation k; kill k ended incarnation k, its victim
// is victims[k] and the driver's restart callback fired at restartNs[k].
func phasesFromStamps(stamps [][][]stamp, victims []int, restartNs []int64) ([]recoveryPhases, error) {
	if len(victims) != len(restartNs) {
		return nil, fmt.Errorf("%d victims but %d restart callbacks", len(victims), len(restartNs))
	}
	ms := func(a, b int64) float64 { return float64(b-a) / 1e6 }
	out := make([]recoveryPhases, 0, len(victims))
	for k, v := range victims {
		if v < 0 || v >= len(stamps) || len(stamps[v]) < k+2 || len(stamps[v][k]) == 0 {
			return nil, fmt.Errorf("kill %d: rank %d has no stamps on both sides of it", k, v)
		}
		last := stamps[v][k][len(stamps[v][k])-1]
		next := stamps[v][k+1]
		entry := next[0]
		firstIter, ok := firstIteration(next, -1)
		if entry.Kind != 'E' || !ok {
			return nil, fmt.Errorf("kill %d: rank %d's replacement never reached an iteration", k, v)
		}
		resumed := firstIter.AtNs
		for r := range stamps {
			if len(stamps[r]) < k+2 {
				return nil, fmt.Errorf("kill %d: rank %d never joined incarnation %d", k, r, k+1)
			}
			s, ok := firstIteration(stamps[r][k+1], -1)
			if !ok {
				return nil, fmt.Errorf("kill %d: rank %d never resumed", k, r)
			}
			resumed = max(resumed, s.AtNs)
		}
		p := recoveryPhases{
			DetectMs:  ms(last.AtNs, restartNs[k]),
			RespawnMs: ms(restartNs[k], entry.AtNs),
			RestoreMs: ms(entry.AtNs, firstIter.AtNs),
			RecoverMs: ms(last.AtNs, resumed),
		}
		if past, ok := firstIteration(next, last.Iter); ok {
			p.ReexecMs = ms(firstIter.AtNs, past.AtNs)
		}
		out = append(out, p)
	}
	return out, nil
}

// firstIteration returns the first iteration stamp whose iteration number
// exceeds after.
func firstIteration(ss []stamp, after int) (stamp, bool) {
	for _, s := range ss {
		if s.Kind == 'I' && s.Iter > after {
			return s, true
		}
	}
	return stamp{}, false
}

// identityGap is how far detect + respawn + restore falls from recover, as
// a share of recover, on the means of a set of kills (means, so that the
// sum of the parts is the part of the sums).
func identityGap(ps []recoveryPhases) float64 {
	var parts, whole float64
	for _, p := range ps {
		parts += p.DetectMs + p.RespawnMs + p.RestoreMs
		whole += p.RecoverMs
	}
	if whole == 0 {
		return 0
	}
	return (whole - parts) / whole
}
