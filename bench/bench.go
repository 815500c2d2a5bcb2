package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ccift/internal/protocol"
)

// result is what one run of one workload produced: the contract's four
// fields plus everything needed to read the numbers later (environment,
// sample counts, quartiles, the checks that failed).
type result struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	Failures  []string          `json:"failures,omitempty"`
	Warnings  []string          `json:"warnings,omitempty"`
	Params    map[string]any    `json:"params"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds printed-but-ungated numbers (overhead_pct, per-layer self
	// time, sample dumps) that are not metrics of the contract.
	Extra map[string]any `json:"extra,omitempty"`
}

// execution is one line of a run's log: which program execution started
// when (seconds into the run) and how long it took.
type execution struct {
	AtS   float64 `json:"at_s"`
	Label string  `json:"label"`
	WallS float64 `json:"wall_s"`
	Speed float64 `json:"speed"` // machine slowdown around it, 1 = normal
}

// bench carries one workload run's state.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	workDir string
	nextDir int
	res     *result
	start   time.Time

	// Set-up products.
	refFaulted string         // Unmodified result of the faulted-size problem
	opsPerIter [ranks]float64 // substrate operations per iteration, Full mode
	data       []byte         // storage probe fixture
	refMain    string         // Unmodified result of the measured problem
	setupS     []float64      // one entry per set-up round
	stateBytes [ranks]float64 // logical checkpoint bytes per rank, measured
	samples    map[string][]float64
	series     []execution // every program execution, in order
	t0         time.Time
}

func newBench(w workload, seed int64, seconds int, trace bool, workRoot string) (*bench, error) {
	dir := filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", w.Name, os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &bench{
		w: w, seed: seed, seconds: float64(seconds), workDir: dir, start: time.Now(), t0: time.Now(),
		samples: map[string][]float64{},
		res: &result{
			Workload: w.Name, Why: w.Why, Trace: trace, Seed: seed, Seconds: seconds,
			Metrics: map[string]metric{}, Extra: map[string]any{},
			Params: map[string]any{
				"app": w.App, "size": w.Size, "ranks": ranks, "iters": w.Iters, "every_n": w.EveryN,
				"expected_ckpts": expectedCkpts(w.Iters, w.EveryN),
				"faulted_iters":  w.faultedIters(), "faulted_every_n": w.FEveryN, "kill_after_iters": w.FKillAfter, "kills": w.Kills,
				"distributed": w.Distributed, "policy": "default (async, incremental freeze, governor on, default chunk pipeline)",
				"store": "storage.NewDisk in a fresh directory per execution",
			},
		},
	}, nil
}

func (b *bench) dir(label string) string {
	b.nextDir++
	return filepath.Join(b.workDir, fmt.Sprintf("%03d-%s", b.nextDir, label))
}

func (b *bench) fail(format string, args ...any) {
	b.res.Failed++
	b.res.Failures = append(b.res.Failures, fmt.Sprintf(format, args...))
}

func (b *bench) warn(format string, args ...any) {
	b.res.Warnings = append(b.res.Warnings, fmt.Sprintf(format, args...))
}

func (b *bench) elapsed() float64 { return time.Since(b.start).Seconds() }

// problem selects which of a workload's fixed problems an execution runs.
type problem int

const (
	measured   problem = iota // Iters, EveryN: what base_s and full_s time
	faulted                   // faultedIters, FEveryN: what the kills interrupt
	calibrated                // a short run without checkpoints, for ops/iteration
)

// calIters is the length of the calibration problem: substrate operations
// per iteration are fixed by the program's structure, so a short run
// without any checkpoint measures them exactly.
const calIters = 200

// spec builds the execution spec of one program version on the workload's
// own substrate.
func (b *bench) spec(label string, mode protocol.Mode, p problem) (runSpec, error) {
	iters, everyN := b.w.Iters, b.w.EveryN
	switch p {
	case faulted:
		iters, everyN = b.w.faultedIters(), b.w.FEveryN
	case calibrated:
		iters, everyN = calIters, 0
	}
	s := runSpec{label: label, mode: mode, everyN: everyN, seed: b.seed, dir: b.dir(label)}
	if b.w.Distributed {
		s.ring = b.w.ringFor(iters, everyN, b.seed)
		return s, nil
	}
	var err error
	s.prog, err = b.w.program(iters, everyN, b.seed)
	return s, err
}

// inProcess re-targets a spec at the in-process engine (the ring program
// runs there too: the traced transport and the engine's recovery driver
// only exist in-process).
func inProcess(s runSpec) runSpec {
	if s.ring != nil {
		s.prog, s.ring = ringProgram(*s.ring), nil
	}
	return s
}

// check counts one execution and records every way it can have failed:
// an error, a result differing from the Unmodified reference, fewer
// committed global checkpoints than the fixed-work rule expects, or a
// restart count differing from the kills scheduled.
func (b *bench) check(o *runOut, ref string, wantCkpts int) bool {
	b.res.Attempted++
	b.series = append(b.series, execution{AtS: float64(o.startNs-b.t0.UnixNano()) / 1e9, Label: o.spec.label, WallS: o.wallS, Speed: o.speed})
	s := o.spec
	switch {
	case o.err != nil:
		b.fail("%s: %v", s.label, o.err)
	case o.value == "":
		b.fail("%s: ranks disagree on the result", s.label)
	case ref != "" && o.value != ref:
		b.fail("%s: result %q differs from the Unmodified reference %q", s.label, o.value, ref)
	case s.mode >= protocol.NoAppState && len(s.kills) == 0 && o.committed != wantCkpts:
		b.fail("%s: committed %d global checkpoints, the fixed-work rule expects %d — not a fast run, a different one", s.label, o.committed, wantCkpts)
	case o.restarts != len(s.kills):
		b.fail("%s: %d restarts for %d scheduled kills", s.label, o.restarts, len(s.kills))
	default:
		return true
	}
	return false
}

// freshRecovery reports whether restart k recovered from a checkpoint its
// own incarnation committed: the kill landed after the commit it was placed
// behind. A kill that beat the commit (a slow cold flush) still recovers
// correctly, from the epoch before or from the beginning, but along a
// different path, so its time is left out of recover_ms.
func freshRecovery(recovered []int, k int) bool {
	prev := 0
	if k > 0 {
		prev = max(recovered[k-1], 0)
	}
	return k < len(recovered) && recovered[k] > prev
}

// setup is the in-binary set-up, run three times so that its median can be
// reported: scratch directories, the probe fixture, and two small
// executions — the faulted-size problem Unmodified (the reference the
// faulted runs must reproduce, and the warm-up) and a short Full run
// without checkpoints (which calibrates substrate operations per iteration
// for kill placement).
func (b *bench) setup() bool {
	ok := true
	for round := 0; round < 3; round++ {
		start := time.Now()
		b.data = fixture(b.seed, int(b.w.Ring.stateBytes()))
		ref, err := b.spec("setup-unmodified", protocol.Unmodified, faulted)
		if err != nil {
			b.fail("setup: %v", err)
			return false
		}
		ro := execute(ref)
		ok = b.check(ro, b.refFaulted, 0) && ok
		b.refFaulted = ro.value

		cal, err := b.spec("setup-calibrate", protocol.Full, calibrated)
		if err != nil {
			b.fail("setup: %v", err)
			return false
		}
		var ops [ranks]atomic.Int64
		if cal.prog != nil {
			cal.prog = withOpCount(cal.prog, &ops)
		}
		co := execute(cal)
		ok = b.check(co, "", 0) && ok
		if co.err == nil {
			for r := 0; r < ranks; r++ {
				if cal.prog != nil {
					b.opsPerIter[r] = float64(ops[r].Load()) / calIters
				} else if st := co.stamps[r][0]; len(st) > 1 {
					last := st[len(st)-1]
					b.opsPerIter[r] = float64(last.Ops) / float64(max(last.Iter, 1))
				}
			}
		}
		raw := time.Since(start).Seconds()
		b.add("raw/setup_s", raw)
		b.setupS = append(b.setupS, raw/((ro.speed+co.speed)/2))
	}
	b.res.Params["ops_per_iter"] = b.opsPerIter
	return ok
}

// recordFull keeps what every fault-free Full execution contributes to the
// checkpoint metrics.
func (b *bench) recordFull(o *runOut) {
	var bytes, written float64
	for r, s := range o.stats {
		if s.CheckpointsTaken > 0 && r < ranks {
			b.stateBytes[r] = float64(s.CheckpointBytes) / float64(s.CheckpointsTaken)
		}
		bytes += float64(s.CheckpointBytes)
		written += float64(s.CheckpointBytesWritten)
	}
	b.add("sum_bytes", bytes)
	b.add("sum_written", written)
	if total := sum(b.stateBytes[:]); total > 0 {
		b.add("store_space_ratio", float64(o.storeBytes)/total)
	}
	for _, c := range extractCheckpoints(o.frames) {
		b.add("blocked_ms", c.BlockedMs)
		if c.Index == 1 {
			b.add("first_blocked_ms", c.BlockedMs)
		}
		if d := c.durableMs(); d >= 0 {
			b.add("durable_ms", d)
			// Kept per checkpoint index: the governor halves its cap flush
			// after flush, so the last checkpoint of a run sets the worst
			// commit latency the trigger spacing must stay above.
			b.add(fmt.Sprintf("durable_ms/%d", min(c.Index, 4)), d)
		}
	}
}

func (b *bench) add(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// measureEndToEnd is the untraced run: alternating (Unmodified, Full)
// repetitions of the measured problem for about two thirds of the time,
// then faulted executions for the rest.
func (b *bench) measureEndToEnd() {
	want := expectedCkpts(b.w.Iters, b.w.EveryN)
	pairBudget := 0.68 * b.seconds
	var lastPair float64
	// Three pairs at least — two when the machine is so slow that the third
	// would overrun the whole budget — and as many more as fit.
	for rep := 0; rep < 2 || (rep < 3 && b.elapsed()+lastPair < b.seconds) || b.elapsed()+lastPair < pairBudget; rep++ {
		pairStart := time.Now()
		// Alternate which version goes first, so slow drift of the machine
		// does not land on one side.
		for _, mode := range order(rep, protocol.Unmodified, protocol.Full) {
			s, err := b.spec(fmt.Sprintf("rep%d-%v", rep, mode), mode, measured)
			if err != nil {
				b.fail("%v", err)
				return
			}
			s.heap = mode == protocol.Full
			o := execute(s)
			if mode == protocol.Unmodified && b.refMain == "" && o.err == nil {
				b.refMain = o.value
			}
			if b.check(o, b.refMain, want) {
				if mode == protocol.Full {
					b.add("full_s", o.scaledS())
					b.add("raw/full_s", o.wallS)
					b.add("mem_peak_mb", float64(o.heapPeak)/mb)
					b.recordFull(o)
				} else {
					b.add("base_s", o.scaledS())
					b.add("raw/base_s", o.wallS)
				}
			}
		}
		lastPair = time.Since(pairStart).Seconds()
	}

	var lastFaulted float64
	for n := 0; n < 1 || b.elapsed()+lastFaulted < b.seconds; n++ {
		start := time.Now()
		s, err := b.spec(fmt.Sprintf("faulted%d", n), protocol.Full, faulted)
		if err != nil {
			b.fail("%v", err)
			return
		}
		s.kills = b.w.killSchedule(b.w.Kills, b.opsPerIter, b.seed+int64(n))
		s.clock = !b.w.Distributed
		o := execute(s)
		if b.check(o, b.refFaulted, 0) {
			// In-process recovery is pure CPU work and is scaled like the
			// times to solution; on the distributed substrate the launcher's
			// fixed 200 ms settle window and process start dominate, and
			// scaling a timer would add the noise it is meant to remove.
			scale := o.speed
			if b.w.Distributed {
				scale = 1
			}
			for _, p := range b.fresh(o, b.recoveries(o)) {
				b.add("recover_ms", p.RecoverMs/scale)
				b.add("raw/recover_ms", p.RecoverMs)
			}
		}
		lastFaulted = time.Since(start).Seconds()
	}

	m := b.res.Metrics
	m["setup_s"] = fromSamples("s", b.setupS)
	m["base_s"] = fromSamples("s", b.samples["base_s"])
	m["full_s"] = fromSamples("s", b.samples["full_s"])
	m["ckpt_written_ratio"] = single("ratio", sum(b.samples["sum_written"])/sum(b.samples["sum_bytes"]))
	m["store_space_ratio"] = fromSamples("ratio", b.samples["store_space_ratio"])
	m["mem_peak_mb"] = fromSamples("MB", b.samples["mem_peak_mb"])
	m["recover_ms"] = fromSamples("ms", b.samples["recover_ms"])
	b.res.Extra["overhead_pct"] = 100 * (m["full_s"].Value/m["base_s"].Value - 1)
	raw := map[string]float64{}
	for _, name := range []string{"setup_s", "base_s", "full_s", "recover_ms"} {
		raw[name] = median(b.samples["raw/"+name])
	}
	b.res.Extra["raw_wall_clock"] = raw
	// Printed beside the gated metrics, but layer metrics by contract: see
	// ckpt.blocked_ms_p50 and protocol.durable_ms_p50 in the traced run.
	b.res.Extra["ckpt_blocked_ms_p50"] = median(b.samples["blocked_ms"])
	b.res.Extra["ckpt_durable_ms_p50"] = median(b.samples["durable_ms"])
	b.res.Extra["first_blocked_ms"] = median(b.samples["first_blocked_ms"])
	b.durableByIndex()
}

// durableByIndex records the median and maximum durability latency of the
// first, second, third and later checkpoints of a run: the calibration
// table behind each workload's EveryN.
func (b *bench) durableByIndex() {
	out := map[string]any{}
	for i := 1; i <= 4; i++ {
		if xs := sorted(b.samples[fmt.Sprintf("durable_ms/%d", i)]); len(xs) > 0 {
			out[fmt.Sprintf("checkpoint_%d", i)] = map[string]float64{"median": median(xs), "max": xs[len(xs)-1], "n": float64(len(xs))}
		}
	}
	b.res.Extra["durable_ms_by_checkpoint_index"] = out
}

// order returns a, b on even reps and b, a on odd ones.
func order(rep int, a, b protocol.Mode) []protocol.Mode {
	if rep%2 == 0 {
		return []protocol.Mode{a, b}
	}
	return []protocol.Mode{b, a}
}

// recoveries extracts one recoveryPhases per kill of a faulted execution:
// from progress stamps on the distributed substrate, from the counting
// transport's first-send and last-call times in-process (where there is no
// process to respawn, so respawn and restore are not told apart: Restore
// carries restart decision to every rank's first send).
func (b *bench) recoveries(o *runOut) []recoveryPhases {
	victims := make([]int, len(o.spec.kills))
	for k, f := range o.spec.kills {
		victims[k] = f.Rank
	}
	if o.stamps != nil {
		ps, err := phasesFromStamps(o.stamps, victims, o.restartNs)
		if err != nil {
			b.fail("%s: %v", o.spec.label, err)
		}
		return ps
	}
	var ps []recoveryPhases
	for k, v := range victims {
		if k+1 >= len(o.incs) || k >= len(o.restartNs) {
			b.fail("%s: kill %d left no next incarnation to time", o.spec.label, k)
			break
		}
		death := o.incs[k].counters(v).LastOpNs
		var resumed int64
		for r := 0; r < ranks; r++ {
			resumed = max(resumed, o.incs[k+1].counters(r).FirstSendNs)
		}
		ps = append(ps, recoveryPhases{
			DetectMs:  float64(o.restartNs[k]-death) / 1e6,
			RestoreMs: float64(resumed-o.restartNs[k]) / 1e6,
			RecoverMs: float64(resumed-death) / 1e6,
		})
	}
	return ps
}

// fresh keeps the recoveries whose kill landed after the commit it was
// placed behind (see freshRecovery) and says how many it left out.
func (b *bench) fresh(o *runOut, ps []recoveryPhases) []recoveryPhases {
	var out []recoveryPhases
	for k, p := range ps {
		if freshRecovery(o.recovered, k) {
			out = append(out, p)
		}
	}
	if skipped := len(ps) - len(out); skipped > 0 {
		b.warn("%s: %d of %d kills beat their incarnation's commit (recovered epochs %v); their recoveries are left out", o.spec.label, skipped, len(ps), o.recovered)
	}
	return out
}
