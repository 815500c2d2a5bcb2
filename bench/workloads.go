package main

import (
	"fmt"
	"math/rand"

	"ccift/internal/apps"
	"ccift/internal/engine"
)

// workload is one named set of inputs. Every size here is fixed: the same
// iterations, the same checkpoint triggers and the same kills on every
// run, so two runs of one workload did the same work.
type workload struct {
	Name string
	Why  string
	// App is the program: one of the paper's three applications
	// (internal/apps) or the benchmark-owned ring.
	App  string
	Size int
	// Iters and EveryN size the fault-free problem whose wall time is
	// base_s / full_s. Iters leaves most of an interval after the last
	// trigger: slack that absorbs a deferred trigger without changing how
	// many fire (the last checkpoint itself always commits, see settled).
	Iters, EveryN int
	// The faulted problem: each incarnation takes one global checkpoint
	// FEveryN iterations in and its victim dies FKillAfter iterations in
	// (after that checkpoint committed); Kills incarnations die.
	FEveryN, FKillAfter, Kills int
	// Distributed runs the workload on internal/launch (worker processes,
	// TCP, SIGKILL) instead of in-process.
	Distributed bool
	// DirtyFrac and MsgBytes shape the direct layer probes like this
	// workload: the share of the state rewritten between two checkpoints
	// and the dominant message size.
	DirtyFrac float64
	MsgBytes  int
	// Ring sizes the ring program: the workload itself when App is "ring",
	// and the distributed recovery probe (launch.*) for every workload,
	// whose grid is this workload's state size.
	Ring ringParams
}

// expectedCkpts is the number of global checkpoints a fault-free run of
// iters iterations must commit: the initiator fires on every EveryN-th
// PotentialCheckpoint call, and no trigger is deferred because triggers are
// spaced wider than a commit takes (see the README's calibration table).
func expectedCkpts(iters, everyN int) int { return (iters - 1) / everyN }

func (w workload) faultedIters() int { return (w.Kills+1)*w.FEveryN + w.FEveryN/2 }

// The four workloads. Sizes are smaller than the issue suggested because
// the pipeline allows about half a minute per run: each keeps its defining
// property (which layers work, which idle) at a size where one fault-free
// pair takes 2-3 s.
var workloads = []workload{
	{
		Name: "cg-clean",
		Why:  "CG N=1024: 4 MB read-only matrix per rank, KB of vectors dirty; dirty tracking and dedup probes work, memcpy/hash/Put idle",
		App:  "cg", Size: 1024, Iters: 1950, EveryN: 500,
		FEveryN: 400, FKillAfter: 700, Kills: 4,
		DirtyFrac: 0.004, MsgBytes: 4096,
		Ring: ringParams{GridBytes: 4 << 20, MsgBytes: 4096, Passes: 24},
	},
	{
		Name: "laplace-dirty",
		Why:  "Laplace N=384: 1.2 MB per rank, every page rewritten every iteration; freeze copies all, dedup finds nothing, hash+Put+fsync+governor set the cost",
		App:  "laplace", Size: 384, Iters: 2350, EveryN: 600,
		FEveryN: 500, FKillAfter: 800, Kills: 4,
		DirtyFrac: 1, MsgBytes: 3072,
		Ring: ringParams{GridBytes: 1 << 20, MsgBytes: 3072, Passes: 24},
	},
	{
		Name: "neurosys-ctl",
		Why:  "Neurosys K=32: 24 KB of state, 5 allgathers + 1 gather per step, 14 checkpoints; matching latency, piggyback and per-checkpoint coordination dominate, state size does nothing",
		App:  "neurosys", Size: 32, Iters: 2950, EveryN: 200,
		FEveryN: 250, FKillAfter: 420, Kills: 6,
		DirtyFrac: 0.33, MsgBytes: 4096,
		Ring: ringParams{GridBytes: 64 << 10, MsgBytes: 4096, Passes: 24},
	},
	{
		Name: "ring-recover",
		Why:  "bench-owned ring, 4 MB grid per rank with a rotating eighth rewritten, on worker processes over TCP with real SIGKILLs; the only workload where tcptransport, launch and the read side of storage work",
		App:  "ring", Iters: 2500, EveryN: 650,
		FEveryN: 600, FKillAfter: 1050, Kills: 4,
		Distributed: true,
		DirtyFrac:   0.125, MsgBytes: 16 << 10,
		Ring: ringParams{GridBytes: 4 << 20, MsgBytes: 16 << 10, Passes: 24},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ringFor returns the ring parameters for a problem of the given length.
// The ring's dirty window rotates once per checkpoint interval; a problem
// without checkpoints (everyN 0) stays in one window.
func (w workload) ringFor(iters, everyN int, seed int64) *ringParams {
	p := w.Ring
	if everyN <= 0 {
		everyN = iters + 1
	}
	p.Iters, p.EveryN, p.Seed = iters, everyN, seed
	return &p
}

// program builds the in-process program for a problem of the given length.
func (w workload) program(iters, everyN int, seed int64) (engine.Program, error) {
	if w.App == "ring" {
		return ringProgram(*w.ringFor(iters, everyN, seed)), nil
	}
	prog, _, err := apps.Build(w.App, ranks, w.Size, iters)
	return prog, err
}

// killSchedule places one death per incarnation: the victim alternates
// between the ranks (the seed picks who goes first) and dies FKillAfter
// iterations into its incarnation plus a seeded jitter of up to an eighth
// of the interval — after that incarnation's one checkpoint has committed,
// before its next one is triggered. opsPerIter converts iterations into the
// substrate-operation count kill plans are written in.
func (w workload) killSchedule(n int, opsPerIter [ranks]float64, seed int64) []engine.Failure {
	rng := rand.New(rand.NewSource(seed ^ 0x6b696c6c))
	first := int(uint64(seed) % ranks)
	kills := make([]engine.Failure, n)
	for k := range kills {
		victim := (first + k) % ranks
		iters := w.FKillAfter + rng.Intn(w.FEveryN/8+1)
		kills[k] = engine.Failure{Rank: victim, Incarnation: k, AtOp: int64(opsPerIter[victim] * float64(iters))}
	}
	return kills
}

func (w workload) String() string {
	return fmt.Sprintf("%s (%s size=%d iters=%d everyN=%d)", w.Name, w.App, w.Size, w.Iters, w.EveryN)
}
