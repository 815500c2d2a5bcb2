package harness

import (
	"fmt"

	"ccift/internal/apps/cg"
	"ccift/internal/apps/laplace"
	"ccift/internal/apps/neurosys"
)

// Scale selects the experiment magnitude.
type Scale int

const (
	// Quick shrinks problem sizes so the full Figure 8 sweep finishes in
	// about a minute; the paper's qualitative shapes (overhead growing with
	// state size, piggyback cost shrinking with message size) survive the
	// scaling because they are ratio-driven.
	Quick Scale = iota
	// Paper uses the paper's own problem-size regime (CG state per process
	// from ~8 MB up; Laplace 512²–2048²; Neurosys 16²–128²) with iteration
	// counts reduced to keep wall time in minutes rather than hours.
	Paper
	// Smoke is one tiny size per benchmark, for CI paths that only need to
	// prove a sweep configuration end to end (fig8 -short, and especially
	// -distributed -short, where every cell spawns real OS processes).
	// Shape verdicts are meaningless at a single size.
	Smoke
)

// CGExperiment is Figure 8 (left): dense Conjugate Gradient, block-row
// distribution, allreduce + allgather per iteration.
func CGExperiment(ranks int, scale Scale) Experiment {
	e := Experiment{App: "cg", Ranks: ranks, BandwidthMBps: bandwidth(scale)}
	type sz struct {
		n, iters, everyN int
	}
	var sizes []sz
	switch scale {
	case Paper:
		// The paper ran 4096–16384 for 500 iterations on 16 processors,
		// checkpointing every 30 s. Iterations are scaled down; the state
		// sizes match the paper's regime.
		sizes = []sz{{4096, 30, 10}, {8192, 12, 4}, {16384, 6, 2}}
	case Smoke:
		sizes = []sz{{128, 20, 8}}
	default:
		sizes = []sz{{512, 150, 70}, {1024, 80, 38}, {2048, 40, 18}}
	}
	for _, s := range sizes {
		p := cg.Params{N: s.n, Iters: s.iters}
		e.Sizes = append(e.Sizes, Size{
			Label:      fmt.Sprintf("%dx%d", s.n, s.n),
			Program:    cg.Program(p),
			Arg:        s.n,
			Iters:      s.iters,
			StateBytes: p.StateBytesPerRank(ranks),
			EveryN:     s.everyN,
		})
	}
	return e
}

// LaplaceExperiment is Figure 8 (middle): the Laplace solver, block rows,
// halo exchange with the ranks above and below.
func LaplaceExperiment(ranks int, scale Scale) Experiment {
	e := Experiment{App: "laplace", Ranks: ranks, BandwidthMBps: bandwidth(scale)}
	type sz struct {
		n, iters, everyN int
	}
	var sizes []sz
	switch scale {
	case Paper:
		// The paper ran 512–2048 for 40000 iterations.
		sizes = []sz{{512, 2000, 600}, {1024, 800, 250}, {2048, 300, 100}}
	case Smoke:
		sizes = []sz{{64, 60, 15}}
	default:
		sizes = []sz{{256, 2000, 650}, {512, 1000, 330}, {1024, 400, 130}}
	}
	for _, s := range sizes {
		p := laplace.Params{N: s.n, Iters: s.iters}
		e.Sizes = append(e.Sizes, Size{
			Label:      fmt.Sprintf("%dx%d", s.n, s.n),
			Program:    laplace.Program(p),
			Arg:        s.n,
			Iters:      s.iters,
			StateBytes: p.StateBytesPerRank(ranks),
			EveryN:     s.everyN,
		})
	}
	return e
}

// NeurosysExperiment is Figure 8 (right): the neuron-network simulator, 5
// allgathers and 1 gather per RK4 step — the communication-heavy, tiny-state
// regime where what the protocol adds to a collective dominates.
func NeurosysExperiment(ranks int, scale Scale) Experiment {
	e := Experiment{App: "neurosys", Ranks: ranks, BandwidthMBps: bandwidth(scale)}
	type sz struct {
		k, iters, everyN int
	}
	var sizes []sz
	switch scale {
	case Paper:
		// The paper ran 16x16 through 128x128 for 3000 iterations.
		sizes = []sz{{16, 1500, 500}, {32, 1000, 330}, {64, 500, 160}, {128, 250, 80}}
	case Smoke:
		sizes = []sz{{16, 80, 30}}
	default:
		sizes = []sz{{16, 800, 270}, {32, 500, 170}, {64, 250, 85}, {128, 120, 40}}
	}
	for _, s := range sizes {
		p := neurosys.Params{K: s.k, Iters: s.iters}
		e.Sizes = append(e.Sizes, Size{
			Label:      fmt.Sprintf("%dx%d", s.k, s.k),
			Program:    neurosys.Program(p),
			Arg:        s.k,
			Iters:      s.iters,
			StateBytes: p.StateBytesPerRank(ranks),
			EveryN:     s.everyN,
		})
	}
	return e
}

// Experiments returns all three Figure 8 experiments.
func Experiments(ranks int, scale Scale) []Experiment {
	return []Experiment{
		CGExperiment(ranks, scale),
		LaplaceExperiment(ranks, scale),
		NeurosysExperiment(ranks, scale),
	}
}

// bandwidth models the paper's 40 MB/s local checkpoint disks. The quick
// scale compresses run times by roughly two orders of magnitude without
// shrinking state sizes, so the modeled bandwidth scales by the same factor
// to keep the checkpoint-cost-to-compute ratio in the paper's regime; the
// paper scale uses the real figure.
func bandwidth(scale Scale) float64 {
	if scale == Paper {
		return 40
	}
	return 4000
}
