package ccift_test

// BenchmarkRecoveryLatency measures what a death costs at scale on the
// simulated substrate: wall-clock time to recover and stable-store reads
// per surviving rank, swept over world size × death fraction. Localized
// recovery's contract is that both stay flat as the world grows — the
// supervisor's gather reads O(world) tiny metadata blobs once, survivors
// restore from their in-memory retained copies (zero store reads), and
// only dead ranks re-read state — so reads/survivor is O(1). The previous
// design had every rank independently scan every other rank's recovery
// metadata: O(world²) reads, which is exactly the regression
// scripts/benchguard gates against BENCH_pr10.json.
//
// Run with:
//
//	go test -bench RecoveryLatency -run '^$' -benchtime 1x .

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"ccift"
	"ccift/internal/storage"
)

// countingStable counts Get calls — the store reads recovery performs.
// Has is forwarded to the inner store's fast probe so the chunk writer's
// dedup probes during forward execution don't inflate the read count.
type countingStable struct {
	storage.Stable
	gets atomic.Int64
}

func (c *countingStable) Get(key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Stable.Get(key)
}

func (c *countingStable) Has(key string) (bool, error) {
	return storage.Has(c.Stable, key)
}

const benchRecoveryWidth = 8

// benchCrashAt is late enough that epoch >= 1 has committed at every
// world size (the benchmark asserts this), so the rollback is a real
// checkpoint recovery. The 1000-rank world needs a little longer: its
// deeper collectives push the first commit past 100ms of virtual time on
// some schedules.
func benchCrashAt(world int) time.Duration {
	if world >= 1000 {
		return 150 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// benchRecoveryIters sizes the stencil per world so the program is still
// running well past benchCrashAt in virtual time (collectives deepen with
// the world, so bigger worlds need fewer iterations) without making the
// 1000-rank runs dominate the wall clock.
func benchRecoveryIters(world int) int {
	switch {
	case world <= 8:
		return 60
	case world <= 64:
		return 40
	case world <= 256:
		return 20
	default:
		return 6
	}
}

// runRecoveryBench launches the stencil on the simulated substrate with
// the given crash schedule and returns the result, the wall-clock
// duration, and the number of store Gets.
func runRecoveryBench(b *testing.B, world int, crashes []ccift.Crash, extra ...ccift.Option) (*ccift.Result, time.Duration, int64) {
	b.Helper()
	cs := &countingStable{Stable: storage.NewMemory()}
	opts := []ccift.Option{
		ccift.WithRanks(world), ccift.WithMode(ccift.Full), ccift.WithEveryN(2),
		ccift.WithStore(cs),
		ccift.WithSimulated(ccift.Scenario{
			Seed: 4242, Latency: time.Millisecond,
			DetectorTimeout: 25 * time.Millisecond,
			Crashes:         crashes,
		}),
	}
	opts = append(opts, extra...)
	start := time.Now()
	res, err := ccift.Launch(context.Background(), ccift.NewSpec(opts...),
		stencil(benchRecoveryIters(world), benchRecoveryWidth))
	if err != nil {
		b.Fatalf("world=%d crashes=%v: %v", world, len(crashes), err)
	}
	return res, time.Since(start), cs.gets.Load()
}

func BenchmarkRecoveryLatency(b *testing.B) {
	for _, world := range []int{8, 64, 256, 1000} {
		// The fault-free run of the same shape: its wall clock and store
		// reads are the baseline the death runs are measured against.
		var baseMs float64
		var baseGets int64
		base := func(b *testing.B) {
			_, dur, gets := runRecoveryBench(b, world, nil)
			baseMs = float64(dur.Milliseconds())
			baseGets = gets
		}

		for _, frac := range []struct {
			name   string
			deaths func(world int) int
		}{
			{"deaths=1", func(int) int { return 1 }},
			{"deaths=10%", func(w int) int { return (w + 9) / 10 }},
		} {
			b.Run(fmt.Sprintf("world=%d/%s", world, frac.name), func(b *testing.B) {
				deaths := frac.deaths(world)
				crashes := make([]ccift.Crash, deaths)
				for i := range crashes {
					// Distinct ranks dying in one burst; the burst must cost
					// one rollback round, not one per corpse.
					crashes[i] = ccift.Crash{Rank: 1 + i, At: benchCrashAt(world)}
				}
				for i := 0; i < b.N; i++ {
					base(b)
					res, dur, gets := runRecoveryBench(b, world, crashes)
					if res.Restarts != 1 {
						b.Fatalf("world=%d deaths=%d: %d restarts, want 1 (tune benchCrashAt)", world, deaths, res.Restarts)
					}
					if len(res.RecoveredEpochs) != 1 || res.RecoveredEpochs[0] < 1 {
						b.Fatalf("world=%d deaths=%d: recovered epochs %v, want a committed epoch", world, deaths, res.RecoveredEpochs)
					}
					survivors := world - deaths
					retained := 0
					for r := 0; r < world; r++ {
						if res.Stats[r].RecoveredFromRetained > 0 {
							retained++
						}
					}
					if retained != survivors {
						b.Fatalf("world=%d deaths=%d: %d retained restores, want every survivor (%d)", world, deaths, retained, survivors)
					}
					recoverMs := float64(dur.Milliseconds()) - baseMs
					if recoverMs < 0 {
						recoverMs = 0
					}
					b.ReportMetric(recoverMs, "recover-ms")
					b.ReportMetric(float64(gets-baseGets)/float64(survivors), "reads/survivor")
					b.ReportMetric(float64(gets-baseGets), "reads/recovery")
				}
			})
		}
	}
}
