// Benchmarks for the design arguments bench/ does not measure: the
// Section 1.2 case against message logging (log volume; the per-send cost
// and the blocking checkpoint are internal/baseline's own benchmarks),
// Section 7's state exclusion, the typed-send copy, the Section 4.2
// piggyback codec and rank slowdown under the async flush. Everything
// bench/ reports — Figure 8's four versions (base_s / full_s and the
// per-layer *_cost_s), freeze, encode and restore throughput (ckpt.*),
// blocked time (ckpt.blocked_ms_*), the control collective
// (protocol.allgather_full_us), recovery (recover_ms, engine.*) — is
// measured there and only there: `bash bench/run.sh`.
//
// Run these with:
//
//	go test -bench=. -benchmem -run '^$' .
package ccift_test

import (
	"fmt"
	"testing"
	"time"

	"ccift"
	"ccift/internal/apps/cg"
	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// benchRanks keeps benchmark worlds small enough that per-op times are
// stable.
const benchRanks = 4

// BenchmarkAblationLogging is the Section 1.2 argument against message
// logging (DESIGN.md experiment E9): for the same halo-exchange workload,
// compare the bytes a sender-based message log must retain per checkpoint
// interval against the C3 protocol's late-message log. The two volumes are
// reported as custom metrics.
func BenchmarkAblationLogging(b *testing.B) {
	const iters, width, everyN = 40, 512, 10
	prog := func(r *engine.Rank) (any, error) {
		n := r.Size()
		next, prev := (r.Rank()+1)%n, (r.Rank()-1+n)%n
		var it int
		x := make([]float64, width)
		r.Register("it", &it)
		r.Register("x", &x)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			r.Send(next, 1, mpi.F64Bytes(x))
			in := mpi.BytesF64(r.Recv(prev, 1).Data)
			for i := range x {
				x[i] = x[i]*0.5 + in[i]*0.5
			}
		}
		return nil, nil
	}
	b.ReportAllocs()
	var sent, c3Log, ckpts int64
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(engine.Config{Ranks: benchRanks, Mode: protocol.Full, EveryN: everyN}, prog)
		if err != nil {
			b.Fatal(err)
		}
		sent, c3Log, ckpts = 0, 0, 0
		for _, s := range res.Stats {
			sent += s.BytesSent
			c3Log += s.LogBytes
			ckpts += s.CheckpointsTaken
		}
	}
	intervals := ckpts/benchRanks + 1
	b.ReportMetric(float64(sent)/float64(intervals), "senderlog-B/interval")
	b.ReportMetric(float64(c3Log), "c3log-B/run")
}

// BenchmarkAblationStateExclusion quantifies Section 7's recomputation
// checkpointing on the workload the paper motivates it with: CG's
// read-only matrix block dominates the checkpoint, and excluding it trades
// checkpoint volume for a fingerprint plus regeneration on restart. The
// checkpointed bytes per run are reported as a custom metric.
func BenchmarkAblationStateExclusion(b *testing.B) {
	for _, exclude := range []bool{false, true} {
		name := "save-everything"
		if exclude {
			name = "recompute-matrix"
		}
		b.Run(name, func(b *testing.B) {
			p := cg.Params{N: 512, Iters: 20, ExcludeMatrix: exclude}
			b.SetBytes(int64(p.StateBytesPerRank(benchRanks)))
			b.ReportAllocs()
			var ckptBytes int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(engine.Config{Ranks: benchRanks, Mode: protocol.Full, EveryN: 6}, cg.Program(p))
				if err != nil {
					b.Fatal(err)
				}
				ckptBytes = 0
				for _, s := range res.Stats {
					ckptBytes += s.CheckpointBytes
				}
			}
			b.ReportMetric(float64(ckptBytes), "ckpt-B/run")
		})
	}
}

// BenchmarkTypedSend times the typed send/receive hot path: a two-rank
// ping-pong through the full protocol layer. ccift.Send hands the
// substrate a view of the caller's vector, which the substrate copies once
// into a recycled message; ccift.Recv decodes with one copy into the typed
// result and gives the message back. So a round trip allocates the two
// results and nothing per send.
func BenchmarkTypedSend(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		elems := size / 8
		b.Run(fmt.Sprintf("msg=%dB/typed", size), func(b *testing.B) {
			iters := b.N
			payload := make([]float64, elems)
			// Ping-pong keeps exactly one message in flight, so the
			// queue depth (and with it GC noise) is bounded and the
			// per-op figure is the send+receive path itself.
			prog := func(r *ccift.Rank) (any, error) {
				me, peer := r.Rank(), 1-r.Rank()
				for i := 0; i < iters; i++ {
					if me == 0 {
						ccift.Send(r, peer, 1, payload)
						ccift.Recv[float64](r, peer, 2)
					} else {
						in := ccift.Recv[float64](r, peer, 1)
						ccift.Send(r, peer, 2, in)
					}
				}
				return nil, nil
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := engine.Run(engine.Config{Ranks: 2, Mode: protocol.Full}, prog); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkPiggybackCodec measures the Section 4.2 single-integer encoding
// on the protocol's hot path: every application message packs and unpacks
// one of these.
func BenchmarkPiggybackCodec(b *testing.B) {
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		p := protocol.Piggyback{Color: i&1 == 0, Logging: i&2 == 0, MessageID: uint32(i) & 0x3FFFFFFF}
		sink = p.Pack()
		q := protocol.UnpackPiggyback(sink)
		if q.MessageID != p.MessageID {
			b.Fatal("round trip failed")
		}
	}
	_ = sink
}

// BenchmarkAsyncRankSlowdown measures how much the checkpoint pipeline
// slows the compute rank: a fixed-work iteration loop checkpoints 16MB of
// state every 4 iterations over a disk store, and ns/iter is compared
// against a no-checkpoint baseline of the same program (the "none" run
// inside each variant). sync blocks for the whole flush; async overlaps
// it with the loop. The work is fixed, the checkpoint count is not — a
// trigger that finds the previous flush still in flight is deferred — so
// slowdown-vs-none is read beside ckpts/run and overhead-ms/ckpt: a run
// that took fewer checkpoints is not a cheaper one.
func BenchmarkAsyncRankSlowdown(b *testing.B) {
	const gridElems = (16384 << 10) / 8
	const iters = 64
	const everyN = 4
	prog := func(r *engine.Rank) (any, error) {
		var it int
		var acc float64
		grid := make([]float64, gridElems)
		for i := range grid {
			grid[i] = float64(i % 1024)
		}
		r.Register("it", &it)
		r.Register("acc", &acc)
		r.Register("grid", &grid)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			// Fixed compute per iteration: a full read reduction over the
			// grid (the dominant cost, untouched state) plus a write sweep
			// over one rotating ~3% window, recorded page-granularly.
			for j := 0; j < gridElems; j++ {
				acc += grid[j]
			}
			const window = gridElems / 32
			off := (it % 32) * window
			for j := off; j < off+window; j++ {
				grid[j] = grid[j]*0.999 + 1
			}
			r.TouchRange("grid", off, window)
		}
		return acc, nil
	}
	run := func(b *testing.B, cfg engine.Config) (time.Duration, int64) {
		b.Helper()
		t0 := time.Now()
		res, err := engine.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(t0), res.Stats[0].CheckpointsTaken
	}
	for _, variant := range []string{"sync", "async"} {
		b.Run(variant, func(b *testing.B) {
			var base, with time.Duration
			var ckpts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, _ := run(b, engine.Config{Ranks: 1, Mode: protocol.Unmodified})
				base += d
				disk, err := storage.NewDisk(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				d, n := run(b, engine.Config{
					Ranks: 1, Mode: protocol.Full, EveryN: everyN, Store: disk,
					Sync: variant == "sync",
				})
				with += d
				ckpts += n
			}
			b.ReportMetric(float64(with.Nanoseconds())/float64(int64(iters)*int64(b.N)), "ns/iter")
			b.ReportMetric(float64(with)/float64(base), "slowdown-vs-none")
			b.ReportMetric(float64(ckpts)/float64(b.N), "ckpts/run")
			b.ReportMetric(float64(with-base)/float64(time.Millisecond)/float64(ckpts), "overhead-ms/ckpt")
		})
	}
}
