// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// per Figure 8 chart (BenchmarkFig8CG, BenchmarkFig8Laplace,
// BenchmarkFig8Neurosys) runs each problem size in each of the four
// program versions; the per-op time is the full application runtime, so
// the version-to-version ratios are the heights of the paper's bars. The
// remaining benchmarks quantify the design arguments of Sections 1.2 and
// 4.2: message-logging volume, piggyback codec cost, checkpoint
// serialization bandwidth, and the per-collective control exchange.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package ccift_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ccift"
	"ccift/internal/apps/cg"
	"ccift/internal/apps/laplace"
	"ccift/internal/apps/neurosys"
	"ccift/internal/baseline"
	"ccift/internal/ckpt"
	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// benchRanks keeps benchmark worlds small enough that per-op times are
// stable; the fig8 command runs the full-width sweeps.
const benchRanks = 4

var fig8Modes = []protocol.Mode{protocol.Unmodified, protocol.PiggybackOnly, protocol.NoAppState, protocol.Full}

func runBench(b *testing.B, prog engine.Program, mode protocol.Mode, everyN int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := engine.Config{Ranks: benchRanks, Mode: mode, EveryN: everyN}
		if _, err := engine.Run(cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8CG is Figure 8 (left): dense Conjugate Gradient.
func BenchmarkFig8CG(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		p := cg.Params{N: n, Iters: 30}
		for _, mode := range fig8Modes {
			b.Run(fmt.Sprintf("n=%d/%v", n, mode), func(b *testing.B) {
				b.SetBytes(int64(p.StateBytesPerRank(benchRanks)))
				runBench(b, cg.Program(p), mode, 10)
			})
		}
	}
}

// BenchmarkFig8Laplace is Figure 8 (middle): the Laplace solver.
func BenchmarkFig8Laplace(b *testing.B) {
	for _, n := range []int{256, 512} {
		p := laplace.Params{N: n, Iters: 100}
		for _, mode := range fig8Modes {
			b.Run(fmt.Sprintf("n=%d/%v", n, mode), func(b *testing.B) {
				b.SetBytes(int64(p.StateBytesPerRank(benchRanks)))
				runBench(b, laplace.Program(p), mode, 35)
			})
		}
	}
}

// BenchmarkFig8Neurosys is Figure 8 (right): the neuron-network simulator.
func BenchmarkFig8Neurosys(b *testing.B) {
	for _, k := range []int{16, 32, 64} {
		p := neurosys.Params{K: k, Iters: 60}
		for _, mode := range fig8Modes {
			b.Run(fmt.Sprintf("k=%d/%v", k, mode), func(b *testing.B) {
				b.SetBytes(int64(p.StateBytesPerRank(benchRanks)))
				runBench(b, neurosys.Program(p), mode, 20)
			})
		}
	}
}

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
			r.SendF64(next, 1, x)
			in := r.RecvF64(prev, 1)
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

// BenchmarkAblationReplication quantifies Section 7's distributed
// redundant data: a table held identically by every rank is checkpointed
// once instead of once per rank.
func BenchmarkAblationReplication(b *testing.B) {
	const tableLen = 1 << 17 // 1 MB per rank
	prog := func(replicated bool) engine.Program {
		return func(r *engine.Rank) (any, error) {
			var it int
			table := make([]float64, tableLen)
			r.Register("it", &it)
			if replicated {
				r.RegisterReplicated("table", &table)
			} else {
				r.Register("table", &table)
			}
			for ; it < 8; it++ {
				r.PotentialCheckpoint()
				r.Barrier()
			}
			return nil, nil
		}
	}
	for _, replicated := range []bool{false, true} {
		name := "per-rank-copies"
		if replicated {
			name = "replicated-once"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(8 * tableLen)
			var ckptBytes int64
			for i := 0; i < b.N; i++ {
				res, err := engine.Run(engine.Config{Ranks: benchRanks, Mode: protocol.Full, EveryN: 3}, prog(replicated))
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

// BenchmarkSenderLogSend measures the per-send cost message logging adds:
// the retained copy is the scheme's defining overhead.
func BenchmarkSenderLogSend(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("msg=%dB", size), func(b *testing.B) {
			w := mpi.NewWorld(2, mpi.Options{})
			sl := baseline.NewSenderLog(w.Comm(0))
			payload := make([]byte, size)
			sink := w.Comm(1)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sl.Send(1, 1, payload)
				sink.Recv(0, 1)
				if i%1024 == 0 {
					sl.Truncate() // periodic stable point, as a checkpoint would provide
				}
			}
		})
	}
}

// BenchmarkTypedSend compares the v1 typed messaging path against the v0
// helpers on the application send/receive hot path: ccift.Send encodes
// into a fresh buffer and hands its ownership to the substrate (one
// payload copy), while SendF64 packs with F64Bytes and the substrate
// defensively copies again (two copies). Both variants run the identical
// two-rank ping stream through the full protocol layer, so the delta is
// exactly the copy the typed path removes.
func BenchmarkTypedSend(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		elems := size / 8
		for _, typed := range []bool{false, true} {
			name := fmt.Sprintf("msg=%dB/sendf64", size)
			if typed {
				name = fmt.Sprintf("msg=%dB/typed", size)
			}
			b.Run(name, func(b *testing.B) {
				iters := b.N
				payload := make([]float64, elems)
				// Ping-pong keeps exactly one message in flight, so the
				// queue depth (and with it GC noise) is bounded and the
				// per-op figure is the send+receive path itself.
				prog := func(r *ccift.Rank) (any, error) {
					me, peer := r.Rank(), 1-r.Rank()
					for i := 0; i < iters; i++ {
						if me == 0 {
							if typed {
								ccift.Send(r, peer, 1, payload)
								ccift.Recv[float64](r, peer, 2)
							} else {
								r.SendF64(peer, 1, payload)
								r.RecvF64(peer, 2)
							}
						} else {
							if typed {
								in := ccift.Recv[float64](r, peer, 1)
								ccift.Send(r, peer, 2, in)
							} else {
								in := r.RecvF64(peer, 1)
								r.SendF64(peer, 2, in)
							}
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

// BenchmarkCheckpointSerialization measures the application-state encoder
// (PS + VDS + heap) at several state sizes — the cost that separates the
// "full checkpoint" bars from the rest in Figure 8.
func BenchmarkCheckpointSerialization(b *testing.B) {
	for _, mb := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("state=%dMB", mb), func(b *testing.B) {
			s := ckpt.NewSaver()
			var it int
			grid := make([]float64, mb<<20/8)
			if err := s.VDS.Push("it", &it); err != nil {
				b.Fatal(err)
			}
			if err := s.VDS.Push("grid", &grid); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * len(grid)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err := s.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				if len(blob) < 8*len(grid) {
					b.Fatal("short snapshot")
				}
			}
		})
	}
}

// BenchmarkCheckpointBlocked measures how long a rank is stopped per
// checkpoint — the overhead Figure 8 shows growing linearly with state
// size — on the synchronous write path vs the asynchronous pipeline, over
// a real disk-backed store. Sync blocks through serialize + chunk-hash +
// fsync'd writes; async blocks only for the copy-on-write freeze and
// overlaps the rest with computation, so its blocked-ns/ckpt metric sits
// far below sync's at large states. The program dirties a contiguous ~5%
// of its grid per epoch, so the written/logical-bytes metric also shows
// the chunk dedup win: a repeat checkpoint re-writes only dirty chunks.
// (Total ns/op is NOT comparable across variants — the loop spins extra
// compute iterations until each epoch commits, which is exactly the work
// the async pipeline lets the rank do while flushing. blocked-ns/ckpt is
// the headline number; CI turns these metrics into BENCH_pr4.json.
// BenchmarkCheckpointDirtyFraction extends this axis with dirty-region
// incremental freezes — BENCH_pr5.json.)
func BenchmarkCheckpointBlocked(b *testing.B) {
	for _, kb := range []int{256, 4096, 16384} {
		for _, variant := range []string{"sync", "async"} {
			b.Run(fmt.Sprintf("state=%dKB/%s", kb, variant), func(b *testing.B) {
				const ckpts = 8
				prog := func(r *engine.Rank) (any, error) {
					var it int
					grid := make([]float64, kb<<10/8)
					// Distinct initial contents: an untouched grid would be
					// runs of zero chunks that dedup against each other and
					// flatter the incremental numbers.
					for i := range grid {
						grid[i] = float64(i)
					}
					r.Register("it", &it)
					r.Register("grid", &grid)
					for ; it < 1_000_000 && r.Epoch() < ckpts; it++ {
						start := (r.Epoch() * len(grid) / 7) % len(grid)
						for j := 0; j < len(grid)/20; j++ {
							grid[(start+j)%len(grid)]++
						}
						r.PotentialCheckpoint()
					}
					return nil, nil
				}
				var blocked, flush, taken, logical, written int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					disk, err := storage.NewDisk(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					res, err := engine.Run(engine.Config{
						Ranks: 1, Mode: protocol.Full, EveryN: 1, Store: disk,
						Policy: protocol.Policy{Sync: variant == "sync"},
					}, prog)
					if err != nil {
						b.Fatal(err)
					}
					s := res.Stats[0]
					if s.CheckpointsTaken != ckpts {
						b.Fatalf("%d checkpoints taken, want %d", s.CheckpointsTaken, ckpts)
					}
					blocked += s.CheckpointBlockedNs
					flush += s.CheckpointFlushNs
					taken += s.CheckpointsTaken
					logical += s.CheckpointBytes
					written += s.CheckpointBytesWritten
				}
				b.ReportMetric(float64(blocked)/float64(taken), "blocked-ns/ckpt")
				b.ReportMetric(float64(flush)/float64(taken), "flush-ns/ckpt")
				b.ReportMetric(float64(written)/float64(logical), "written/logical-bytes")
			})
		}
	}
}

// BenchmarkCheckpointDirtyFraction is the dirty-region axis of the
// blocked-time story (PR 5): state is modeled as 64KB heap "pages" — the
// granularity the dirty tracker works at — and each epoch rewrites a
// fixed fraction of them (with Touch write intent) before checkpointing.
// The full variant freezes everything every epoch; the incr variant
// (WithIncrementalFreeze) copies only the touched pages and re-references
// the prior epoch's frozen slabs for the rest, so copied-B/ckpt tracks
// the dirty fraction instead of the state size, and blocked-ns/ckpt
// shrinks with it. Both run the async pipeline over a disk store; CI
// turns the metrics into BENCH_pr5.json.
func BenchmarkCheckpointDirtyFraction(b *testing.B) {
	const stateKB = 16384
	const pageKB = 64
	const pages = stateKB / pageKB
	// 16 epochs so the steady state dominates the per-checkpoint averages:
	// the first epoch is a full copy in both variants (there is no previous
	// frozen epoch to share), and over 8 epochs that cold start alone kept
	// the 10%-dirty incremental average above the 20% acceptance bar.
	const ckpts = 16
	// The -vds variants hold the same 16MB as ONE registered []float64 grid
	// instead of heap pages: dirty tracking there is the page-granular VDS
	// path (TouchRange stamping 64KB pages inside the entry) introduced in
	// PR 9, where the heap variants exercise per-block tracking from PR 5.
	const gridElems = stateKB << 10 / 8
	const elemsPerPage = pageKB << 10 / 8
	for _, pct := range []int{1, 10, 50} {
		for _, variant := range []string{"full", "incr", "full-vds", "incr-vds"} {
			b.Run(fmt.Sprintf("state=%dKB/dirty=%d%%/%s", stateKB, pct, variant), func(b *testing.B) {
				dirtyPages := pages * pct / 100
				if dirtyPages < 1 {
					dirtyPages = 1
				}
				heapProg := func(r *engine.Rank) (any, error) {
					var it int
					r.Register("it", &it)
					h := r.Heap()
					ids := make([]int, 0, pages)
					for i := 0; i < pages; i++ {
						blk := h.Alloc(pageKB << 10)
						for j := range blk.Data {
							// Distinct page contents: identical pages would
							// chunk-dedup against each other and flatter
							// the incremental numbers.
							blk.Data[j] = byte(i*31 + j)
						}
						ids = append(ids, blk.ID)
					}
					for ; it < 1_000_000 && r.Epoch() < ckpts; it++ {
						start := r.Epoch() * 7919
						for p := 0; p < dirtyPages; p++ {
							id := ids[(start+p)%pages]
							blk := h.Lookup(id)
							for j := 0; j < 128; j++ {
								blk.Data[(it*131+j*509)%len(blk.Data)]++
							}
							h.Touch(id)
						}
						r.PotentialCheckpoint()
					}
					return nil, nil
				}
				vdsProg := func(r *engine.Rank) (any, error) {
					var it int
					grid := make([]float64, gridElems)
					for i := range grid {
						grid[i] = float64(i) // distinct contents, as above
					}
					r.Register("it", &it)
					r.Register("grid", &grid)
					for ; it < 1_000_000 && r.Epoch() < ckpts; it++ {
						start := r.Epoch() * 7919
						for p := 0; p < dirtyPages; p++ {
							off := ((start + p) % pages) * elemsPerPage
							for j := 0; j < 128; j++ {
								grid[off+(it*131+j*509)%elemsPerPage]++
							}
							r.TouchRange("grid", off, elemsPerPage)
						}
						r.PotentialCheckpoint()
					}
					return nil, nil
				}
				prog := heapProg
				if strings.HasSuffix(variant, "-vds") {
					prog = vdsProg
				}
				var blocked, taken, copied, logical, written int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					disk, err := storage.NewDisk(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					res, err := engine.Run(engine.Config{
						Ranks: 1, Mode: protocol.Full, EveryN: 1, Store: disk,
						Policy: protocol.Policy{FullFreeze: strings.HasPrefix(variant, "full")},
					}, prog)
					if err != nil {
						b.Fatal(err)
					}
					s := res.Stats[0]
					if s.CheckpointsTaken != ckpts {
						b.Fatalf("%d checkpoints taken, want %d", s.CheckpointsTaken, ckpts)
					}
					blocked += s.CheckpointBlockedNs
					taken += s.CheckpointsTaken
					copied += s.CheckpointBytesCopied
					logical += s.CheckpointBytes
					written += s.CheckpointBytesWritten
				}
				b.ReportMetric(float64(blocked)/float64(taken), "blocked-ns/ckpt")
				b.ReportMetric(float64(copied)/float64(taken), "copied-B/ckpt")
				b.ReportMetric(float64(written)/float64(logical), "written/logical-bytes")
			})
		}
	}
}

// BenchmarkAsyncRankSlowdown measures how much the checkpoint pipeline
// slows the compute rank: a fixed-work iteration loop checkpoints 16MB of
// state every 4 iterations over a disk store, and ns/iter is compared
// against a no-checkpoint baseline of the same program (the "none" run
// inside each variant). sync blocks for the whole flush; async overlaps
// it under the bandwidth governor. BENCH_pr9.json records slowdown-vs-none.
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
	run := func(b *testing.B, cfg engine.Config) time.Duration {
		b.Helper()
		t0 := time.Now()
		if _, err := engine.Run(cfg, prog); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	for _, variant := range []string{"sync", "async"} {
		b.Run(variant, func(b *testing.B) {
			var base, with time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base += run(b, engine.Config{Ranks: 1, Mode: protocol.Unmodified})
				disk, err := storage.NewDisk(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				with += run(b, engine.Config{
					Ranks: 1, Mode: protocol.Full, EveryN: everyN, Store: disk,
					Policy: protocol.Policy{Sync: variant == "sync"},
				})
			}
			b.ReportMetric(float64(with.Nanoseconds())/float64(int64(iters)*int64(b.N)), "ns/iter")
			b.ReportMetric(float64(with)/float64(base), "slowdown-vs-none")
		})
	}
}

// BenchmarkCheckpointRestore measures the restore side: decode plus
// write-back through the registered pointers.
func BenchmarkCheckpointRestore(b *testing.B) {
	for _, mb := range []int{1, 8} {
		b.Run(fmt.Sprintf("state=%dMB", mb), func(b *testing.B) {
			s := ckpt.NewSaver()
			var it int
			grid := make([]float64, mb<<20/8)
			if err := s.VDS.Push("it", &it); err != nil {
				b.Fatal(err)
			}
			if err := s.VDS.Push("grid", &grid); err != nil {
				b.Fatal(err)
			}
			blob, err := s.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * len(grid)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ckpt.NewSaver()
				if err := r.StartRestore(blob); err != nil {
					b.Fatal(err)
				}
				var it2 int
				grid2 := make([]float64, 0)
				if err := r.VDS.Push("it", &it2); err != nil {
					b.Fatal(err)
				}
				if err := r.VDS.Push("grid", &grid2); err != nil {
					b.Fatal(err)
				}
				if len(grid2) != len(grid) {
					b.Fatal("restore lost data")
				}
			}
		})
	}
}

// BenchmarkControlCollective isolates the cost the protocol adds to every
// collective call — the one-byte allgather of (epoch color, amLogging)
// that dominates Neurosys at small problem sizes.
func BenchmarkControlCollective(b *testing.B) {
	for _, payload := range []int{8, 256, 8192} {
		for _, mode := range []protocol.Mode{protocol.Unmodified, protocol.PiggybackOnly} {
			b.Run(fmt.Sprintf("payload=%dB/%v", payload, mode), func(b *testing.B) {
				iters := b.N
				prog := func(r *engine.Rank) (any, error) {
					data := make([]byte, payload)
					for i := 0; i < iters; i++ {
						r.Allgather(data)
					}
					return nil, nil
				}
				b.SetBytes(int64(payload))
				b.ResetTimer()
				if _, err := engine.Run(engine.Config{Ranks: benchRanks, Mode: mode}, prog); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkBlockingVsC3Checkpoint compares one global checkpoint under the
// blocking baseline against the C3 protocol for the same state size. The
// blocking version stalls every rank for the duration; C3 overlaps the
// logging phase with execution.
func BenchmarkBlockingVsC3Checkpoint(b *testing.B) {
	const stateMB = 4
	b.Run("blocking", func(b *testing.B) {
		b.SetBytes(stateMB << 20)
		for i := 0; i < b.N; i++ {
			store := storage.NewCheckpointStore(storage.NewMemory())
			w := mpi.NewWorld(benchRanks, mpi.Options{})
			done := make(chan error, benchRanks)
			for r := 0; r < benchRanks; r++ {
				go func(r int) {
					bl := baseline.NewBlocking(w.Comm(r), store)
					_, err := bl.Checkpoint(make([]byte, stateMB<<20))
					done <- err
				}(r)
			}
			for r := 0; r < benchRanks; r++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("c3", func(b *testing.B) {
		b.SetBytes(stateMB << 20)
		prog := func(r *engine.Rank) (any, error) {
			state := make([]float64, stateMB<<20/8)
			var it int
			r.Register("it", &it)
			r.Register("state", &state)
			for ; it < 2; it++ {
				r.PotentialCheckpoint()
				r.Barrier()
			}
			return nil, nil
		}
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(engine.Config{Ranks: benchRanks, Mode: protocol.Full, EveryN: 1}, prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRecovery measures the full rollback-restart cycle: failure
// detection, state restore, log replay, and completion of the remaining
// work.
func BenchmarkRecovery(b *testing.B) {
	const width = 4096
	prog := func(r *ccift.Rank) (any, error) {
		n := r.Size()
		next, prev := (r.Rank()+1)%n, (r.Rank()-1+n)%n
		var it int
		x := make([]float64, width)
		r.Register("it", &it)
		r.Register("x", &x)
		for ; it < 20; it++ {
			r.PotentialCheckpoint()
			r.SendF64(next, 1, x)
			in := r.RecvF64(prev, 1)
			for i := range x {
				x[i] = x[i]*0.5 + in[i]*0.5 + 1
			}
		}
		return x[0], nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := engine.Config{
			Ranks: benchRanks, Mode: protocol.Full, EveryN: 5,
			Failures: []engine.Failure{{Rank: 1, AtOp: 90, Incarnation: 0}},
		}
		res, err := engine.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		if res.Restarts != 1 {
			b.Fatalf("restarts = %d", res.Restarts)
		}
	}
}
