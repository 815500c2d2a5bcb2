package baseline

import (
	"fmt"
	"testing"

	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Benchmarks of the baselines against the C3 protocol. Run them with:
//
//	go test -bench=. -benchmem -run '^$' ./internal/baseline

// BenchmarkSenderLogSend measures the per-send cost message logging adds:
// the retained copy is the scheme's defining overhead.
func BenchmarkSenderLogSend(b *testing.B) {
	for _, size := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("msg=%dB", size), func(b *testing.B) {
			w := mpi.NewWorld(2, mpi.Options{})
			sl := NewSenderLog(w.Comm(0))
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

// BenchmarkBlockingVsC3Checkpoint compares one global checkpoint under the
// blocking baseline against the C3 protocol for the same state size. The
// blocking version stalls every rank for the duration; C3 overlaps the
// logging phase with execution.
func BenchmarkBlockingVsC3Checkpoint(b *testing.B) {
	const stateMB, ranks = 4, 4
	b.Run("blocking", func(b *testing.B) {
		b.SetBytes(stateMB << 20)
		for i := 0; i < b.N; i++ {
			store := storage.NewCheckpointStore(storage.NewMemory())
			w := mpi.NewWorld(ranks, mpi.Options{})
			done := make(chan error, ranks)
			for r := 0; r < ranks; r++ {
				go func(r int) {
					bl := NewBlocking(w.Comm(r), store)
					_, err := bl.Checkpoint(make([]byte, stateMB<<20))
					done <- err
				}(r)
			}
			for r := 0; r < ranks; r++ {
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
			if _, err := engine.Run(engine.Config{Ranks: ranks, Mode: protocol.Full, EveryN: 1}, prog); err != nil {
				b.Fatal(err)
			}
		}
	})
}
