package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/sim"
)

// The agreement rule of Section 4.5, per collective: all participants of a
// call must reach the same verdict on whether it is logged, because one
// that logged it reads the result back on recovery while one that did not
// re-executes it — and would wait for the other's contribution forever. The
// symmetric collectives get the participants' control states on their own
// messages; the rooted ones, whose leaves never hear the root, and
// AlignedBarrier keep the explicit exchange. Each row below puts its call
// into both of Figure 5's situations inside a logging phase on the
// simulator, crashes a rank after the commit, and requires the recovered
// run to end — and to end identical to the fault-free one. The simulator
// re-delivers three frames in ten and poisons every payload a world releases
// (simConfig): neither a duplicate nor a result, logged or returned, may
// alias a recycled message.

// agreementCall is one collective as the scenario program uses it: it
// contributes v and folds the call's result into one number.
type agreementCall func(r *Rank, root int, v float64) float64

func sumF64(xs []float64) (s float64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// blocks is a per-rank payload of one distinct double per destination.
func blocks(r *Rank, v float64) []float64 {
	out := make([]float64, r.Size())
	for i := range out {
		out[i] = v + float64(i)*0.125
	}
	return out
}

var agreementCalls = []struct {
	name string
	call agreementCall
}{
	{"Allreduce", func(r *Rank, _ int, v float64) float64 {
		return r.AllreduceF64([]float64{v}, mpi.SumF64)[0]
	}},
	{"Allgather", func(r *Rank, _ int, v float64) float64 {
		dst := make([]float64, 2*r.Size())
		r.AllgatherF64Into(dst, []float64{v, -v / 3})
		return sumF64(dst)
	}},
	{"Alltoall", func(r *Rank, _ int, v float64) float64 {
		dst := make([]byte, 8*r.Size())
		r.AlltoallInto(dst, mpi.F64Bytes(blocks(r, v)))
		return sumF64(mpi.BytesF64(dst))
	}},
	{"Reducescatter", func(r *Rank, _ int, v float64) float64 {
		dst := make([]byte, 8)
		r.ReducescatterInto(dst, mpi.F64Bytes(blocks(r, v)), mpi.SumF64)
		return mpi.BytesF64(dst)[0]
	}},
	{"Barrier", func(r *Rank, _ int, v float64) float64 {
		r.Barrier()
		return v
	}},
	{"Bcast", func(r *Rank, root int, v float64) float64 {
		buf := mpi.F64Bytes([]float64{v})
		r.BcastInto(root, buf)
		return mpi.BytesF64(buf)[0]
	}},
	{"Reduce", func(r *Rank, root int, v float64) float64 {
		dst := make([]byte, 8) // stays zero off root
		r.ReduceInto(root, dst, mpi.F64Bytes([]float64{v}), mpi.SumF64)
		return v + mpi.BytesF64(dst)[0]
	}},
	{"Gather", func(r *Rank, root int, v float64) float64 {
		dst := make([]float64, r.Size()) // stays zero off root
		r.GatherF64Into(root, dst, []float64{v})
		return v + sumF64(dst)
	}},
	{"Scatter", func(r *Rank, root int, v float64) float64 {
		dst := make([]byte, 8)
		r.ScatterInto(root, dst, mpi.F64Bytes(blocks(r, v)))
		return mpi.BytesF64(dst)[0]
	}},
	{"Scan", func(r *Rank, _ int, v float64) float64 {
		dst := make([]byte, 8)
		r.ScanInto(dst, mpi.F64Bytes([]float64{v}), mpi.SumF64)
		return mpi.BytesF64(dst)[0]
	}},
	{"AlignedBarrier", func(r *Rank, _ int, v float64) float64 {
		r.AlignedBarrier()
		return v
	}},
}

// entryState is what one participant brought to one call.
type entryState struct {
	epoch   int
	logging bool
}

// entryLog records every participant's state at every call of a run.
type entryLog struct {
	mu    sync.Mutex
	calls map[int][]entryState // step -> one entry per participant
}

func (e *entryLog) note(step int, s entryState) {
	e.mu.Lock()
	e.calls[step] = append(e.calls[step], s)
	e.mu.Unlock()
}

// situations reports whether some call had a logging participant beside one
// of its own epoch that had stopped logging (Figure 5 call B), and whether
// some call had a logging participant beside one still in the old epoch
// (call A).
func (e *entryLog) situations() (callA, callB bool) {
	for _, states := range e.calls {
		for _, a := range states {
			if !a.logging {
				continue
			}
			for _, b := range states {
				callA = callA || b.epoch == a.epoch-1
				callB = callB || (b.epoch == a.epoch && !b.logging)
			}
		}
	}
	return callA, callB
}

// agreementProg runs one collective per step, directly after the step's
// potential checkpoint (where AlignedBarrier may force one), and then
// skews the ranks: the two that are not the loner bounce a message skew
// times, so the loner reaches the next call 2·skew hops of virtual time
// ahead of them. With no skew the initiator's local checkpoint precedes
// everyone else's by a step (call A at every call of that step); with some,
// the stopLogging that ends the logging phase finds the loner inside the
// next call and the others still short of it (call B). The root rotates.
func agreementProg(call agreementCall, steps, loner, skew int, entries *entryLog) Program {
	return func(r *Rank) (any, error) {
		n, me := r.Size(), r.Rank()
		a, b := (loner+1)%n, (loner+2)%n
		var step int
		var acc float64
		r.Register("step", &step)
		r.Register("acc", &acc)
		for ; step < steps; step++ {
			r.PotentialCheckpoint()
			if entries != nil {
				// Nothing is delivered between this and the call's own
				// entry: virtual time stands still while a rank runs.
				r.Layer().ServiceControlUntil(func() bool { return true })
				entries.note(step, entryState{r.Epoch(), r.Layer().Logging()})
			}
			acc = acc*0.5 + call(r, step%n, float64(me+1)+float64(step)*0.25+acc*0.125)
			for i := 0; i < skew; i++ {
				switch me {
				case a:
					r.Send(b, 1, mpi.F64Bytes([]float64{acc}))
					acc += mpi.BytesF64(r.Recv(b, 2).Data)[0] * 0.0625
				case b:
					got := mpi.BytesF64(r.Recv(a, 1).Data)[0]
					r.Send(a, 2, mpi.F64Bytes([]float64{acc}))
					acc += got * 0.0625
				}
			}
		}
		return fmt.Sprintf("%.9f", acc), nil
	}
}

func TestCollectiveAgreementSurvivesRecovery(t *testing.T) {
	const ranks, steps, everyN = 3, 14, 4
	// A deadlocked recovery must fail the test, not hang it: the virtual
	// clock cannot advance a world whose every rank waits for a message
	// nobody will send.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	for _, row := range agreementCalls {
		t.Run(row.name, func(t *testing.T) {
			var sawA, sawB bool
			for _, loner := range []int{0, 2} {
				for skew := 0; skew <= 3; skew++ {
					name := fmt.Sprintf("loner=%d skew=%d", loner, skew)
					ref := runRef(t, Config{Ranks: ranks, Mode: protocol.Unmodified}, agreementProg(row.call, steps, loner, skew, nil))

					run := func(entries *entryLog, crashes []sim.Crash) (*Result, time.Duration) {
						cfg, s := simConfig(t, Config{
							Ranks: ranks, Mode: protocol.Full, EveryN: everyN, Debug: true,
							DetectorTimeout: 20 * time.Millisecond,
						}, sim.Scenario{Seed: 1, Latency: time.Millisecond, DupProb: 0.3, Crashes: crashes})
						res, err := RunContext(ctx, cfg, agreementProg(row.call, steps, loner, skew, entries))
						if err != nil {
							t.Fatalf("%s, crashes %v: %v", name, crashes, err)
						}
						if !reflect.DeepEqual(res.Values, ref) {
							t.Fatalf("%s, crashes %v: values %v != fault-free %v", name, crashes, res.Values, ref)
						}
						return res, s.Elapsed()
					}

					entries := &entryLog{calls: map[int][]entryState{}}
					clean, elapsed := run(entries, nil)
					if clean.Restarts != 0 || clean.Stats[0].CheckpointsTaken < 2 {
						t.Fatalf("%s: fault-free pass restarted %d times and took %d checkpoints", name, clean.Restarts, clean.Stats[0].CheckpointsTaken)
					}
					a, b := entries.situations()
					sawA, sawB = sawA || a, sawB || b

					// Late enough to follow a commit, whichever rank dies:
					// the rollback re-executes that checkpoint's logging
					// phase, its logged calls from the log and the others
					// for real.
					for doomed := 0; doomed < ranks; doomed++ {
						res, _ := run(nil, []sim.Crash{{Rank: doomed, At: elapsed * 4 / 5}})
						if res.Restarts != 1 || len(res.RecoveredEpochs) != 1 || res.RecoveredEpochs[0] < 1 {
							t.Fatalf("%s: crash of rank %d at %v: %d restarts from epochs %v, want one rollback to a committed checkpoint",
								name, doomed, elapsed*4/5, res.Restarts, res.RecoveredEpochs)
						}
					}
				}
			}
			if !sawA || !sawB {
				t.Fatalf("the schedules no longer put the call into both situations inside a logging phase: call A seen=%v, call B seen=%v", sawA, sawB)
			}
		})
	}
}
