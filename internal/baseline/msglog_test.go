package baseline

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"ccift/internal/engine"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
)

func TestSenderLogRetainsEverySend(t *testing.T) {
	runRanks(t, 2, func(c *mpi.Comm) {
		sl := NewSenderLog(c)
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				sl.Send(1, 1, make([]byte, 100))
			}
			if sl.Sends != 10 || sl.SentBytes != 1000 {
				panic(fmt.Sprintf("sends=%d bytes=%d", sl.Sends, sl.SentBytes))
			}
			if sl.RetainedMessages() != 10 {
				panic(fmt.Sprintf("retained %d messages", sl.RetainedMessages()))
			}
			if sl.RetainedBytes() != 10*(100+logEntryOverhead) {
				panic(fmt.Sprintf("retained %d bytes", sl.RetainedBytes()))
			}
		} else {
			for i := 0; i < 10; i++ {
				sl.Recv(0, 1)
			}
			if sl.RetainedBytes() != 0 {
				panic("receiving must not grow a sender-based log")
			}
		}
	})
}

func TestSenderLogTruncateAndPeak(t *testing.T) {
	w := mpi.NewWorld(2, mpi.Options{})
	sl := NewSenderLog(w.Comm(0))
	for i := 0; i < 5; i++ {
		sl.Send(1, 1, make([]byte, 50))
	}
	peak := sl.PeakBytes
	if peak != 5*(50+logEntryOverhead) {
		t.Fatalf("peak = %d", peak)
	}
	sl.Truncate()
	if sl.RetainedBytes() != 0 || sl.RetainedMessages() != 0 {
		t.Fatal("truncate left retained data")
	}
	if sl.PeakBytes != peak {
		t.Fatal("truncate must not reset the high-water mark")
	}
	sl.Send(1, 1, make([]byte, 10))
	if sl.PeakBytes != peak {
		t.Fatal("a small post-truncation log must not move the peak")
	}
}

func TestSenderLogRetainedCopyIsStable(t *testing.T) {
	// The log must own its copies: mutating the application buffer after
	// Send cannot corrupt what a recovering process would be fed.
	w := mpi.NewWorld(2, mpi.Options{})
	sl := NewSenderLog(w.Comm(0))
	buf := []byte("original")
	sl.Send(1, 1, buf)
	copy(buf, "mutated!")
	replay := sl.Replay(1)
	if len(replay) != 1 || !bytes.Equal(replay[0], []byte("original")) {
		t.Fatalf("replay = %q", replay)
	}
}

func TestSenderLogReplayOrderProperty(t *testing.T) {
	// Replay(dst) returns exactly the messages sent to dst, in send order,
	// for any interleaving of destinations.
	f := func(dsts []bool) bool {
		if len(dsts) > 64 {
			dsts = dsts[:64]
		}
		w := mpi.NewWorld(3, mpi.Options{})
		sl := NewSenderLog(w.Comm(0))
		var want1, want2 [][]byte
		for i, toOne := range dsts {
			payload := []byte{byte(i)}
			if toOne {
				sl.Send(1, 1, payload)
				want1 = append(want1, payload)
			} else {
				sl.Send(2, 1, payload)
				want2 = append(want2, payload)
			}
		}
		got1, got2 := sl.Replay(1), sl.Replay(2)
		if len(got1) != len(want1) || len(got2) != len(want2) {
			return false
		}
		for i := range got1 {
			if !bytes.Equal(got1[i], want1[i]) {
				return false
			}
		}
		for i := range got2 {
			if !bytes.Equal(got2[i], want2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLogVolumeBlowupVsC3 is ablation E9: for the same workload, compare
// what sender-based message logging must retain (every message sent since
// the last stable point) against what the C3 protocol logs (only the late
// messages of checkpoints in progress, plus non-deterministic events). The
// paper's Section 1.2 claim is that the former is "overwhelming" for
// parallel codes; here the ratio is measured, not asserted from authority.
func TestLogVolumeBlowupVsC3(t *testing.T) {
	const iters, width, ranks = 60, 256, 4

	prog := func(r *engine.Rank) (any, error) {
		n := r.Size()
		me := r.Rank()
		next, prev := (me+1)%n, (me-1+n)%n
		var it int
		x := make([]float64, width)
		r.Register("it", &it)
		r.Register("x", &x)
		for ; it < iters; it++ {
			r.PotentialCheckpoint()
			r.Send(next, 1, mpi.F64Bytes(x))
			in := mpi.BytesF64(r.Recv(prev, 1).Data)
			for i := range x {
				x[i] = x[i]*0.5 + in[i]*0.5 + 1
			}
		}
		return nil, nil
	}

	res, err := engine.Run(engine.Config{Ranks: ranks, Mode: protocol.Full, EveryN: 10}, prog)
	if err != nil {
		t.Fatal(err)
	}
	var sentBytes, sentMsgs, c3LogBytes, checkpoints int64
	for _, s := range res.Stats {
		sentBytes += s.BytesSent
		sentMsgs += s.MessagesSent
		c3LogBytes += s.LogBytes
		checkpoints += s.CheckpointsTaken
	}
	if checkpoints == 0 {
		t.Fatal("workload took no checkpoints; the comparison needs at least one interval")
	}

	// Sender-based logging retains every sent message until the next global
	// checkpoint. With the same checkpoint cadence, its average retained
	// volume per interval is sentBytes divided by the number of intervals —
	// and per-message metadata comes on top, as in SenderLog.
	intervals := checkpoints/int64(ranks) + 1
	senderLogPerInterval := (sentBytes + sentMsgs*logEntryOverhead) / intervals

	t.Logf("workload sent %.1f KB in %d messages; C3 logged %.1f KB total; sender-based logging retains ~%.1f KB per interval",
		float64(sentBytes)/1e3, sentMsgs, float64(c3LogBytes)/1e3, float64(senderLogPerInterval)/1e3)

	if c3LogBytes*2 >= sentBytes {
		t.Fatalf("C3 log (%d B) should be far below total traffic (%d B): only late messages are logged",
			c3LogBytes, sentBytes)
	}
}
