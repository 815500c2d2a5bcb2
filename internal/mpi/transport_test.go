package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// countingTransport wraps the in-process transport and counts wire sends —
// the smallest possible alternative backend, proving that a substrate can
// be swapped in through Options.NewTransport without the communicator or
// anything above it changing.
type countingTransport struct {
	inner  *inprocTransport
	sends  atomic.Int64
	onSend func(*Message) // when set, sees every message before it is delivered
	// onAwait, when set, sees every message a blocking receive returns.
	onAwait func(*Message)
}

func (t *countingTransport) Send(dst int, m *Message) {
	t.sends.Add(1)
	if t.onSend != nil {
		t.onSend(m)
	}
	t.inner.Send(dst, m)
}
func (t *countingTransport) Await(rank int, specs []RecvSpec) (int, *Message) {
	i, m := t.inner.Await(rank, specs)
	if t.onAwait != nil && m != nil {
		t.onAwait(m)
	}
	return i, m
}
func (t *countingTransport) AwaitCond(rank int, specs []RecvSpec, stop func() bool) (int, *Message) {
	return t.inner.AwaitCond(rank, specs, stop)
}
func (t *countingTransport) Poll(rank int, specs []RecvSpec) (int, *Message) {
	return t.inner.Poll(rank, specs)
}
func (t *countingTransport) Probe(rank int, spec RecvSpec) (bool, *Message) {
	return t.inner.Probe(rank, spec)
}
func (t *countingTransport) Pending(rank int) int               { return t.inner.Pending(rank) }
func (t *countingTransport) PendingApp(rank int, ctx int64) int { return t.inner.PendingApp(rank, ctx) }
func (t *countingTransport) Interrupt()                         { t.inner.Interrupt() }

func TestCustomTransportPlugsIn(t *testing.T) {
	var ct *countingTransport
	opts := Options{NewTransport: func(w *World) Transport {
		ct = &countingTransport{inner: newInprocTransport(w)}
		return ct
	}}
	runRanks(t, 4, opts, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte("via custom transport"))
		}
		if c.Rank() == 1 {
			if m := c.Recv(0, 3); string(m.Data) != "via custom transport" {
				panic(fmt.Sprintf("got %q", m.Data))
			}
		}
		// Collectives decompose into wire sends on the same substrate.
		out := BytesF64(allreduce(c, F64Bytes([]float64{1}), SumF64))
		if out[0] != 4 {
			panic(fmt.Sprintf("allreduce over custom transport = %v", out[0]))
		}
	})
	if ct.sends.Load() == 0 {
		t.Fatal("custom transport saw no wire traffic")
	}
}

func TestSendHdrCarriesHeaderOutOfBand(t *testing.T) {
	runRanks(t, 2, Options{}, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendHdr(1, 1, 0xC0FFEE, []byte("payload"))
		} else {
			m := c.Recv(0, 1)
			if m.Header != 0xC0FFEE {
				panic(fmt.Sprintf("header = %#x", m.Header))
			}
			// The payload is exactly what was sent: no header bytes were
			// spliced into the data segment.
			if string(m.Data) != "payload" {
				panic(fmt.Sprintf("data = %q", m.Data))
			}
		}
	})
}

// TestIndexedMatchOrder pins the matching rule the indexed mailbox must
// preserve: earliest delivery wins across specs, ties between specs go to
// the lowest spec index, and per-sender order survives exact-match
// receives interleaved with wildcard ones.
func TestIndexedMatchOrder(t *testing.T) {
	runRanks(t, 3, Options{}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 1, []byte("a0"))
			c.Send(2, 2, []byte("b0"))
			c.Send(2, 1, []byte("a1"))
			c.Send(2, 9, nil)
		case 1:
			c.Recv(2, 9) // wait until rank 0's messages are queued
			c.Send(2, 1, []byte("c0"))
			c.Send(2, 9, nil)
		case 2:
			c.Recv(0, 9)
			c.Send(1, 9, nil)
			c.Recv(1, 9)
			// Queue: a0 b0 a1 c0 (rank 1's send is ordered after rank 0's
			// by the handshake). An AnySource tag-1 receive must take a0.
			if m := c.Recv(AnySource, 1); string(m.Data) != "a0" {
				panic(fmt.Sprintf("first tag-1 = %q", m.Data))
			}
			// Select across two exact specs: b0 (tag 2) precedes a1.
			idx, m := c.Select([]RecvSpec{{Source: 0, Tag: 1}, {Source: 0, Tag: 2}})
			if idx != 1 || string(m.Data) != "b0" {
				panic(fmt.Sprintf("select = %d %q", idx, m.Data))
			}
			// Remaining tag-1 messages arrive in delivery order.
			if m := c.Recv(AnySource, 1); string(m.Data) != "a1" {
				panic(fmt.Sprintf("second tag-1 = %q", m.Data))
			}
			if m := c.Recv(AnySource, 1); string(m.Data) != "c0" {
				panic(fmt.Sprintf("third tag-1 = %q", m.Data))
			}
		}
	})
}

// TestSelectWaitStops: SelectWait returns when the condition is signalled
// even though no message ever arrives.
func TestSelectWaitStops(t *testing.T) {
	w := NewWorld(1, Options{})
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		idx, m := w.Comm(0).SelectWait([]RecvSpec{{Source: AnySource, Tag: 1}}, stop.Load)
		if idx != -1 || m != nil {
			panic(fmt.Sprintf("SelectWait = %d %v", idx, m))
		}
	}()
	stop.Store(true)
	w.Interrupt()
	<-done
}
