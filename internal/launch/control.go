package launch

// The control stream: one socketpair per worker process, inherited by the
// worker as CCIFT_CONTROL_FD, carrying frames both ways. Every step of a
// distributed rollback is one of these frames (or a process exit) arriving:
// nothing on either side polls a file or sleeps out a window.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ccift/internal/cerr"
	"ccift/internal/protocol"
)

type ctlKind byte

const (
	// worker → launcher: my listener is bound at Addr and I am parked until
	// start (a fresh process, or a survivor whose incarnation just failed).
	ctlReady ctlKind = iota + 1
	ctlStart         // launcher → worker: every rank is parked; run Incarnation
	ctlAbort         // launcher → worker: a process of Incarnation died; end it as failed
)

// ctlFrame is the one frame type; Kind says which fields are meaningful.
type ctlFrame struct {
	Kind        ctlKind
	Incarnation int                   // start, abort
	Addr        string                // ready
	Addrs       []string              // start: every rank's bound listener, by rank
	Recovery    protocol.RankRecovery // start (Epoch -1: fresh start, do not restore)
	KillAtOp    int64                 // start
	// The worker's annotation of a start (unexported: never encoded),
	// canceled by the abort that may follow it or by the stream's end.
	ctx context.Context
}

// maxCtlFrame bounds a frame's self-declared length (tcptransport's
// maxFrame rule), generously: a start frame carries a rank's replica set.
const maxCtlFrame = 1 << 30

// writeCtlFrame writes f as [u32 length | body] in one Write call. The body
// is uvarints and length-prefixed strings: kind, incarnation, address, then
// in a start the kill op, the recovery epoch (two's complement), and the
// addresses, suppressed IDs and replicas, each list behind its length.
func writeCtlFrame(w io.Writer, f *ctlFrame) error {
	b := make([]byte, 4, 64)
	u := func(v uint64) { b = binary.AppendUvarint(b, v) }
	str := func(s string) { u(uint64(len(s))); b = append(b, s...) }
	u(uint64(f.Kind))
	u(uint64(f.Incarnation))
	str(f.Addr)
	if rec := &f.Recovery; f.Kind == ctlStart {
		u(uint64(f.KillAtOp))
		u(uint64(rec.Epoch))
		u(uint64(len(f.Addrs)))
		for _, a := range f.Addrs {
			str(a)
		}
		u(uint64(len(rec.Suppress)))
		for _, id := range rec.Suppress {
			u(uint64(id))
		}
		u(uint64(len(rec.Replicas)))
		for name, v := range rec.Replicas {
			str(name)
			str(string(v))
		}
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("launch: write control frame: %w: %w", cerr.ErrTransport, err)
	}
	return nil
}

// readCtlFrame reads one frame. Every failure is a categorized error — a
// stream that ends (io.EOF stays matchable) as much as a corrupt one.
func readCtlFrame(r io.Reader) (*ctlFrame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("launch: read control frame: %w: %w", cerr.ErrTransport, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxCtlFrame {
		return nil, fmt.Errorf("launch: %w: control frame length %d out of range", cerr.ErrTransport, n)
	}
	// CopyN grows the buffer as bytes arrive, so a length word that lies
	// cannot provoke the allocation it names.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		return nil, fmt.Errorf("launch: truncated control frame: %w: %w", cerr.ErrTransport, err)
	}
	// A count is checked against the bytes left before anything is made of it.
	b, bad := body.Bytes(), false
	num := func(limit uint64) uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > limit {
			bad, b = true, nil
			return 0
		}
		b = b[n:]
		return v
	}
	count := func() int { // of elements of a byte or more
		if v := num(math.MaxInt32); v <= uint64(len(b)) {
			return int(v)
		}
		bad, b = true, nil
		return 0
	}
	field := func() []byte {
		n := count()
		v := b[:n:n]
		b = b[n:]
		return v
	}
	f := &ctlFrame{Kind: ctlKind(num(uint64(ctlAbort))), Incarnation: int(num(math.MaxInt32)), Addr: string(field())}
	if rec := &f.Recovery; f.Kind == ctlStart {
		f.KillAtOp, rec.Epoch = int64(num(math.MaxUint64)), int(num(math.MaxUint64))
		f.Addrs = make([]string, count())
		for i := range f.Addrs {
			f.Addrs[i] = string(field())
		}
		rec.Suppress = make([]uint32, count())
		for i := range rec.Suppress {
			rec.Suppress[i] = uint32(num(math.MaxUint32))
		}
		rec.Replicas = map[string][]byte{}
		for n := count(); n > 0; n-- {
			rec.Replicas[string(field())] = field() // name, then value: calls run left to right
		}
	}
	if bad || f.Kind == 0 || len(b) != 0 {
		return nil, fmt.Errorf("launch: %w: corrupt control frame", cerr.ErrTransport)
	}
	return f, nil
}
