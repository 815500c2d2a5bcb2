package launch

// The control stream: one socketpair per worker process, inherited by the
// worker as CCIFT_CONTROL_FD, carrying frames both ways. Every step of a
// distributed rollback is one of these frames (or a process exit) arriving:
// nothing on either side polls a file or sleeps out a window.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

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

// writeCtlFrame writes f as [u32 length | gob body] in one Write call.
func writeCtlFrame(w io.Writer, f *ctlFrame) error {
	buf := bytes.NewBuffer(make([]byte, 4))
	if err := gob.NewEncoder(buf).Encode(f); err != nil {
		return fmt.Errorf("launch: encode control frame: %w: %w", cerr.ErrTransport, err)
	}
	b := buf.Bytes()
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
	var f ctlFrame
	if err := gob.NewDecoder(&body).Decode(&f); err != nil {
		return nil, fmt.Errorf("launch: decode control frame: %w: %w", cerr.ErrTransport, err)
	}
	return &f, nil
}
