package launch

// The control stream: one socketpair per worker process, inherited by the
// worker as CCIFT_CONTROL_FD, carrying frames both ways. It is the worker's
// one stream to its launcher. Every step of a distributed rollback is one
// of these frames (or a process exit) arriving: nothing on either side
// polls a file or sleeps out a window. The worker's counters ride it too,
// as stats frames, so a launcher has observed every frame a process wrote
// before it sees that process exit.

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"ccift/internal/cerr"
	"ccift/internal/protocol"
	"ccift/internal/wire"
)

type ctlKind byte

const (
	// worker → launcher: my listener is bound at Addr and I am parked until
	// start (a fresh process, or a survivor whose incarnation just failed).
	ctlReady ctlKind = iota + 1
	ctlStart         // launcher → worker: every rank is parked; run Incarnation
	ctlAbort         // launcher → worker: a process of Incarnation died; end it as failed
	ctlStats         // worker → launcher: my counters in Incarnation so far (Final: all of them)
)

// ctlFrame is the one frame type; Kind says which fields are meaningful.
type ctlFrame struct {
	Kind        ctlKind
	Incarnation int                   // start, abort, stats
	Addr        string                // ready
	Addrs       []string              // start: every rank's bound listener, by rank
	Recovery    protocol.RankRecovery // start (Epoch -1: fresh start, do not restore)
	KillAtOp    int64                 // start
	Final       bool                  // stats
	Stats       protocol.Stats        // stats
	// The worker's annotation of a start (unexported: never encoded),
	// canceled by the abort that may follow it or by the stream's end.
	ctx context.Context
}

// code is the frame's one layout: kind, incarnation and address; in a
// start the kill op, every rank's address and the rank's recovery slice
// (protocol.RankRecovery.Code); in stats the final flag and the counters
// (protocol.Stats.Code). A stats frame carries no rank: the stream it
// arrives on names it.
func (f *ctlFrame) code(c *wire.Codec) {
	wire.Uint(c, &f.Kind)
	c.Require(f.Kind >= ctlReady && f.Kind <= ctlStats, "unknown kind %d", f.Kind)
	wire.Uint(c, &f.Incarnation)
	wire.Str(c, &f.Addr)
	switch f.Kind {
	case ctlStart:
		wire.Int(c, &f.KillAtOp)
		wire.Seq(c, "address", &f.Addrs, 1, func(a *string) { wire.Str(c, a) })
		f.Recovery.Code(c)
	case ctlStats:
		wire.Flag(c, &f.Final)
		f.Stats.Code(c)
	}
}

// writeCtlFrame writes f as [u32 length | body] in one Write call.
func writeCtlFrame(w io.Writer, f *ctlFrame) error {
	b := wire.Encode(make([]byte, 4, 64), f.code)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("launch: write control frame: %w: %w", cerr.ErrTransport, err)
	}
	return nil
}

// readCtlFrame reads one frame. Every failure is a categorized error — a
// stream that ends (io.EOF stays matchable) as much as a corrupt one.
func readCtlFrame(r io.Reader) (*ctlFrame, error) {
	body, err := wire.ReadFrame(r, nil)
	if err != nil {
		return nil, fmt.Errorf("launch: read control frame: %w: %w", cerr.ErrTransport, err)
	}
	f := &ctlFrame{}
	if err := wire.Decode(body, f.code); err != nil {
		return nil, fmt.Errorf("launch: %w: corrupt control frame: %w", cerr.ErrTransport, err)
	}
	return f, nil
}
