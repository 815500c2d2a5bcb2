// Package tcptransport implements mpi.Transport over persistent TCP
// connections, with one OS process per rank. It is the first genuinely
// distributed substrate behind the Transport seam: wire messages are
// encoded with the mpi frame codec, travel over a full mesh of sockets,
// and are decoded into the same indexed mailbox the in-process transport
// uses — so Await/Poll/Probe/Interrupt and matchOrder semantics are
// inherited unchanged.
//
// Failure model: a SIGKILLed peer's sockets reset, which every survivor
// observes directly (fast path); a silently hung peer is caught by the
// heartbeat detector (internal/detector) after its suspicion timeout.
// Either way the transport declares the incarnation dead via
// World.Shutdown, so blocked operations panic with mpi.ErrWorldDead and
// the worker process exits for the launcher to re-spawn.
//
// Contract notes (see mpi.Transport):
//   - Per-sender non-overtaking order holds because each sender
//     writes a peer's frames onto one TCP stream in send order and the
//     receiver decodes them sequentially into the mailbox.
//   - Delivery is eager: Send completes once the frame is written to the
//     socket (the kernel's buffering plays the reliable delivery layer the
//     paper assumes). Messages to a dead peer vanish, matching the
//     stopping-failure model.
package tcptransport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/detector"
	"ccift/internal/mpi"
	"ccift/internal/wire"
)

// Frame types. Every frame is [u32 length | u8 type | body]; length counts
// type byte plus body, and wire.ReadFrame reads it.
const (
	frameHello     = 1 // body: u32 sender world rank (first frame on a dialed conn)
	frameMsg       = 2 // body: mpi wire message
	frameHeartbeat = 3 // body: empty
	frameDone      = 4 // body: empty; sender's application has finished
)

// Config configures a Transport.
type Config struct {
	// Rank is the world rank hosted by this process. Size is the world size.
	Rank, Size int
	// ListenAddr is the address to bind; default "127.0.0.1:0".
	ListenAddr string
	// Publish announces this rank's bound address to the rendezvous (called
	// once, before any Lookup). Lookup resolves a peer's address, blocking
	// until the peer has published or a rendezvous-level timeout expires.
	// StaticRendezvous provides both over a table of already-bound
	// listeners.
	Publish func(rank int, addr string) error
	Lookup  func(rank int) (string, error)
	// HeartbeatPeriod is the liveness beacon interval; default 250ms.
	HeartbeatPeriod time.Duration
	// SuspectTimeout declares a connected, not-yet-done peer dead when
	// nothing (data or heartbeat) has arrived from it for this long;
	// default 2s. Connection resets are detected immediately regardless.
	SuspectTimeout time.Duration
	// DialTimeout bounds connection establishment to one peer (including
	// retries while the peer's listener comes up); default 20s.
	DialTimeout time.Duration
	// Logf, when non-nil, receives diagnostics (peer deaths, shutdown).
	Logf func(format string, args ...any)
}

// Transport is a one-rank mpi.Transport over TCP. Build it with New (which
// binds the listener), then hand Attach to mpi.Options.NewTransport.
type Transport struct {
	cfg Config
	ln  net.Listener

	world *mpi.World
	mb    *mpi.Mailbox
	det   *detector.Detector

	mu    sync.Mutex
	cond  *sync.Cond  // broadcast on conn established, done, death, Interrupt
	peers []*peerConn // nil until established; peers[cfg.Rank] stays nil
	done  []bool      // peer announced application completion
	dead  bool        // a peer died; world has been shut down
	close bool        // Close was called (clean exit)

	stop      chan struct{}
	startedAt time.Time // mesh bring-up began (Start); bounds formation time
	wg        sync.WaitGroup
}

// peerConn is one established connection. Writers serialize on wmu and
// build each frame in one buffer so a frame is a single Write call.
type peerConn struct {
	c   net.Conn
	wmu sync.Mutex
	buf []byte
}

// New validates cfg and binds the listener, so the local address is known
// before the world (and its rendezvous peers) exist.
func New(cfg Config) (*Transport, error) {
	if cfg.Size <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("tcptransport: %w: rank %d out of range [0,%d)", cerr.ErrTransport, cfg.Rank, cfg.Size)
	}
	if cfg.Publish == nil || cfg.Lookup == nil {
		return nil, fmt.Errorf("tcptransport: %w: Publish and Lookup are required", cerr.ErrTransport)
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatPeriod == 0 {
		cfg.HeartbeatPeriod = 250 * time.Millisecond
	}
	if cfg.SuspectTimeout == 0 {
		cfg.SuspectTimeout = 2 * time.Second
	}
	// The detector needs several beacons per suspicion window or a healthy
	// peer is declared dead on the first quiet tick; tighten the period
	// when a small SuspectTimeout would otherwise outpace it.
	if p := cfg.SuspectTimeout / 4; cfg.HeartbeatPeriod > p {
		cfg.HeartbeatPeriod = p
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 20 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen: %w", err)
	}
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		det:   detector.New(cfg.Size, cfg.SuspectTimeout, nil),
		peers: make([]*peerConn, cfg.Size),
		done:  make([]bool, cfg.Size),
		stop:  make(chan struct{}),
	}
	t.cond = sync.NewCond(&t.mu)
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Attach wires the transport to its world; it is the
// mpi.Options.NewTransport hook. It must be followed by Start once
// mpi.NewWorld has returned — splitting the two keeps mesh goroutines
// (which may shut the world down on a dial failure) from touching a world
// still under construction.
func (t *Transport) Attach(w *mpi.World) mpi.Transport {
	t.world = w
	t.mb = mpi.NewMailbox(w)
	return t
}

// Start brings the mesh up: publish the local address, accept from higher
// ranks, dial lower ranks, and run the staleness monitor. Operations issued
// before Start simply block until the mesh forms.
func (t *Transport) Start() error {
	if t.world == nil {
		return fmt.Errorf("tcptransport: %w: Start before Attach", cerr.ErrTransport)
	}
	if err := t.cfg.Publish(t.cfg.Rank, t.Addr()); err != nil {
		return fmt.Errorf("tcptransport: publish address: %w", err)
	}
	t.startedAt = time.Now()
	t.wg.Add(1)
	go t.acceptLoop()
	for peer := 0; peer < t.cfg.Rank; peer++ {
		t.wg.Add(1)
		go t.dialPeer(peer)
	}
	t.wg.Add(1)
	go t.monitor()
	return nil
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// --- mesh construction ---

// acceptLoop admits connections from higher-ranked peers, which identify
// themselves with a hello frame.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed (Close or shutdown)
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			peer, err := readHello(c)
			if err != nil || peer <= t.cfg.Rank || peer >= t.cfg.Size {
				c.Close()
				return
			}
			if !t.register(peer, c) {
				c.Close()
				return
			}
			t.readLoop(peer, c)
		}()
	}
}

// dialPeer connects to a lower-ranked peer, retrying while its listener
// comes up, and sends the identifying hello.
func (t *Transport) dialPeer(peer int) {
	defer t.wg.Done()
	deadline := time.Now().Add(t.cfg.DialTimeout)
	addr, err := t.cfg.Lookup(peer)
	if err != nil {
		t.peerDead(peer, fmt.Errorf("rendezvous: %w", err))
		return
	}
	var c net.Conn
	for {
		c, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) || t.stopped() {
			if !t.stopped() {
				t.peerDead(peer, fmt.Errorf("dial %s: %w", addr, err))
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	hello := binary.LittleEndian.AppendUint32([]byte{5, 0, 0, 0, frameHello}, uint32(t.cfg.Rank))
	if _, err := c.Write(hello); err != nil {
		c.Close()
		t.peerDead(peer, fmt.Errorf("hello: %w", err))
		return
	}
	if !t.register(peer, c) {
		c.Close()
		return
	}
	t.readLoop(peer, c)
}

// register installs the established connection and wakes blocked senders.
// It reports false when the transport is already closing (the conn should
// be dropped) or the peer already has a connection (duplicate dial).
func (t *Transport) register(peer int, c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.close || t.dead || t.peers[peer] != nil {
		return false
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	t.peers[peer] = &peerConn{c: c}
	t.det.Heartbeat(peer)
	t.cond.Broadcast()
	return true
}

func readHello(c net.Conn) (int, error) {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	var buf [5]byte
	body, err := wire.ReadFrame(c, buf[:0])
	if err != nil {
		return -1, err
	}
	if len(body) != 5 || body[0] != frameHello {
		return -1, fmt.Errorf("tcptransport: %w: bad hello frame", cerr.ErrTransport)
	}
	return int(binary.LittleEndian.Uint32(body[1:])), nil
}

// --- frame I/O ---

// writeFrame builds the frame in the peer's scratch buffer and writes it in
// one call. A write error means the peer's socket is gone.
func (t *Transport) writeFrame(peer int, pc *peerConn, typ byte, body func([]byte) []byte) {
	pc.wmu.Lock()
	buf := append(pc.buf[:0], 0, 0, 0, 0, typ)
	if body != nil {
		buf = body(buf)
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4)) // patch real length
	_, err := pc.c.Write(buf)
	pc.buf = buf[:0]
	pc.wmu.Unlock()
	if err != nil {
		t.connBroken(peer, err)
	}
}

// readLoop decodes frames from one peer until the connection breaks.
func (t *Transport) readLoop(peer int, c net.Conn) {
	var body []byte // reused: a frame that fits lands in it
	for {
		var err error
		if body, err = wire.ReadFrame(c, body); err != nil {
			t.connBroken(peer, err)
			return
		}
		t.det.Heartbeat(peer) // any traffic is a sign of life
		switch body[0] {
		case frameMsg:
			m, err := mpi.DecodeMessage(body[1:])
			if err == nil && m.Source != peer {
				// One communicator: a message's source is the rank that sent
				// it, and the protocol indexes per-peer state by it.
				err = fmt.Errorf("tcptransport: %w: frame from peer %d names source %d", cerr.ErrTransport, peer, m.Source)
			}
			if err != nil {
				t.connBroken(peer, err)
				return
			}
			t.mb.Deliver(m)
		case frameHeartbeat:
			// Heartbeat already recorded above.
		case frameDone:
			t.markDone(peer)
		default:
			t.connBroken(peer, fmt.Errorf("tcptransport: %w: unknown frame type %d", cerr.ErrTransport, body[0]))
			return
		}
	}
}

// --- failure handling ---

func (t *Transport) stopped() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// connBroken classifies a connection error: benign after Close or once the
// peer announced completion, fatal otherwise.
func (t *Transport) connBroken(peer int, err error) {
	t.mu.Lock()
	benign := t.close || t.dead || t.done[peer]
	t.mu.Unlock()
	if benign {
		return
	}
	t.peerDead(peer, err)
}

// peerDead declares the incarnation dead: the paper's stopping-failure
// model makes any peer death a whole-incarnation rollback, so the world is
// shut down and every blocked operation panics with mpi.ErrWorldDead.
func (t *Transport) peerDead(peer int, err error) {
	t.mu.Lock()
	if t.close || t.dead {
		t.mu.Unlock()
		return
	}
	t.dead = true
	t.mu.Unlock()
	t.logf("rank %d: peer %d presumed dead (%v); shutting down incarnation", t.cfg.Rank, peer, err)
	t.shutdownWorld(peer)
}

func (t *Transport) shutdownWorld(peer int) {
	if peer >= 0 {
		t.world.Kill(peer) // record the observed failure
	}
	t.world.Shutdown() // panics blocked ops with ErrWorldDead via Interrupt
}

// monitor beacons liveness to every connected peer and applies the
// suspicion timeout to connected, not-yet-done peers. A peer's done status
// exempts it from suspicion but NOT from our beacons: a done peer is still
// running (parked in control service until everyone finishes) and still
// suspects *us*, so its inbound traffic must not dry up — writes to a done
// peer that has already exited fail benignly via connBroken. Pre-connection
// absence is handled by the dial deadline instead, so a slow mesh bring-up
// is never misread as a death.
func (t *Transport) monitor() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatPeriod)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		t.det.Heartbeat(t.cfg.Rank)
		meshLate := time.Since(t.startedAt) > t.cfg.DialTimeout
		t.mu.Lock()
		type target struct {
			peer int
			pc   *peerConn
		}
		var targets []target
		suspectable := make([]bool, t.cfg.Size)
		var unformed []int
		for p := 0; p < t.cfg.Size; p++ {
			if p == t.cfg.Rank {
				continue
			}
			if pc := t.peers[p]; pc != nil {
				targets = append(targets, target{p, pc})
				suspectable[p] = !t.done[p]
			} else if !t.done[p] {
				// Not connected yet: the dial deadline governs peers we dial;
				// for peers that dial us, the mesh-formation deadline below
				// catches a higher rank that died before connecting.
				t.det.Heartbeat(p)
				unformed = append(unformed, p)
			}
		}
		t.mu.Unlock()
		if meshLate && len(unformed) > 0 {
			t.peerDead(unformed[0], fmt.Errorf("%w: no connection to peers %v within %v of start", cerr.ErrTransport, unformed, t.cfg.DialTimeout))
			return
		}
		for _, tg := range targets {
			t.writeFrame(tg.peer, tg.pc, frameHeartbeat, nil)
		}
		for _, p := range t.det.Suspects() {
			if suspectable[p] {
				t.peerDead(p, fmt.Errorf("%w: no traffic for %v", cerr.ErrTransport, t.cfg.SuspectTimeout))
				return
			}
		}
	}
}

// --- completion ---

// AnnounceDone broadcasts that this rank's application has finished. After
// this, a peer closing its connection is treated as a clean exit. The
// broadcast waits for still-forming connections so a rank that finishes
// instantly cannot strand peers waiting for its completion.
func (t *Transport) AnnounceDone() {
	t.mu.Lock()
	t.done[t.cfg.Rank] = true
	t.cond.Broadcast()
	t.mu.Unlock()
	for p := 0; p < t.cfg.Size; p++ {
		if p == t.cfg.Rank {
			continue
		}
		if pc := t.awaitPeer(p); pc != nil {
			t.writeFrame(p, pc, frameDone, nil)
		}
	}
}

// markDone records a peer's completion announcement and wakes the local
// rank, whose ServiceControlUntil stop condition may now hold.
func (t *Transport) markDone(peer int) {
	t.mu.Lock()
	t.done[peer] = true
	t.cond.Broadcast()
	t.mu.Unlock()
	t.mb.Interrupt()
}

// AllDone reports whether every rank (including this one) has announced
// completion — the distributed analogue of the engine's finished counter.
func (t *Transport) AllDone() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.done {
		if !d {
			return false
		}
	}
	return true
}

// Close tears the transport down for a clean exit: subsequent connection
// errors are benign. It does not shut the world down.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.close {
		t.mu.Unlock()
		return
	}
	t.close = true
	conns := append([]*peerConn(nil), t.peers...)
	t.cond.Broadcast()
	t.mu.Unlock()
	close(t.stop)
	t.ln.Close()
	for _, pc := range conns {
		if pc != nil {
			pc.c.Close()
		}
	}
}

// --- mpi.Transport ---

func (t *Transport) hosted(rank int) {
	if rank != t.cfg.Rank {
		panic(fmt.Sprintf("tcptransport: rank %d not hosted by this process (rank %d)", rank, t.cfg.Rank))
	}
}

// Send implements mpi.Transport. Local sends deliver straight into the
// mailbox; remote sends encode one frame onto the peer's stream, blocking
// only while the mesh is still forming.
func (t *Transport) Send(dst int, m *mpi.Message) {
	if dst == t.cfg.Rank {
		t.mb.Deliver(m)
		return
	}
	pc := t.awaitPeer(dst)
	if pc == nil {
		return // peer (or world) died: the message vanishes, as for a stopped process
	}
	t.writeFrame(dst, pc, frameMsg, func(buf []byte) []byte {
		return mpi.AppendMessage(buf, m)
	})
	t.world.Release(m) // encoded and written: the peer decodes its own
}

// awaitPeer blocks until dst's connection is established, returning nil if
// the transport closes first and panicking, like every blocked operation,
// once the world is canceled or dies.
func (t *Transport) awaitPeer(dst int) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if pc := t.peers[dst]; pc != nil {
			return pc
		}
		if t.world.Canceled() {
			panic(mpi.ErrCanceled)
		}
		if t.world.Dead() {
			panic(mpi.ErrWorldDead)
		}
		if t.close || t.dead || t.done[dst] {
			return nil
		}
		t.cond.Wait()
	}
}

// Await implements mpi.Transport.
func (t *Transport) Await(rank int, specs []mpi.RecvSpec) (int, *mpi.Message) {
	t.hosted(rank)
	return t.mb.Await(specs)
}

// AwaitCond implements mpi.Transport.
func (t *Transport) AwaitCond(rank int, specs []mpi.RecvSpec, stop func() bool) (int, *mpi.Message) {
	t.hosted(rank)
	return t.mb.AwaitCond(specs, stop)
}

// Poll implements mpi.Transport.
func (t *Transport) Poll(rank int, specs []mpi.RecvSpec) (int, *mpi.Message) {
	t.hosted(rank)
	return t.mb.Poll(specs)
}

// Probe implements mpi.Transport.
func (t *Transport) Probe(rank int, spec mpi.RecvSpec) (bool, *mpi.Message) {
	t.hosted(rank)
	return t.mb.Probe(spec)
}

// Pending implements mpi.Transport.
func (t *Transport) Pending(rank int) int {
	t.hosted(rank)
	return t.mb.Pending()
}

// PendingApp implements mpi.Transport.
func (t *Transport) PendingApp(rank int, _ int64) int {
	t.hosted(rank)
	return t.mb.PendingApp(0)
}

// Interrupt implements mpi.Transport: wake the local mailbox and any sender
// blocked on mesh formation.
func (t *Transport) Interrupt() {
	t.mb.Interrupt()
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}
