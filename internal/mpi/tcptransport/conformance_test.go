package tcptransport_test

// Transport-contract conformance suite: every behaviour the mpi.Transport
// documentation promises — reliable eager delivery, per-sender
// non-overtaking order, matchOrder semantics with lowest-spec-index
// tie-breaking, Interrupt wakeup, ErrWorldDead on shutdown — is exercised
// through one shared table against both substrates: the in-process
// indexed-mailbox transport and the cross-process TCP transport (here wired
// between n single-rank worlds over loopback sockets, exactly as n worker
// processes would be).

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/mpi/tcptransport"
	"ccift/internal/sim"
)

// cluster is the substrate-neutral view of an n-rank world set.
type cluster struct {
	n     int
	tr    func(rank int) mpi.Transport
	world func(rank int) *mpi.World
	close func()
}

type substrate struct {
	name  string
	build func(t *testing.T, n int) *cluster
}

func buildInproc(t *testing.T, n int) *cluster {
	w := mpi.NewWorld(n, mpi.Options{})
	return &cluster{
		n:     n,
		tr:    func(int) mpi.Transport { return w.Transport() },
		world: func(int) *mpi.World { return w },
		close: func() {},
	}
}

func buildTCP(t *testing.T, n int) *cluster {
	addrs := make([]string, n)
	_, lookup := tcptransport.StaticRendezvous(addrs)
	publish := func(int, string) error { return nil }
	ts := make([]*tcptransport.Transport, n)
	for i := 0; i < n; i++ {
		tt, err := tcptransport.New(tcptransport.Config{
			Rank: i, Size: n,
			Publish: publish, Lookup: lookup,
			HeartbeatPeriod: 200 * time.Millisecond,
			SuspectTimeout:  30 * time.Second, // ample: only conn resets should ever fire here
		})
		if err != nil {
			t.Fatalf("tcptransport.New(rank %d): %v", i, err)
		}
		ts[i] = tt
		addrs[i] = tt.Addr()
	}
	worlds := make([]*mpi.World, n)
	for i := 0; i < n; i++ {
		worlds[i] = mpi.NewWorld(n, mpi.Options{NewTransport: ts[i].Attach})
	}
	for i := 0; i < n; i++ {
		if err := ts[i].Start(); err != nil {
			t.Fatalf("Start(rank %d): %v", i, err)
		}
	}
	return &cluster{
		n:     n,
		tr:    func(rank int) mpi.Transport { return ts[rank] },
		world: func(rank int) *mpi.World { return worlds[rank] },
		close: func() {
			for _, tt := range ts {
				tt.Close()
			}
		},
	}
}

// buildSim runs the suite over the simulated substrate with a zero-latency
// fault-free scenario: every frame crosses the discrete-event scheduler and
// the wire codec, and due events dispatch eagerly, so the simulation must be
// observationally identical to an ordinary transport here.
func buildSim(t *testing.T, n int) *cluster {
	s, err := sim.New(n, sim.Scenario{Seed: 1})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	w := mpi.NewWorld(n, mpi.Options{NewTransport: s.NewTransport})
	return &cluster{
		n:     n,
		tr:    func(int) mpi.Transport { return w.Transport() },
		world: func(int) *mpi.World { return w },
		close: s.Stop,
	}
}

var substrates = []substrate{
	{"inproc", buildInproc},
	{"tcp", buildTCP},
	{"sim", buildSim},
}

func msg(src, tag int, seq uint32) *mpi.Message {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], seq)
	return &mpi.Message{Source: src, Tag: tag, Data: b[:]}
}

func seqOf(t *testing.T, m *mpi.Message) uint32 {
	t.Helper()
	if len(m.Data) != 4 {
		t.Fatalf("payload length %d, want 4", len(m.Data))
	}
	return binary.LittleEndian.Uint32(m.Data)
}

func TestTransportConformance(t *testing.T) {
	type tc struct {
		name string
		n    int
		run  func(t *testing.T, c *cluster)
	}
	cases := []tc{
		{"SenderOrderPreserved", 2, testSenderOrder},
		{"CrossSenderDeliveryComplete", 3, testCrossSender},
		{"MatchOrderEarliestWins", 2, testMatchEarliest},
		{"MatchOrderTieLowestSpec", 2, testMatchTie},
		{"ProbePollPending", 2, testProbePollPending},
		{"InterruptWakesAwaitCond", 2, testInterrupt},
		{"ShutdownPanicsErrWorldDead", 2, testWorldDead},
	}
	for _, s := range substrates {
		for _, c := range cases {
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				cl := s.build(t, c.n)
				defer cl.close()
				c.run(t, cl)
			})
		}
	}
}

// testSenderOrder: messages from one sender on one context are matched in
// send order (MPI's non-overtaking guarantee).
func testSenderOrder(t *testing.T, c *cluster) {
	const k = 200
	go func() {
		for i := 0; i < k; i++ {
			c.tr(1).Send(0, msg(1, 7, uint32(i)))
		}
	}()
	for i := 0; i < k; i++ {
		_, m := c.tr(0).Await(0, []mpi.RecvSpec{{Source: 1, Tag: 7}})
		if got := seqOf(t, m); got != uint32(i) {
			t.Fatalf("receive %d: got seq %d (same-sender overtaking)", i, got)
		}
	}
}

// testCrossSender: all messages from concurrent senders arrive exactly
// once, and each sender's own sequence stays ordered even under a wildcard
// receive.
func testCrossSender(t *testing.T, c *cluster) {
	const per = 50
	for src := 1; src < c.n; src++ {
		go func(src int) {
			for i := 0; i < per; i++ {
				c.tr(src).Send(0, msg(src, src, uint32(i)))
			}
		}(src)
	}
	next := make([]uint32, c.n)
	total := per * (c.n - 1)
	for i := 0; i < total; i++ {
		_, m := c.tr(0).Await(0, []mpi.RecvSpec{{Source: mpi.AnySource, Tag: mpi.AnyTag}})
		if m.Tag != m.Source {
			t.Fatalf("message from %d carries tag %d", m.Source, m.Tag)
		}
		if got := seqOf(t, m); got != next[m.Source] {
			t.Fatalf("sender %d: got seq %d, want %d", m.Source, got, next[m.Source])
		}
		next[m.Source]++
	}
	for src := 1; src < c.n; src++ {
		if next[src] != per {
			t.Fatalf("sender %d: received %d of %d", src, next[src], per)
		}
	}
}

// testMatchEarliest: the queued message earliest in delivery order wins,
// regardless of spec order.
func testMatchEarliest(t *testing.T, c *cluster) {
	c.tr(1).Send(0, msg(1, 1, 100))
	c.tr(1).Send(0, msg(1, 2, 200))
	// Wait until both have arrived so delivery order is fixed.
	waitPending(t, c.tr(0), 0, 2)
	specs := []mpi.RecvSpec{{Source: 1, Tag: 2}, {Source: 1, Tag: 1}}
	si, m := c.tr(0).Await(0, specs)
	if m.Tag != 1 || si != 1 {
		t.Fatalf("got tag %d via spec %d, want earliest message (tag 1) via spec 1", m.Tag, si)
	}
	si, m = c.tr(0).Await(0, specs)
	if m.Tag != 2 || si != 0 {
		t.Fatalf("got tag %d via spec %d, want tag 2 via spec 0", m.Tag, si)
	}
}

// testMatchTie: when one message satisfies several specs, the lowest spec
// index is reported.
func testMatchTie(t *testing.T, c *cluster) {
	c.tr(1).Send(0, msg(1, 5, 0))
	specs := []mpi.RecvSpec{{Source: mpi.AnySource, Tag: 5}, {Source: 1, Tag: 5}}
	si, m := c.tr(0).Await(0, specs)
	if si != 0 || m.Tag != 5 {
		t.Fatalf("tie broke to spec %d (tag %d), want spec 0", si, m.Tag)
	}
}

// testProbePollPending: Probe observes without removing, Poll never blocks,
// and Pending/PendingApp distinguish application from control traffic.
func testProbePollPending(t *testing.T, c *cluster) {
	if si, m := c.tr(0).Poll(0, []mpi.RecvSpec{{Source: mpi.AnySource, Tag: mpi.AnyTag}}); m != nil || si != -1 {
		t.Fatalf("Poll on empty mailbox returned (%d, %v)", si, m)
	}
	c.tr(1).Send(0, msg(1, 3, 1))
	c.tr(1).Send(0, msg(1, -11, 2)) // reserved/control tag
	waitPending(t, c.tr(0), 0, 2)
	if ok, m := c.tr(0).Probe(0, mpi.RecvSpec{Source: 1, Tag: 3}); !ok || m == nil {
		t.Fatal("Probe missed a queued message")
	}
	if got := c.tr(0).Pending(0); got != 2 {
		t.Fatalf("Pending = %d after Probe, want 2 (Probe must not remove)", got)
	}
	if got := c.tr(0).PendingApp(0, 0); got != 1 {
		t.Fatalf("PendingApp = %d, want 1 (control tag excluded)", got)
	}
	if si, m := c.tr(0).Poll(0, []mpi.RecvSpec{{Source: 1, Tag: 3}}); m == nil || si != 0 {
		t.Fatal("Poll missed the queued application message")
	}
	if got := c.tr(0).Pending(0); got != 1 {
		t.Fatalf("Pending = %d after Poll, want 1", got)
	}
}

// testInterrupt: AwaitCond re-evaluates its condition when Interrupt runs,
// and returns (-1, nil) once it holds.
func testInterrupt(t *testing.T, c *cluster) {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		si, m := c.tr(0).AwaitCond(0, []mpi.RecvSpec{{Source: 1, Tag: 99}}, stop.Load)
		if si != -1 || m != nil {
			t.Errorf("AwaitCond returned (%d, %v), want (-1, nil)", si, m)
		}
	}()
	time.Sleep(20 * time.Millisecond) // let it park
	stop.Store(true)
	c.tr(0).Interrupt()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Interrupt did not wake AwaitCond")
	}
}

// testWorldDead: a blocked Await panics with ErrWorldDead once the world is
// shut down, and subsequent non-blocking calls panic too.
func testWorldDead(t *testing.T, c *cluster) {
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		c.tr(0).Await(0, []mpi.RecvSpec{{Source: 1, Tag: 42}})
		got <- nil
	}()
	time.Sleep(20 * time.Millisecond) // let it block
	c.world(0).Shutdown()
	select {
	case p := <-got:
		if p != mpi.ErrWorldDead {
			t.Fatalf("blocked Await panicked with %v, want ErrWorldDead", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not wake the blocked Await")
	}
	func() {
		defer func() {
			if p := recover(); p != mpi.ErrWorldDead {
				t.Fatalf("Poll after Shutdown panicked with %v, want ErrWorldDead", p)
			}
		}()
		c.tr(0).Poll(0, []mpi.RecvSpec{{Source: 1, Tag: 42}})
		t.Fatal("Poll after Shutdown did not panic")
	}()
}

// waitPending blocks until rank's mailbox holds want messages (remote
// delivery is asynchronous on the TCP substrate).
func waitPending(t *testing.T, tr mpi.Transport, rank, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Pending(rank) < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d messages arrived", tr.Pending(rank), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPSendHdrHeaderSurvivesWire pins the two-segment wire format across
// the socket: the 32-bit out-of-band header word must arrive intact.
func TestTCPSendHdrHeaderSurvivesWire(t *testing.T) {
	t.Parallel()
	cl := buildTCP(t, 2)
	defer cl.close()
	m := msg(1, 4, 77)
	m.Header = 0xCAFEBABE
	cl.tr(1).Send(0, m)
	_, got := cl.tr(0).Await(0, []mpi.RecvSpec{{Source: 1, Tag: 4}})
	if got.Header != 0xCAFEBABE {
		t.Fatalf("header word %#x, want %#x", got.Header, 0xCAFEBABE)
	}
	if seqOf(t, got) != 77 {
		t.Fatalf("payload seq %d, want 77", seqOf(t, got))
	}
}

// TestTCPCollectiveWordSurvivesWire: a collective's control word travels in
// the header slot of its own internal messages, so over sockets it is the
// frame codec that carries it. Three ranks take the gather-and-broadcast
// path, four the butterfly; every rank must get back every rank's bit.
func TestTCPCollectiveWordSurvivesWire(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 4} {
		cl := buildTCP(t, n)
		got := make([]uint32, n)
		sums := make([]float64, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c := cl.world(r).Comm(r)
				in := mpi.F64Bytes([]float64{float64(r + 1)})
				out := make([]byte, len(in))
				got[r] = c.AllreduceInto(out, in, mpi.SumF64, 1<<uint(8*r))
				sums[r] = mpi.BytesF64(out)[0]
			}(r)
		}
		wg.Wait()
		cl.close()
		var want uint32
		for r := 0; r < n; r++ {
			want |= 1 << uint(8*r)
		}
		for r := 0; r < n; r++ {
			if got[r] != want || sums[r] != float64(n*(n+1)/2) {
				t.Fatalf("%d ranks over TCP: rank %d got word %#x and sum %v, want %#x and %d", n, r, got[r], sums[r], want, n*(n+1)/2)
			}
		}
	}
}

// TestTCPPeerDeathShutsDownWorld pins the failure path: when a peer's
// connection resets without a done announcement, the survivor's world is
// shut down and blocked operations raise ErrWorldDead.
func TestTCPPeerDeathShutsDownWorld(t *testing.T) {
	t.Parallel()
	cl := buildTCP(t, 2)
	defer cl.close()
	// Ensure the mesh is up before severing it.
	cl.tr(1).Send(0, msg(1, 1, 0))
	_, _ = cl.tr(0).Await(0, []mpi.RecvSpec{{Source: 1, Tag: 1}})

	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		cl.tr(0).Await(0, []mpi.RecvSpec{{Source: 1, Tag: 9}})
		got <- nil
	}()
	time.Sleep(20 * time.Millisecond)
	// Rank 1 "dies": its transport closes every socket with no done frame.
	// Closing via the transport marks rank 1's own side benign, but rank 0
	// must interpret the reset as a peer death.
	cl.tr(1).(*tcptransport.Transport).Close()
	select {
	case p := <-got:
		if p != mpi.ErrWorldDead {
			t.Fatalf("survivor's Await panicked with %v, want ErrWorldDead", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer death did not shut down the survivor's world")
	}
	if !cl.world(0).Dead() {
		t.Fatal("survivor world not marked dead")
	}
	if !cl.world(0).Killed(1) {
		t.Fatal("survivor did not record peer 1 as killed")
	}
}

// TestTCPDoneMakesCloseBenign pins the clean-completion path: after every
// rank announces done, connection teardown must not be read as a failure.
func TestTCPDoneMakesCloseBenign(t *testing.T) {
	t.Parallel()
	cl := buildTCP(t, 2)
	defer cl.close()
	t0 := cl.tr(0).(*tcptransport.Transport)
	t1 := cl.tr(1).(*tcptransport.Transport)
	var doneAnnounced [2]chan struct{}
	for i, tt := range []*tcptransport.Transport{t0, t1} {
		doneAnnounced[i] = make(chan struct{})
		go func(tt *tcptransport.Transport, ch chan struct{}) {
			tt.AnnounceDone()
			close(ch)
		}(tt, doneAnnounced[i])
	}
	<-doneAnnounced[0]
	<-doneAnnounced[1]
	waitAllDone(t, t0)
	waitAllDone(t, t1)
	t1.Close()
	time.Sleep(100 * time.Millisecond) // give rank 0 time to observe the close
	if cl.world(0).Dead() {
		t.Fatal("clean close after done was treated as a failure")
	}
}

// TestTCPDonePeerKeepsReceivingHeartbeats pins the done/suspicion split:
// after rank 1 announces done, rank 0 must keep beaconing it — a done rank
// is still alive (parked in control service until every rank finishes) and
// still suspects its working peers, so if the beacons dried up a quiet but
// healthy rank 0 would be falsely declared dead and the whole incarnation
// rolled back.
func TestTCPDonePeerKeepsReceivingHeartbeats(t *testing.T) {
	t.Parallel()
	const n = 2
	addrs := make([]string, n)
	_, lookup := tcptransport.StaticRendezvous(addrs)
	publish := func(int, string) error { return nil }
	ts := make([]*tcptransport.Transport, n)
	for i := 0; i < n; i++ {
		tt, err := tcptransport.New(tcptransport.Config{
			Rank: i, Size: n,
			Publish: publish, Lookup: lookup,
			HeartbeatPeriod: 50 * time.Millisecond,
			SuspectTimeout:  400 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("tcptransport.New(rank %d): %v", i, err)
		}
		ts[i] = tt
		addrs[i] = tt.Addr()
	}
	worlds := make([]*mpi.World, n)
	for i := 0; i < n; i++ {
		worlds[i] = mpi.NewWorld(n, mpi.Options{NewTransport: ts[i].Attach})
	}
	for i := 0; i < n; i++ {
		if err := ts[i].Start(); err != nil {
			t.Fatalf("Start(rank %d): %v", i, err)
		}
	}
	defer func() {
		for _, tt := range ts {
			tt.Close()
		}
	}()
	// Form the mesh before rank 1 finishes.
	ts[1].Send(0, msg(1, 1, 0))
	_, _ = ts[0].Await(0, []mpi.RecvSpec{{Source: 1, Tag: 1}})
	ts[1].AnnounceDone()
	// Rank 0 keeps working in silence for several suspicion windows. If
	// rank 0 stopped heartbeating the done rank 1, rank 1 would suspect it
	// and shut its world down.
	time.Sleep(3 * 400 * time.Millisecond)
	if worlds[1].Dead() {
		t.Fatal("done rank declared its silent-but-alive peer dead")
	}
	if worlds[0].Dead() {
		t.Fatal("working rank's world died during a fault-free quiet period")
	}
	// The done rank must still accept late traffic from working peers.
	ts[0].Send(1, msg(0, 2, 7))
	_, m := ts[1].Await(1, []mpi.RecvSpec{{Source: 0, Tag: 2}})
	if seqOf(t, m) != 7 {
		t.Fatalf("late message to done rank corrupted: seq %d, want 7", seqOf(t, m))
	}
}

func waitAllDone(t *testing.T, tt *tcptransport.Transport) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !tt.AllDone() {
		if time.Now().After(deadline) {
			t.Fatal("AllDone never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPCancelWakesSendDuringMeshFormation: a Send parked until its peer's
// connection comes up is a blocked operation like any other, so canceling
// the world ends it with ErrCanceled — the launch worker relies on this
// when the launcher aborts an incarnation whose mesh is still forming.
func TestTCPCancelWakesSendDuringMeshFormation(t *testing.T) {
	t.Parallel()
	publish, lookup := tcptransport.StaticRendezvous(make([]string, 2))
	tr, err := tcptransport.New(tcptransport.Config{Rank: 0, Size: 2, Publish: publish, Lookup: lookup})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	world := mpi.NewWorld(2, mpi.Options{NewTransport: tr.Attach})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		tr.Send(1, msg(0, 1, 0)) // rank 1 dials rank 0, and never will
		got <- nil
	}()
	time.Sleep(20 * time.Millisecond) // let it park
	world.Cancel()
	select {
	case p := <-got:
		if p != mpi.ErrCanceled {
			t.Fatalf("parked Send ended with %v, want ErrCanceled", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not wake the Send parked on mesh formation")
	}
}

// helloAsRank1 starts rank 0 of a 2-rank TCP world and connects to it as
// rank 1 over a raw socket, hello done, for a test to write frames of its
// own. broken receives the transport's "presumed dead" report.
func helloAsRank1(t *testing.T) (tr *tcptransport.Transport, world *mpi.World, c net.Conn, broken chan string) {
	publish, lookup := tcptransport.StaticRendezvous(make([]string, 2))
	broken = make(chan string, 1)
	tr, err := tcptransport.New(tcptransport.Config{Rank: 0, Size: 2, Publish: publish, Lookup: lookup,
		Logf: func(format string, args ...any) {
			if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "presumed dead") {
				select {
				case broken <- msg:
				default:
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	world = mpi.NewWorld(2, mpi.Options{NewTransport: tr.Attach})
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	if c, err = net.Dial("tcp", tr.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	hello := []byte{5, 0, 0, 0, 1} // [u32 length | type hello] and rank 1
	hello = binary.LittleEndian.AppendUint32(hello, 1)
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	return tr, world, c, broken
}

// awaitBroken waits for the transport to report its peer dead and then
// for the world to be shut down with peer 1 recorded as killed.
func awaitBroken(t *testing.T, world *mpi.World, broken chan string) {
	select {
	case msg := <-broken:
		t.Log(msg)
	case <-time.After(10 * time.Second):
		t.Fatal("the broken connection was not reported")
	}
	for deadline := time.Now().Add(5 * time.Second); !world.Dead() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond) // the report precedes the shutdown
	}
	if !world.Dead() || !world.Killed(1) {
		t.Fatalf("world dead %v, peer 1 killed %v; want the broken connection to shut the world down", world.Dead(), world.Killed(1))
	}
}

// TestTCPFrameLengthIsNotTrusted: a frame's length word is a claim, not an
// allocation size. A peer that completes the hello, claims a 1 GiB frame
// and hangs up is a broken connection — the world is shut down and the
// peer recorded as killed — and the transport allocates no more than the
// bytes that arrived on the way. (Not parallel: it measures the process's
// allocations.)
func TestTCPFrameLengthIsNotTrusted(t *testing.T) {
	_, world, c, broken := helloAsRank1(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := c.Write(binary.LittleEndian.AppendUint32(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	awaitBroken(t, world, broken)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a 4-byte claim of 1 GiB allocated %d bytes", grew)
	}
}

// TestTCPFrameSourceIsItsPeer: on a connection to rank 1, a well-formed
// message frame that names rank 7 as its source is corrupt — a message's
// source is the rank that sent it, and the protocol indexes per-peer state
// by it. It breaks the connection as a bad length does, and is never
// delivered.
func TestTCPFrameSourceIsItsPeer(t *testing.T) {
	tr, world, c, broken := helloAsRank1(t)
	body := mpi.AppendMessage([]byte{0, 0, 0, 0, 2}, &mpi.Message{Source: 7, Tag: 1, Data: []byte("forged")}) // [u32 length | type message]
	binary.LittleEndian.PutUint32(body, uint32(len(body)-4))
	if _, err := c.Write(body); err != nil {
		t.Fatal(err)
	}
	awaitBroken(t, world, broken)
	if n := tr.Pending(0); n != 0 {
		t.Fatalf("%d messages delivered from a frame naming another rank as its source", n)
	}
}
