package mpi

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Message is an application-visible message as delivered by Recv or Select.
type Message struct {
	// Source is the sender's rank.
	Source int
	// Tag is the application tag the message was sent with.
	Tag int
	// Header is a fixed 32-bit out-of-band control word carried next to
	// the payload — the second segment of the two-segment wire format. The
	// protocol layer packs its piggyback here, which is what makes
	// piggyback attachment zero-copy: the payload is never re-allocated to
	// prepend control bytes. Zero for plain sends.
	Header uint32
	// Data is the payload. The receiver owns it.
	Data []byte

	// recyclable marks a message that owns its payload outright (sendh's
	// copy, a decoded frame) and has not been handed back: the only kind
	// World.Release accepts.
	recyclable bool
}

// RecvSpec describes what a receive is willing to match.
type RecvSpec struct {
	Source int // rank, or AnySource
	Tag    int // tag, or AnyTag
}

// matches reports whether the spec accepts m.
func (s RecvSpec) matches(m *Message) bool {
	if s.Source != AnySource && s.Source != m.Source {
		return false
	}
	// AnyTag stands for any application tag. The reserved (negative) tags —
	// collectives, the protocol layer's control traffic, a rank's own task
	// events — match by name only: a wildcard receive must not swallow them.
	return s.Tag == m.Tag || s.Tag == AnyTag && m.Tag >= 0
}

// node is one queued message. Embedded links make removal O(1) in both the
// delivery-ordered master list and the exact-match bucket; nodes are
// recycled through a per-mailbox freelist, as messages are through their
// world's (World.Release), so the steady state allocates nothing.
type node struct {
	m   *Message
	key uint64 // master-order key: an arrival counter, so list order == key order

	prev, next   *node // master (delivery-order) list
	bprev, bnext *node // bucket list
	bkt          *bucket
}

// bucket is the FIFO of queued messages sharing one exact (tag, source)
// pair. Delivery only appends, so appending at the tail keeps
// the bucket sorted by master order and the head is always the earliest
// match.
type bucket struct {
	bk         bucketKey
	tb         *tagBuckets
	head, tail *node
}

type bucketKey struct {
	source int
	tag    int
}

// tagBuckets is the per-tag index: one bucket per source, a count
// of queued indexed nodes across all of them, and a lazy min-heap of
// bucket heads ordered by master key. The heap makes the AnySource match
// amortized O(log sources) per consumed message: the previous design
// cached the earliest node and rescanned the whole source map whenever
// the cached node was consumed, which is O(sources) per message — at
// 1000 ranks that rescan (one per gathered message at the collective
// root) dominated whole-run profiles. Heap entries are lazy: a bucket is
// pushed with its head's key whenever it gains a new head, and an entry
// is discarded on peek if the bucket's head no longer matches it, so no
// decrease-key is ever needed and total heap work is bounded by total
// messages indexed.
type tagBuckets struct {
	srcs map[int]*bucket
	live int
	heap []headEntry
}

// headEntry is one lazy heap entry: bkt claimed to have a head with this
// master key when pushed. Valid iff bkt.head still has exactly that key.
type headEntry struct {
	key uint64
	bkt *bucket
}

// pushHead registers bkt's current head in the lazy heap (mailbox mu held).
func (tb *tagBuckets) pushHead(bkt *bucket) {
	tb.heap = append(tb.heap, headEntry{key: bkt.head.key, bkt: bkt})
	for i := len(tb.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if tb.heap[parent].key <= tb.heap[i].key {
			break
		}
		tb.heap[parent], tb.heap[i] = tb.heap[i], tb.heap[parent]
		i = parent
	}
}

// popHead removes the root entry (mailbox mu held).
func (tb *tagBuckets) popHead() {
	last := len(tb.heap) - 1
	tb.heap[0] = tb.heap[last]
	tb.heap = tb.heap[:last]
	tb.down(0)
}

// down sifts the entry at i down to its place (mailbox mu held).
func (tb *tagBuckets) down(i int) {
	for n := len(tb.heap); ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && tb.heap[l].key < tb.heap[small].key {
			small = l
		}
		if r < n && tb.heap[r].key < tb.heap[small].key {
			small = r
		}
		if small == i {
			return
		}
		tb.heap[small], tb.heap[i] = tb.heap[i], tb.heap[small]
		i = small
	}
}

// dropEmpty removes every heap entry of a bucket with no head — all stale —
// so that no entry refers to a bucket the sweep recycles (mailbox mu held).
func (tb *tagBuckets) dropEmpty() {
	kept := tb.heap[:0]
	for _, e := range tb.heap {
		if e.bkt.head != nil {
			kept = append(kept, e)
		}
	}
	clear(tb.heap[len(kept):])
	tb.heap = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		tb.down(i)
	}
}

// mailbox holds the arrived-but-unmatched messages of one rank. Matching
// follows delivery order, so two messages with the same (source, tag) are
// received in arrival order, while tag matching lets the application
// receive messages out of order — the non-FIFO property of Section 3.3.
//
// Receives with fully-specified specs (no wildcards, or only a source
// wildcard) resolve through the bucket indexes in O(specs) instead of
// O(queue × specs); AnyTag receives keep the ordered master-list scan so
// wildcard semantics are preserved byte for byte.
type mailbox struct {
	world *World
	mu    sync.Mutex
	cond  *sync.Cond

	head, tail *node
	count      int

	// The bucket indexes are built lazily: nodes are linked into their
	// buckets only once a matching call actually needs the indexed path
	// (queue longer than scanThreshold). Light traffic therefore never
	// touches the maps at all. `indexed` counts bucket-linked nodes;
	// bucket order always mirrors master order because delivery only
	// appends.
	indexed int
	exact   map[bucketKey]*bucket // (tag, source) -> FIFO
	byTag   map[int]*tagBuckets   // tag -> per-source index
	free    *node                 // recycled nodes

	// Emptied buckets stay registered so ping-pong traffic on one (tag,
	// source) pair reuses its bucket instead of re-allocating it
	// every round trip; a sweep reclaims them once they clearly dominate
	// (amortized O(1) per message, bounding the map size by live traffic)
	// and keeps what it reclaimed for the next new pair — every collective
	// round uses a fresh tag — as the free list keeps nodes.
	emptyBuckets int
	freeBuckets  []*bucket
	freeTags     []*tagBuckets

	// The wait discipline (see wait): wake is bumped by every deliver and
	// every interrupt, so a receiver spinning outside the lock learns of
	// either from one load; gate decides, from what this mailbox's own
	// spins came to, whether the next wait spins at all; parks counts
	// cond.Wait calls. spinHook, when set, runs once inside each spin's unlocked
	// window (tests place an event there).
	wake     atomic.Uint64
	gate     spinGate
	parks    uint64
	spinHook func()
}

func newMailbox(w *World) *mailbox {
	b := &mailbox{
		world: w,
		exact: make(map[bucketKey]*bucket),
		byTag: make(map[int]*tagBuckets),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) newNode(m *Message) *node {
	n := b.free
	if n == nil {
		n = &node{}
	} else {
		b.free = n.next
		*n = node{}
	}
	n.m = m
	return n
}

func (b *mailbox) freeNode(n *node) {
	*n = node{next: b.free}
	b.free = n
}

// deliver appends a message and wakes waiting receivers.
func (b *mailbox) deliver(m *Message) {
	b.mu.Lock()
	n := b.newNode(m)
	n.key = 1
	if b.tail == nil {
		b.head = n
	} else {
		n.key = b.tail.key + 1
		n.prev = b.tail
		b.tail.next = n
	}
	b.tail = n
	b.count++
	// While the bucket indexes are live (every queued node is linked),
	// index the arrival immediately, so the indexed match path stays
	// O(specs) instead of rescanning the master list per receive. Once the
	// indexes drain to empty the lazy path takes over again, so light
	// traffic still never touches the maps.
	if b.indexed > 0 && b.indexed == b.count-1 {
		b.bucketAppend(n)
	}
	b.wake.Add(1)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// interrupt ends every receiver's spin or park so that it re-observes
// world-death and its stop condition.
func (b *mailbox) interrupt() {
	b.wake.Add(1)
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// bucketAppend registers n at the tail of its (tag, source) bucket.
// Appending is always correct: nodes are indexed in master order, so
// bucket order mirrors it.
func (b *mailbox) bucketAppend(n *node) {
	bk := bucketKey{source: n.m.Source, tag: n.m.Tag}
	bkt := b.exact[bk]
	if bkt == nil {
		if n := len(b.freeBuckets); n > 0 {
			bkt, b.freeBuckets = b.freeBuckets[n-1], b.freeBuckets[:n-1]
			*bkt = bucket{bk: bk}
		} else {
			bkt = &bucket{bk: bk}
		}
		b.exact[bk] = bkt
		tb := b.byTag[bk.tag]
		if tb == nil {
			if n := len(b.freeTags); n > 0 {
				tb, b.freeTags = b.freeTags[n-1], b.freeTags[:n-1]
			} else {
				tb = &tagBuckets{srcs: make(map[int]*bucket)}
			}
			b.byTag[bk.tag] = tb
		}
		tb.srcs[bk.source] = bkt
		bkt.tb = tb
	} else if bkt.head == nil {
		b.emptyBuckets--
	}
	tb := bkt.tb
	tb.live++
	b.indexed++
	n.bkt = bkt
	if bkt.tail == nil {
		bkt.head, bkt.tail = n, n
		tb.pushHead(bkt) // bucket gained a head: make it findable
		return
	}
	n.bprev = bkt.tail
	bkt.tail.bnext = n
	bkt.tail = n
}

// remove unlinks n from the master list and its bucket and recycles it.
func (b *mailbox) remove(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	if bkt := n.bkt; bkt != nil {
		b.indexed--
		bkt.tb.live--
		wasHead := n.bprev == nil
		if n.bprev != nil {
			n.bprev.bnext = n.bnext
		} else {
			bkt.head = n.bnext
		}
		if n.bnext != nil {
			n.bnext.bprev = n.bprev
		} else {
			bkt.tail = n.bprev
		}
		if wasHead && bkt.head != nil {
			// The bucket's head changed: its old heap entry is now stale
			// (discarded lazily on the next peek) and the new head needs one.
			bkt.tb.pushHead(bkt)
		}
		if bkt.head == nil {
			b.emptyBuckets++
			if b.emptyBuckets > 32 && b.emptyBuckets > 2*b.count {
				b.sweepEmptyBuckets()
			}
		}
	}
	b.count--
	b.freeNode(n)
}

// sweepEmptyBuckets drops every cached-empty bucket from both indexes and
// puts it, and every per-tag index left with no bucket, on the free lists.
// Triggered when empties outnumber live traffic, so the collective tag
// space (a fresh tag per collective round) cannot grow the maps without
// bound.
func (b *mailbox) sweepEmptyBuckets() {
	for bk, bkt := range b.exact {
		if bkt.head != nil {
			continue
		}
		delete(b.exact, bk)
		delete(bkt.tb.srcs, bk.source)
		b.freeBuckets = append(b.freeBuckets, bkt)
	}
	for tag, tb := range b.byTag {
		if len(tb.srcs) == 0 {
			delete(b.byTag, tag)
			clear(tb.heap)
			tb.heap, tb.live = tb.heap[:0], 0
			b.freeTags = append(b.freeTags, tb)
		} else {
			tb.dropEmpty()
		}
	}
	b.emptyBuckets = 0
}

// scanThreshold is the queue length below which the ordered linear scan
// beats the bucket lookups; both paths implement identical semantics.
const scanThreshold = 4

// tryMatch removes and returns the message earliest in delivery order that
// matches any spec, along with the index of the spec that matched (ties
// between specs go to the lowest index, as the ordered scan would).
func (b *mailbox) tryMatch(specs []RecvSpec) (int, *Message) {
	if b.count <= scanThreshold {
		return b.scanMatch(specs)
	}
	for _, s := range specs {
		if s.Tag == AnyTag {
			return b.scanMatch(specs)
		}
	}
	b.ensureIndexed()
	var best *node
	bestSpec := -1
	for si := range specs {
		s := &specs[si]
		var cand *node
		if s.Source == AnySource {
			cand = b.minFor(b.byTag[s.Tag])
		} else if bkt := b.exact[bucketKey{source: s.Source, tag: s.Tag}]; bkt != nil {
			cand = bkt.head
		}
		if cand != nil && (best == nil || cand.key < best.key) {
			best = cand
			bestSpec = si
		}
	}
	if best == nil {
		return -1, nil
	}
	m := best.m
	b.remove(best)
	return bestSpec, m
}

// minFor returns the earliest queued node of a tag's index: the
// first valid entry of the lazy heap, discarding stale entries whose
// bucket head moved on or drained (mu held).
func (b *mailbox) minFor(tb *tagBuckets) *node {
	if tb == nil || tb.live == 0 {
		return nil
	}
	for len(tb.heap) > 0 {
		e := tb.heap[0]
		if h := e.bkt.head; h != nil && h.key == e.key {
			return h
		}
		tb.popHead()
	}
	return nil
}

// scanMatch is the ordered fallback for wildcard-tag receives: walk the
// master list in delivery order and take the first message any spec
// accepts — the exact semantics the pre-index mailbox had.
func (b *mailbox) scanMatch(specs []RecvSpec) (int, *Message) {
	for q := b.head; q != nil; q = q.next {
		for si := range specs {
			if specs[si].matches(q.m) {
				m := q.m
				b.remove(q)
				return si, m
			}
		}
	}
	return -1, nil
}

// spinBudget bounds one spin in wall time: about what a park and its
// wake-up cost the pair of ranks, the point past which waiting awake can no
// longer be the cheaper way to wait. Swept on the two lock-step workloads
// (2 vCPUs): 5 µs recovers almost nothing of what parking costs them, 20 µs
// about two thirds, 50 µs all of it, 100 µs no more.
const spinBudget = 50 * time.Microsecond

// A spinGate says whether a wait that found nothing may spin before it
// parks, from what this mailbox's recent spins came to. It keeps a balance:
// a spin that ended in a park adds one (up to gateMisses), a spin that
// spared the park pays one back. At gateMisses the gate is closed and lets
// only every gateProbe-th wait try again; one such probe that pays off
// reopens it, and the next miss closes it again. A mailbox fed over a
// socket, a finished rank waiting for the world to end and an oversubscribed
// world thereby park as they did before spinning existed, without anyone
// having to say which they are. Paying back one for one, rather than
// forgetting every miss at the first hit, is for the mailbox between the
// two kinds: over TCP about every other probe finds its frame inside the
// budget, and a gate that took each such hit for a change of regime spent
// four more budgets finding out — of CPU the sending process wanted.
type spinGate struct {
	misses int // spins that ended in a park, less those that did not; 0..gateMisses
	waits  int // waits let through to the park since the gate closed or last probed
}

const (
	gateMisses = 4
	gateProbe  = 16
)

// allow reports whether the wait now at its park point may spin first.
func (g *spinGate) allow() bool {
	if g.misses < gateMisses {
		return true
	}
	if g.waits++; g.waits < gateProbe {
		return false
	}
	g.waits = 0
	return true
}

// record takes the outcome of a spin that allow let through: hit when it
// spared the wait its park.
func (g *spinGate) record(hit bool) {
	switch {
	case hit && g.misses > 0:
		g.misses--
		g.waits = 0
	case !hit && g.misses < gateMisses:
		g.misses++
	}
}

// wait blocks until a message matching one of specs arrives, removing and
// returning it, or — with a stop condition — until stop() reports true, when
// it returns (-1, nil). It panics with the halt sentinel if the world is
// canceled or shut down while waiting.
//
// It is the one wait discipline. A receive that finds nothing is, in a
// lock-step program, usually a few microseconds ahead of its sender, and
// parking costs more than that: a futex wake of an idle P and the
// scheduler's hand-off delay, on every message. So before its first park the
// receiver drops the lock and yields for up to spinBudget, watching the
// wake sequence, then takes the lock again and runs the whole of ready —
// halt, match, stop — before it may park: whatever happened in the unlocked
// window (a delivery, an interrupt with stop now true, a shutdown) is seen
// there, so nothing is lost by having looked away.
func (b *mailbox) wait(specs []RecvSpec, stop func() bool) (int, *Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	si, m, done := b.ready(specs, stop)
	if !done && b.gate.allow() {
		seq := b.wake.Load()
		b.mu.Unlock()
		b.spin(seq)
		b.mu.Lock()
		si, m, done = b.ready(specs, stop)
		b.gate.record(done)
	}
	for !done {
		b.parks++
		b.cond.Wait()
		si, m, done = b.ready(specs, stop)
	}
	return si, m
}

// ready is what a waiter evaluates, under mu, every time before it parks
// and after it wakes: the halt panic, then the match, then stop. done means
// the wait is over, with (-1, nil) when it was stop that ended it.
func (b *mailbox) ready(specs []RecvSpec, stop func() bool) (si int, m *Message, done bool) {
	b.world.raiseIfHalted()
	si, m = b.tryMatch(specs)
	return si, m, m != nil || stop != nil && stop()
}

// spin yields until the wake sequence moves on from seq or spinBudget has
// passed (mu not held). Yielding, not busy-waiting: with one P the sender
// needs this one to run at all, and a flush task or a socket reader is
// never kept off it.
func (b *mailbox) spin(seq uint64) {
	if b.spinHook != nil {
		b.spinHook()
	}
	for start := time.Now(); b.wake.Load() == seq && time.Since(start) < spinBudget; {
		runtime.Gosched()
	}
}

// poll attempts a non-blocking match.
func (b *mailbox) poll(specs []RecvSpec) (int, *Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.world.raiseIfHalted()
	return b.tryMatch(specs)
}

// probe reports whether a matching message is queued, without removing it.
func (b *mailbox) probe(spec RecvSpec) (bool, *Message) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.world.raiseIfHalted()
	if spec.Tag == AnyTag || b.count <= scanThreshold {
		for q := b.head; q != nil; q = q.next {
			if spec.matches(q.m) {
				return true, q.m
			}
		}
		return false, nil
	}
	b.ensureIndexed()
	var cand *node
	if spec.Source == AnySource {
		cand = b.minFor(b.byTag[spec.Tag])
	} else if bkt := b.exact[bucketKey{source: spec.Source, tag: spec.Tag}]; bkt != nil {
		cand = bkt.head
	}
	if cand == nil {
		return false, nil
	}
	return true, cand.m
}

// pending reports the number of queued messages (diagnostics/tests).
func (b *mailbox) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// pendingApp reports the number of queued application messages (tag >= 0),
// excluding internal collective and control traffic.
func (b *mailbox) pendingApp() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for q := b.head; q != nil; q = q.next {
		if q.m.Tag >= 0 {
			n++
		}
	}
	return n
}

// ensureIndexed links every not-yet-indexed node into its bucket. Walking
// head to tail keeps each bucket sorted by master order (see the mailbox
// doc comment for why an unindexed node can never precede an indexed
// bucket-mate).
func (b *mailbox) ensureIndexed() {
	if b.indexed == b.count {
		return
	}
	for q := b.head; q != nil; q = q.next {
		if q.bkt == nil {
			b.bucketAppend(q)
		}
	}
}
