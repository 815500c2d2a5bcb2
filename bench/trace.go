package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// A span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers around the seams the engine exposes — never
// from inside the program. Parent is an index into the recorder's span
// list, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Rank    int    `json:"rank"`
	Epoch   int    `json:"epoch"` // -1 when the call carries none
	Run     string `json:"run"`
}

// maxMpiSpans bounds the mpi spans kept per traced run: a neurosys run
// makes a few hundred thousand transport calls, and the counters (which
// see every call) carry the metrics; the spans are for reading one
// checkpoint's neighbourhood in a trace viewer.
const maxMpiSpans = 20000

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	run string

	mu       sync.Mutex
	spans    []span
	mpiSpans int
}

func newRecorder(run string) *recorder { return &recorder{run: run} }

func (r *recorder) add(s span) {
	s.Run = r.run
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.Layer == "mpi" {
		if r.mpiSpans >= maxMpiSpans {
			return
		}
		r.mpiSpans++
	}
	r.spans = append(r.spans, s)
}

// epochOfKey extracts the epoch and rank a store key carries
// ("ckpt/00000003/state.0001" -> 3, 1); ok is false for keys without an
// epoch directory (content-addressed chunks, the commit record).
func epochOfKey(key string) (epoch, rank int, ok bool) {
	rest, found := strings.CutPrefix(key, "ckpt/")
	if !found || len(rest) < 9 || rest[8] != '/' {
		return -1, -1, false
	}
	e, err := strconv.Atoi(rest[:8])
	if err != nil {
		return -1, -1, false
	}
	rank = -1
	if i := strings.LastIndexByte(rest, '.'); i > 8 {
		if n, err := strconv.Atoi(rest[i+1:]); err == nil {
			rank = n
		}
	}
	return e, rank, true
}

// assignParents builds the span tree after the run: the run span is the
// root, checkpoint spans hang off it, and every other span is parented by
// the checkpoint whose epoch (and rank, when the key names one) its store
// key carries, else by a checkpoint whose interval contains its start,
// else by the run span. spans[0] must be the run span.
func assignParents(spans []span) {
	type ck struct{ rank, epoch int }
	byKey := map[ck]int{}
	var ckpts []int
	for i := range spans {
		if spans[i].Name == "checkpoint" {
			byKey[ck{spans[i].Rank, spans[i].Epoch}] = i
			ckpts = append(ckpts, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case i == 0:
			s.Parent = -1
		case s.Name == "checkpoint" || s.Layer == "recovery":
			s.Parent = 0
		default:
			s.Parent = 0
			if s.Epoch >= 0 {
				if p, ok := byKey[ck{s.Rank, s.Epoch}]; ok {
					s.Parent = p
					continue
				}
			}
			if s.Layer != "storage" {
				continue
			}
			for _, p := range ckpts {
				c := spans[p]
				if s.StartNs >= c.StartNs && s.StartNs < c.EndNs && (s.Epoch < 0 || s.Epoch == c.Epoch) {
					s.Parent = p
					break
				}
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (overlapping children are merged first,
// and children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		a, b := max(s.StartNs, p.StartNs), min(s.EndNs, p.EndNs)
		if b > a {
			kids[s.Parent] = append(kids[s.Parent], iv{a, b})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := int64(0), int64(-1<<62)
		for _, v := range ivs {
			if v.a > end {
				covered += v.b - v.a
				end = v.b
			} else if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[i] = (s.EndNs - s.StartNs) - covered
	}
	return out
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Layer] += float64(ns) / 1e6
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microseconds), loadable in Perfetto or chrome://tracing. One
// process per run, one thread per rank; self time and the parent index
// ride in args.
func writeChromeTrace(path string, runs [][]span) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var evs []ev
	for pid, spans := range runs {
		if len(spans) == 0 {
			continue
		}
		t0 := spans[0].StartNs
		self := selfTimes(spans)
		for i, s := range spans {
			evs = append(evs, ev{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				Ts: float64(s.StartNs-t0) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
				Pid: pid + 1, Tid: s.Rank + 1,
				Args: map[string]any{"run": s.Run, "epoch": s.Epoch, "parent": s.Parent, "id": i,
					"self_us": float64(self[i]) / 1e3},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- storage wrapper ---

// storeCounters are the storage layer's numbers as seen at the Stable
// interface: work done (calls, bytes), time busy, and the dedup probe's
// useful-outcome ratio.
type storeCounters struct {
	Puts, PutBytes, PutNs    int64
	Gets, GetBytes, GetNs    int64
	Has, HasHits, HasNs      int64
	Lists, ListNs            int64
	Deletes, DeleteNs        int64
	readsSinceMark, markOpen int64 // recovery read window, see markReads
}

// tracedStore delegates to a Stable and counts and times every call; with
// a recorder it also keeps one span per call. Counters are atomics: the
// flusher, the chunk workers and every rank share one store in-process.
type tracedStore struct {
	inner storage.Stable
	rec   *recorder // nil: counters only
	c     storeCounters
}

func newTracedStore(inner storage.Stable, rec *recorder) *tracedStore {
	return &tracedStore{inner: inner, rec: rec}
}

func (t *tracedStore) span(name, key string, start time.Time) int64 {
	end := time.Now()
	if t.rec != nil {
		epoch, rank, _ := epochOfKey(key)
		t.rec.add(span{Name: name, Layer: "storage", StartNs: start.UnixNano(), EndNs: end.UnixNano(),
			Rank: max(rank, 0), Epoch: epoch})
	}
	return end.Sub(start).Nanoseconds()
}

func (t *tracedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := t.inner.Put(key, data)
	atomic.AddInt64(&t.c.PutNs, t.span("storage.Put", key, start))
	atomic.AddInt64(&t.c.Puts, 1)
	atomic.AddInt64(&t.c.PutBytes, int64(len(data)))
	return err
}

func (t *tracedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	b, err := t.inner.Get(key)
	atomic.AddInt64(&t.c.GetNs, t.span("storage.Get", key, start))
	atomic.AddInt64(&t.c.Gets, 1)
	atomic.AddInt64(&t.c.GetBytes, int64(len(b)))
	if atomic.LoadInt64(&t.c.markOpen) == 1 {
		atomic.AddInt64(&t.c.readsSinceMark, 1)
	}
	return b, err
}

// Has is the optional fast existence probe the chunk writer's dedup check
// uses; forwarding it keeps the wrapped store on the same path.
func (t *tracedStore) Has(key string) (bool, error) {
	start := time.Now()
	ok, err := storage.Has(t.inner, key)
	atomic.AddInt64(&t.c.HasNs, t.span("storage.Has", key, start))
	atomic.AddInt64(&t.c.Has, 1)
	if ok {
		atomic.AddInt64(&t.c.HasHits, 1)
	}
	if atomic.LoadInt64(&t.c.markOpen) == 1 {
		atomic.AddInt64(&t.c.readsSinceMark, 1)
	}
	return ok, err
}

func (t *tracedStore) Delete(key string) error {
	start := time.Now()
	err := t.inner.Delete(key)
	atomic.AddInt64(&t.c.DeleteNs, t.span("storage.Delete", key, start))
	atomic.AddInt64(&t.c.Deletes, 1)
	return err
}

func (t *tracedStore) List(prefix string) ([]string, error) {
	start := time.Now()
	keys, err := t.inner.List(prefix)
	atomic.AddInt64(&t.c.ListNs, t.span("storage.List", prefix, start))
	atomic.AddInt64(&t.c.Lists, 1)
	return keys, err
}

// markReads opens (or closes) the window in which Get and Has calls count
// as recovery reads; it returns the reads counted since the last open.
func (t *tracedStore) markReads(open bool) int64 {
	n := atomic.SwapInt64(&t.c.readsSinceMark, 0)
	v := int64(0)
	if open {
		v = 1
	}
	atomic.StoreInt64(&t.c.markOpen, v)
	return n
}

func (t *tracedStore) counters() storeCounters {
	return storeCounters{
		Puts: atomic.LoadInt64(&t.c.Puts), PutBytes: atomic.LoadInt64(&t.c.PutBytes), PutNs: atomic.LoadInt64(&t.c.PutNs),
		Gets: atomic.LoadInt64(&t.c.Gets), GetBytes: atomic.LoadInt64(&t.c.GetBytes), GetNs: atomic.LoadInt64(&t.c.GetNs),
		Has: atomic.LoadInt64(&t.c.Has), HasHits: atomic.LoadInt64(&t.c.HasHits), HasNs: atomic.LoadInt64(&t.c.HasNs),
		Lists: atomic.LoadInt64(&t.c.Lists), ListNs: atomic.LoadInt64(&t.c.ListNs),
		Deletes: atomic.LoadInt64(&t.c.Deletes), DeleteNs: atomic.LoadInt64(&t.c.DeleteNs),
	}
}

// --- mpi transport wrapper ---

// mpiCounters are one rank's transport numbers.
type mpiCounters struct {
	Sends, SendBytes, SendNs int64
	RecvWaitNs               int64
	Polls, PollHits          int64
	// FirstSendNs and LastOpNs bracket the rank's activity in this
	// incarnation: the in-process recovery clock reads the victim's last
	// call before its death and every rank's first send after the restart.
	FirstSendNs, LastOpNs int64
}

// tracedTransport is the in-process substrate (one mpi.Mailbox per rank,
// as the default transport has) with a timer around every call. It is
// installed through engine.Config.NewTransport, once per incarnation.
type tracedTransport struct {
	boxes []*mpi.Mailbox
	rec   *recorder // nil: counters only
	c     []mpiCounters
	// onFirstSends, when set, runs once: when every rank has sent its first
	// message of this incarnation (a restarted world has resumed).
	onFirstSends func()
	firstSends   atomic.Int32
}

func newTracedTransport(w *mpi.World, rec *recorder) *tracedTransport {
	t := &tracedTransport{boxes: make([]*mpi.Mailbox, w.Size()), rec: rec, c: make([]mpiCounters, w.Size())}
	for i := range t.boxes {
		t.boxes[i] = mpi.NewMailbox(w)
	}
	return t
}

func (t *tracedTransport) done(rank int, name string, start time.Time) int64 {
	end := time.Now()
	atomic.StoreInt64(&t.c[rank].LastOpNs, end.UnixNano())
	if t.rec != nil {
		t.rec.add(span{Name: name, Layer: "mpi", StartNs: start.UnixNano(), EndNs: end.UnixNano(), Rank: rank, Epoch: -1})
	}
	return end.Sub(start).Nanoseconds()
}

func (t *tracedTransport) Send(dst int, m *mpi.Message) {
	src, n := m.Source, int64(len(m.Data))
	start := time.Now()
	t.boxes[dst].Deliver(m)
	if src < 0 || src >= len(t.c) {
		return
	}
	c := &t.c[src]
	if atomic.CompareAndSwapInt64(&c.FirstSendNs, 0, start.UnixNano()) &&
		t.onFirstSends != nil && int(t.firstSends.Add(1)) == len(t.boxes) {
		t.onFirstSends()
	}
	atomic.AddInt64(&c.SendNs, t.done(src, "mpi.Send", start))
	atomic.AddInt64(&c.Sends, 1)
	atomic.AddInt64(&c.SendBytes, n)
}

func (t *tracedTransport) Await(rank int, specs []mpi.RecvSpec) (int, *mpi.Message) {
	start := time.Now()
	i, m := t.boxes[rank].Await(specs)
	atomic.AddInt64(&t.c[rank].RecvWaitNs, t.done(rank, "mpi.Await", start))
	return i, m
}

func (t *tracedTransport) AwaitCond(rank int, specs []mpi.RecvSpec, stop func() bool) (int, *mpi.Message) {
	start := time.Now()
	i, m := t.boxes[rank].AwaitCond(specs, stop)
	atomic.AddInt64(&t.c[rank].RecvWaitNs, t.done(rank, "mpi.Await", start))
	return i, m
}

func (t *tracedTransport) Poll(rank int, specs []mpi.RecvSpec) (int, *mpi.Message) {
	i, m := t.boxes[rank].Poll(specs)
	atomic.AddInt64(&t.c[rank].Polls, 1)
	if m != nil {
		atomic.AddInt64(&t.c[rank].PollHits, 1)
	}
	atomic.StoreInt64(&t.c[rank].LastOpNs, time.Now().UnixNano())
	return i, m
}

func (t *tracedTransport) Probe(rank int, spec mpi.RecvSpec) (bool, *mpi.Message) {
	return t.boxes[rank].Probe(spec)
}

func (t *tracedTransport) Pending(rank int) int { return t.boxes[rank].Pending() }

func (t *tracedTransport) PendingApp(rank int, ctx int64) int { return t.boxes[rank].PendingApp(ctx) }

func (t *tracedTransport) Interrupt() {
	for _, b := range t.boxes {
		b.Interrupt()
	}
}

func (t *tracedTransport) counters(rank int) mpiCounters {
	c := &t.c[rank]
	return mpiCounters{
		Sends: atomic.LoadInt64(&c.Sends), SendBytes: atomic.LoadInt64(&c.SendBytes), SendNs: atomic.LoadInt64(&c.SendNs),
		RecvWaitNs: atomic.LoadInt64(&c.RecvWaitNs), Polls: atomic.LoadInt64(&c.Polls), PollHits: atomic.LoadInt64(&c.PollHits),
		FirstSendNs: atomic.LoadInt64(&c.FirstSendNs), LastOpNs: atomic.LoadInt64(&c.LastOpNs),
	}
}

// transportLog hands engine.Config.NewTransport a fresh tracedTransport per
// incarnation and keeps them in order, so incarnation k's counters are
// incs[k].
type transportLog struct {
	rec *recorder
	// onResume, when set, runs each time a restarted incarnation's ranks
	// have all sent their first message.
	onResume func()
	mu       sync.Mutex
	incs     []*tracedTransport
}

func (l *transportLog) newTransport(w *mpi.World) mpi.Transport {
	t := newTracedTransport(w, l.rec)
	l.mu.Lock()
	if len(l.incs) > 0 {
		t.onFirstSends = l.onResume
	}
	l.incs = append(l.incs, t)
	l.mu.Unlock()
	return t
}

// --- protocol tracer ---

// commitTracer timestamps the two protocol events the commit latency is
// read from: the first integrated local checkpoint of an epoch
// (TraceCheckpoint) and the initiator's commit record (TraceCommit, whose
// Bytes field carries the committed epoch).
type commitTracer struct {
	mu         sync.Mutex
	firstCkpt  map[int]int64
	commit     map[int]int64
	collective int64
}

func newCommitTracer() *commitTracer {
	return &commitTracer{firstCkpt: map[int]int64{}, commit: map[int]int64{}}
}

func (c *commitTracer) Trace(e protocol.TraceEvent) {
	switch e.Kind {
	case protocol.TraceCheckpoint:
		now := time.Now().UnixNano()
		c.mu.Lock()
		if _, ok := c.firstCkpt[e.Epoch]; !ok {
			c.firstCkpt[e.Epoch] = now
		}
		c.mu.Unlock()
	case protocol.TraceCommit:
		now := time.Now().UnixNano()
		c.mu.Lock()
		c.commit[e.Bytes] = now
		c.mu.Unlock()
	case protocol.TraceCollective:
		atomic.AddInt64(&c.collective, 1)
	}
}

// commitMs returns first-local-checkpoint-durable to commit-record, per
// committed epoch, in epoch order.
func (c *commitTracer) commitMs() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var epochs []int
	for e := range c.commit {
		if _, ok := c.firstCkpt[e]; ok {
			epochs = append(epochs, e)
		}
	}
	sort.Ints(epochs)
	out := make([]float64, len(epochs))
	for i, e := range epochs {
		out[i] = float64(c.commit[e]-c.firstCkpt[e]) / 1e6
	}
	return out
}

// checkpointSpans turns frame-derived samples into checkpoint(rank, epoch)
// spans: freeze-frame arrival to flushed-frame arrival. The epoch of a
// rank's i-th checkpoint in an incarnation is baseEpoch+i.
func checkpointSpans(samples []ckptSample, baseEpoch func(inc int) int) []span {
	var out []span
	for _, c := range samples {
		if c.FlushedNs == 0 {
			continue
		}
		out = append(out, span{Name: "checkpoint", Layer: "protocol", StartNs: c.FreezeNs - int64(c.BlockedMs*1e6),
			EndNs: c.FlushedNs, Rank: c.Rank, Epoch: baseEpoch(c.Incarnation) + c.Index})
	}
	return out
}
