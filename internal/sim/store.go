package sim

import (
	"sync"
	"time"

	"ccift/internal/storage"
)

// simStore is the simulated cluster's view of a stable store. It does two
// things. With a SlowStore in the scenario it stalls Put, Get and the
// dedup probe for a seeded stretch of virtual time, modeling a slow or
// bursty disk: the caller counts as blocked (time advances past it), so
// the stall lands deterministically in the protocol's counters at zero
// wall cost. And it orders what the scheduler cannot: actors that touch the
// store at one virtual instant run in wall-time order — so a stall is a
// function of the operation, the key and the instant, never of which actor
// ran first, and a Put becomes
// visible to Has only from the next instant on — every prober of a chunk
// at the instant it is first stored misses and stores it, whichever ran
// first — which makes each probe's answer, and with it every rank's
// CheckpointBytesWritten, a function of the virtual timeline alone.
type simStore struct {
	inner storage.Stable
	s     *Sim
	cfg   SlowStore

	mu    sync.Mutex
	putAt map[string]time.Duration // when each key this run stored was first Put
}

// WrapStore returns the simulation's view of st (see simStore); every
// store a simulated run uses goes through it.
func (s *Sim) WrapStore(st storage.Stable) storage.Stable {
	w := &simStore{inner: st, s: s, putAt: map[string]time.Duration{}}
	if s.sc.SlowStore != nil {
		w.cfg = *s.sc.SlowStore
	}
	return w
}

// delay stalls one operation on key. Its draws come from a stream keyed by
// (scenario seed, operation, key, virtual instant), so two ranks' flush
// tasks that meet the store at one instant get the same stalls in either
// wall-time order, and an operation added or removed shifts no other
// operation's stall.
func (st *simStore) delay(op, key string) {
	if st.cfg.Delay <= 0 && st.cfg.Jitter <= 0 {
		return
	}
	k := uint64(14695981039346656037) // FNV-1a of the operation and the key
	for _, c := range []byte(op + " " + key) {
		k = (k ^ uint64(c)) * 1099511628211
	}
	rng := newPRNG(mix(st.s.sc.Seed, 0x570e, int64(k), int64(st.s.Elapsed())))
	d := st.cfg.Delay + draw(rng, st.cfg.Jitter)
	if st.cfg.Prob > 0 && st.cfg.Prob < 1 && rng.Float64() >= st.cfg.Prob || d <= 0 {
		return
	}
	st.s.Sleep(d)
}

func (st *simStore) Put(key string, data []byte) error { return st.PutParts(key, data) }

// PutParts is the chunk writer's gather write (storage.PutParts): one Put
// of the blob the parts make up, to the store and to the timeline alike.
func (st *simStore) PutParts(key string, parts ...[]byte) error {
	st.delay("put", key)
	st.mu.Lock()
	defer st.mu.Unlock()
	err := storage.PutParts(st.inner, key, parts...)
	if _, seen := st.putAt[key]; err == nil && !seen {
		st.putAt[key] = st.s.Elapsed()
	}
	return err
}

// Has is the chunk writer's dedup probe (storage.Has): a round trip to the
// store like a Get, answered by the visibility rule above.
func (st *simStore) Has(key string) (bool, error) {
	st.delay("has", key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if at, ok := st.putAt[key]; ok {
		return at < st.s.Elapsed(), nil
	}
	return storage.Has(st.inner, key)
}

func (st *simStore) Get(key string) ([]byte, error) {
	st.delay("get", key)
	return st.inner.Get(key)
}

func (st *simStore) Delete(key string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.putAt, key)
	return st.inner.Delete(key)
}

func (st *simStore) List(prefix string) ([]string, error) { return st.inner.List(prefix) }
