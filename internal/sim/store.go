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
// store at one virtual instant run in wall-time order, so a Put becomes
// visible to Has only from the next instant on — every prober of a chunk
// at the instant it is first stored misses and stores it, whichever ran
// first — which makes each probe's answer, and with it every rank's
// CheckpointBytesWritten, a function of the virtual timeline alone.
type simStore struct {
	inner storage.Stable
	s     *Sim
	cfg   SlowStore

	mu    sync.Mutex
	rng   *prng
	putAt map[string]time.Duration // when each key this run stored was first Put
}

// WrapStore returns the simulation's view of st (see simStore); every
// store a simulated run uses goes through it.
func (s *Sim) WrapStore(st storage.Stable) storage.Stable {
	w := &simStore{inner: st, s: s, rng: newPRNG(mix(s.sc.Seed, 0x570e)), putAt: map[string]time.Duration{}}
	if s.sc.SlowStore != nil {
		w.cfg = *s.sc.SlowStore
	}
	return w
}

// delay draws this operation's stall. The draw order is the store-stream
// PRNG's call order; store operations are serialized per run phase, so
// the sequence is deterministic for deterministic programs.
func (st *simStore) delay() {
	if st.cfg.Delay <= 0 && st.cfg.Jitter <= 0 {
		return
	}
	st.mu.Lock()
	d := st.cfg.Delay
	if st.cfg.Jitter > 0 {
		d += draw(st.rng, st.cfg.Jitter)
	}
	skip := st.cfg.Prob > 0 && st.cfg.Prob < 1 && st.rng.Float64() >= st.cfg.Prob
	st.mu.Unlock()
	if skip || d <= 0 {
		return
	}
	st.s.Sleep(d)
}

func (st *simStore) Put(key string, data []byte) error {
	st.delay()
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.inner.Put(key, data)
	if _, seen := st.putAt[key]; err == nil && !seen {
		st.putAt[key] = st.s.Elapsed()
	}
	return err
}

// Has is the chunk writer's dedup probe (storage.Has): a round trip to the
// store like a Get, answered by the visibility rule above.
func (st *simStore) Has(key string) (bool, error) {
	st.delay()
	st.mu.Lock()
	defer st.mu.Unlock()
	if at, ok := st.putAt[key]; ok {
		return at < st.s.Elapsed(), nil
	}
	return storage.Has(st.inner, key)
}

func (st *simStore) Get(key string) ([]byte, error) {
	st.delay()
	return st.inner.Get(key)
}

func (st *simStore) Delete(key string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.putAt, key)
	return st.inner.Delete(key)
}

func (st *simStore) List(prefix string) ([]string, error) { return st.inner.List(prefix) }
