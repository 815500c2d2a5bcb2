package sim

import (
	"encoding/json"
	"fmt"
	"time"

	"ccift/internal/cerr"
)

// Scenario declares a deterministic fault schedule for a simulated world.
// It is plain data — JSON-serializable so a failing soak can be replayed
// exactly from its seed (see internal/testseed) — and every random draw it
// induces comes from per-link PRNG streams derived from Seed, so schedules
// are stable under topology changes (adding a rank does not perturb the
// draws on existing links).
//
// Durations are encoded as nanoseconds in JSON (Go's time.Duration).
type Scenario struct {
	// Seed is the root of every PRNG stream in the simulation. Zero is a
	// valid (and distinct) seed.
	Seed int64 `json:"seed"`

	// Latency is the base one-way frame latency of every link; Jitter adds
	// a uniform [0, Jitter) draw per frame. A zero Latency+Jitter makes
	// delivery immediate (useful for conformance tests), but virtual-time
	// determinism is only guaranteed when Latency > 0: with in-flight
	// time on every frame, all deliveries happen at quiescence points, so
	// the event order is a pure function of the scenario.
	Latency time.Duration `json:"latency"`
	Jitter  time.Duration `json:"jitter,omitempty"`

	// DropProb is the per-frame probability of transient loss. The
	// substrate models the reliable-delivery layer the paper assumes
	// (LA-MPI): a lost frame is retransmitted, so a drop manifests as an
	// added RetransmitDelay, never as a missing message. Repeated losses
	// of the same frame compound.
	DropProb float64 `json:"drop_prob,omitempty"`
	// RetransmitDelay is the redelivery timeout added per loss; zero
	// selects 4*(Latency+Jitter).
	RetransmitDelay time.Duration `json:"retransmit_delay,omitempty"`

	// DupProb is the per-frame probability that the reliability layer's
	// retransmission duplicates an already-delivered frame. Duplicates are
	// detected by per-link sequence numbers and suppressed at the
	// receiver — exactly-once delivery is part of the transport contract —
	// but they exercise the dedup path and are counted in Stats.
	DupProb float64 `json:"dup_prob,omitempty"`

	// Partitions are network partition windows: while virtual time is in
	// [From, Until), frames between the Ranks set and its complement are
	// held by the reliability layer and delivered (with a fresh latency
	// draw) after the partition heals. Overlapping/adjacent windows chain,
	// and repeated windows on the same ranks model a flapping peer.
	Partitions []Partition `json:"partitions,omitempty"`

	// Crashes stop-fail ranks at absolute virtual times. A crashed rank's
	// runtime stops heartbeating, so recovery requires the heartbeat
	// detector (Launch arms it automatically for simulated runs). Times
	// keep advancing across incarnations, so several entries for one rank
	// at increasing times crash it in successive incarnations.
	Crashes []Crash `json:"crashes,omitempty"`

	// Skews gives individual ranks skewed views of the virtual clock
	// (protocol-layer timing: initiator intervals, control deadlines,
	// blocked-time accounting). DetectorSkew skews the failure detector's
	// clock relative to the ranks — a fast detector clock shortens the
	// effective suspicion timeout.
	Skews        map[int]Skew `json:"skews,omitempty"`
	DetectorSkew *Skew        `json:"detector_skew,omitempty"`

	// SlowStore injects seeded delays into stable-storage operations; see
	// the SlowStore type.
	SlowStore *SlowStore `json:"slow_store,omitempty"`

	// DetectorTimeout is the virtual-time heartbeat suspicion timeout
	// ccift.Launch arms for this scenario; zero selects a default
	// (500ms virtual). It costs nothing in wall time.
	DetectorTimeout time.Duration `json:"detector_timeout,omitempty"`
}

// Partition is one partition window: Ranks vs everyone else during
// [From, Until) of virtual time.
type Partition struct {
	From  time.Duration `json:"from"`
	Until time.Duration `json:"until"`
	Ranks []int         `json:"ranks"`
}

func (p Partition) separates(a, b int) bool {
	return p.contains(a) != p.contains(b)
}

func (p Partition) contains(r int) bool {
	for _, x := range p.Ranks {
		if x == r {
			return true
		}
	}
	return false
}

// Crash stop-fails Rank at virtual time At.
type Crash struct {
	Rank int           `json:"rank"`
	At   time.Duration `json:"at"`
}

// Skew is a skewed view of the virtual clock: Now reads
// base + Rate*elapsed + Offset, and a timer for duration d fires after
// d/Rate of true virtual time (a fast clock's intervals elapse sooner).
// Rate zero means 1.0.
type Skew struct {
	Offset time.Duration `json:"offset,omitempty"`
	Rate   float64       `json:"rate,omitempty"`
}

func (k Skew) rate() float64 {
	if k.Rate == 0 {
		return 1
	}
	return k.Rate
}

// SlowStore injects a seeded virtual-time delay into every stable-storage
// Put and Get (with probability Prob per operation; zero means always).
// The delay is Delay plus a uniform [0, Jitter) draw seeded by the call's
// operation, key and virtual instant. The sleep is virtual: a slow disk
// costs no wall time but is fully visible in the blocked-time counters.
type SlowStore struct {
	Delay  time.Duration `json:"delay"`
	Jitter time.Duration `json:"jitter,omitempty"`
	Prob   float64       `json:"prob,omitempty"`
}

// Validate checks the scenario against a world of n ranks.
func (sc *Scenario) Validate(n int) error {
	if sc.Latency < 0 || sc.Jitter < 0 || sc.RetransmitDelay < 0 {
		return fmt.Errorf("%w: sim: negative duration in scenario", cerr.ErrSpec)
	}
	if sc.DropProb < 0 || sc.DropProb >= 1 {
		if sc.DropProb != 0 {
			return fmt.Errorf("%w: sim: drop_prob %v outside [0,1)", cerr.ErrSpec, sc.DropProb)
		}
	}
	if sc.DupProb < 0 || sc.DupProb >= 1 {
		if sc.DupProb != 0 {
			return fmt.Errorf("%w: sim: dup_prob %v outside [0,1)", cerr.ErrSpec, sc.DupProb)
		}
	}
	for i, p := range sc.Partitions {
		if p.Until <= p.From {
			return fmt.Errorf("%w: sim: partition %d: empty window [%v,%v)", cerr.ErrSpec, i, p.From, p.Until)
		}
		for _, r := range p.Ranks {
			if r < 0 || (n > 0 && r >= n) {
				return fmt.Errorf("%w: sim: partition %d: rank %d out of range", cerr.ErrSpec, i, r)
			}
		}
	}
	for i, c := range sc.Crashes {
		if c.Rank < 0 || (n > 0 && c.Rank >= n) {
			return fmt.Errorf("%w: sim: crash %d: rank %d out of range", cerr.ErrSpec, i, c.Rank)
		}
		if c.At <= 0 {
			return fmt.Errorf("%w: sim: crash %d: non-positive time %v", cerr.ErrSpec, i, c.At)
		}
	}
	for r := range sc.Skews {
		if r < 0 || (n > 0 && r >= n) {
			return fmt.Errorf("%w: sim: skew: rank %d out of range", cerr.ErrSpec, r)
		}
		if sc.Skews[r].Rate < 0 {
			return fmt.Errorf("%w: sim: skew: rank %d: negative rate", cerr.ErrSpec, r)
		}
	}
	if sc.SlowStore != nil && (sc.SlowStore.Delay < 0 || sc.SlowStore.Jitter < 0) {
		return fmt.Errorf("%w: sim: slow store: negative delay", cerr.ErrSpec)
	}
	return nil
}

// rto returns the effective retransmission delay.
func (sc *Scenario) rto() time.Duration {
	if sc.RetransmitDelay > 0 {
		return sc.RetransmitDelay
	}
	if d := 4 * (sc.Latency + sc.Jitter); d > 0 {
		return d
	}
	return time.Millisecond
}

// String renders the scenario as its canonical JSON, the form to paste
// into a replay.
func (sc Scenario) String() string {
	b, err := json.Marshal(sc)
	if err != nil {
		return fmt.Sprintf("sim.Scenario{unserializable: %v}", err)
	}
	return string(b)
}
