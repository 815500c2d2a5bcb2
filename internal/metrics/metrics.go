// Package metrics is a dependency-free metrics registry with Prometheus
// text exposition. It exists so ccift can expose live protocol counters
// (checkpoint blocked time, restarts, dedup ratios, ...) on an HTTP
// endpoint without pulling a client library into the module: the registry
// knows counters (monotonic int64) and gauges (float64), renders them in
// the text format scrapers understand, and nothing more.
//
// All methods are safe for concurrent use. Metric instruments are created
// once (usually up front, so a scrape early in a run still sees every
// series at zero) and updated with atomics on the hot path.
//
// Beyond plain counters and gauges the registry knows fixed-bucket
// histograms (rendered as the _bucket/_sum/_count triplet scrapers expect)
// and single-label counter/gauge vectors (one child series per label
// value — ccift uses them for per-rank breakdowns).
package metrics

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Set exists for mirrors of
// externally accumulated totals (e.g. folding a worker's stats snapshot
// into the launcher's registry) and must only ever move the value up.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Set replaces the counter's value; callers guarantee monotonicity.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: Observe files each value into
// the first bucket whose upper bound is >= the value (with an implicit
// +Inf overflow bucket) and accumulates the sum. Buckets are chosen at
// registration and never change.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // per-bucket (non-cumulative) counts; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-added
}

// Observe files v into the histogram.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct {
	label string
	mu    sync.Mutex
	kids  map[string]*Counter
}

// With returns (creating on first use) the child counter for the label
// value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.kids[value]
	if c == nil {
		c = &Counter{}
		v.kids[value] = c
	}
	return c
}

// GaugeVec is a family of gauges distinguished by one label.
type GaugeVec struct {
	label string
	mu    sync.Mutex
	kids  map[string]*Gauge
}

// With returns (creating on first use) the child gauge for the label
// value.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g := v.kids[value]
	if g == nil {
		g = &Gauge{}
		v.kids[value] = g
	}
	return g
}

type metric struct {
	name    string
	help    string
	typ     string // exposition TYPE: "counter" | "gauge" | "histogram"
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	cvec    *CounterVec
	gvec    *GaugeVec
}

// Registry holds named metrics and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	names   []string // insertion order not kept; render sorts
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Counter registers (or returns the existing) counter with the given name.
// Registering the same name with a different type panics: that is a
// programming error, not a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.typ != "counter" {
			panic("metrics: " + name + " already registered as " + m.typ)
		}
		return m.counter
	}
	c := &Counter{}
	r.metrics[name] = &metric{name: name, help: help, typ: "counter", counter: c}
	r.names = append(r.names, name)
	return c
}

// Gauge registers (or returns the existing) gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.typ != "gauge" {
			panic("metrics: " + name + " already registered as " + m.typ)
		}
		return m.gauge
	}
	g := &Gauge{}
	r.metrics[name] = &metric{name: name, help: help, typ: "gauge", gauge: g}
	r.names = append(r.names, name)
	return g
}

// Histogram registers (or returns the existing) histogram with the given
// name and ascending bucket upper bounds (+Inf is implicit and must not be
// passed). Re-registering with different buckets, or an unsorted or empty
// bounds slice, panics: programming errors, not runtime conditions.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: " + name + ": histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: " + name + ": histogram bounds must be strictly ascending")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.typ != "histogram" {
			panic("metrics: " + name + " already registered as " + m.typ)
		}
		if len(m.hist.bounds) != len(bounds) {
			panic("metrics: " + name + " re-registered with different buckets")
		}
		for i := range bounds {
			if m.hist.bounds[i] != bounds[i] {
				panic("metrics: " + name + " re-registered with different buckets")
			}
		}
		return m.hist
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.metrics[name] = &metric{name: name, help: help, typ: "histogram", hist: h}
	r.names = append(r.names, name)
	return h
}

// CounterVec registers (or returns the existing) single-label counter
// family with the given name and label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.cvec == nil {
			panic("metrics: " + name + " already registered as " + m.typ)
		}
		if m.cvec.label != label {
			panic("metrics: " + name + " re-registered with label " + label + ", had " + m.cvec.label)
		}
		return m.cvec
	}
	v := &CounterVec{label: label, kids: map[string]*Counter{}}
	r.metrics[name] = &metric{name: name, help: help, typ: "counter", cvec: v}
	r.names = append(r.names, name)
	return v
}

// GaugeVec registers (or returns the existing) single-label gauge family
// with the given name and label key.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.gvec == nil {
			panic("metrics: " + name + " already registered as " + m.typ)
		}
		if m.gvec.label != label {
			panic("metrics: " + name + " re-registered with label " + label + ", had " + m.gvec.label)
		}
		return m.gvec
	}
	v := &GaugeVec{label: label, kids: map[string]*Gauge{}}
	r.metrics[name] = &metric{name: name, help: help, typ: "gauge", gvec: v}
	r.names = append(r.names, name)
	return v
}

// Render writes the registry in Prometheus text exposition format
// (version 0.0.4), metrics sorted by name.
func (r *Registry) Render() string {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	ms := make([]*metric, 0, len(names))
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()

	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	var b strings.Builder
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		switch {
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, fmtFloat(m.gauge.Value()))
		case m.hist != nil:
			renderHistogram(&b, m.name, m.hist)
		case m.cvec != nil:
			m.cvec.mu.Lock()
			for _, lv := range sortedKeys(m.cvec.kids) {
				fmt.Fprintf(&b, "%s{%s=%q} %d\n", m.name, m.cvec.label, lv, m.cvec.kids[lv].Value())
			}
			m.cvec.mu.Unlock()
		case m.gvec != nil:
			m.gvec.mu.Lock()
			for _, lv := range sortedKeys(m.gvec.kids) {
				fmt.Fprintf(&b, "%s{%s=%q} %s\n", m.name, m.gvec.label, lv, fmtFloat(m.gvec.kids[lv].Value()))
			}
			m.gvec.mu.Unlock()
		}
	}
	return b.String()
}

// renderHistogram emits the cumulative _bucket series, _sum and _count.
func renderHistogram(b *strings.Builder, name string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, fmtFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, fmtFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", name, cum)
}

// fmtFloat renders integral values without an exponent or trailing zeros,
// as scrapers (and humans reading curl output) expect.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// sortedKeys returns the map's keys; numeric-looking keys (per-rank
// labels) sort numerically so rank "10" follows rank "9", others
// lexically after the numeric block.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, aerr := strconv.Atoi(keys[i])
		b, berr := strconv.Atoi(keys[j])
		switch {
		case aerr == nil && berr == nil:
			return a < b
		case aerr == nil:
			return true
		case berr == nil:
			return false
		default:
			return keys[i] < keys[j]
		}
	})
	return keys
}

// handler returns an http.Handler serving the rendered registry; mount it
// at /metrics (Serve does).
func (r *Registry) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.Render())
	})
}

// Server is a running metrics endpoint; Close stops it.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve exposes the registry at http://<addr>/metrics (and at "/", for
// curl convenience). addr may end in ":0" to pick a free port; Addr
// reports the bound address.
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.handler())
	mux.Handle("/", r.handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down, allowing in-flight scrapes a moment to
// finish.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
