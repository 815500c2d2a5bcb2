package metrics

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestRenderFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ccift_restarts_total", "Rollback restarts across the run.")
	g := r.Gauge("ccift_ranks", "World size.")
	c.Add(3)
	g.Set(4)

	out := r.Render()
	for _, want := range []string{
		"# HELP ccift_restarts_total Rollback restarts across the run.",
		"# TYPE ccift_restarts_total counter",
		"ccift_restarts_total 3",
		"# TYPE ccift_ranks gauge",
		"ccift_ranks 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "ccift_ranks") > strings.Index(out, "ccift_restarts_total") {
		t.Errorf("metrics not sorted by name:\n%s", out)
	}
}

func TestCounterReuseAndTypeClash(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("re-registering a counter must return the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestServeScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("ccift_checkpoint_blocked_ns_total", "ns blocked").Add(42)
	srv, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "ccift_checkpoint_blocked_ns_total 42") {
		t.Errorf("scrape missing counter:\n%s", body)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ccift_blocked_ns", "Blocked time distribution.", []float64{10, 100, 1000})
	for _, v := range []float64{5, 7, 50, 999, 5000} {
		h.Observe(v)
	}
	if h.count() != 5 || h.Sum() != 6061 {
		t.Fatalf("count=%d sum=%g, want 5/6061", h.count(), h.Sum())
	}

	out := r.Render()
	// Buckets are cumulative; exact boundary values land in their bucket.
	for _, want := range []string{
		"# TYPE ccift_blocked_ns histogram",
		`ccift_blocked_ns_bucket{le="10"} 2`,
		`ccift_blocked_ns_bucket{le="100"} 3`,
		`ccift_blocked_ns_bucket{le="1000"} 4`,
		`ccift_blocked_ns_bucket{le="+Inf"} 5`,
		"ccift_blocked_ns_sum 6061",
		"ccift_blocked_ns_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryAndReuse(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{10})
	h.Observe(10) // on the bound: le="10" is inclusive
	if got := r.Render(); !strings.Contains(got, `h_bucket{le="10"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", got)
	}
	if r.Histogram("h", "", []float64{10}) != h {
		t.Fatal("re-registering must return the same instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different buckets should panic")
		}
	}()
	r.Histogram("h", "", []float64{20})
}

func TestVecExposition(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("ccift_rank_checkpoints_total", "Per-rank checkpoints.", "rank")
	gv := r.GaugeVec("ccift_rank_incarnation", "Per-rank incarnation.", "rank")
	// Insert out of order, two-digit rank included: render must sort
	// numerically, not lexically.
	cv.With("10").Add(1)
	cv.With("2").Add(7)
	cv.With("2").Add(1) // same child accumulates
	gv.With("0").Set(3)

	out := r.Render()
	for _, want := range []string{
		`ccift_rank_checkpoints_total{rank="2"} 8`,
		`ccift_rank_checkpoints_total{rank="10"} 1`,
		`ccift_rank_incarnation{rank="0"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, `{rank="2"}`) > strings.Index(out, `{rank="10"}`) {
		t.Errorf("rank labels not numerically sorted:\n%s", out)
	}
	if cv.With("2") != cv.With("2") {
		t.Fatal("With must return a stable child")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a vec with a different label should panic")
		}
	}()
	r.CounterVec("ccift_rank_checkpoints_total", "", "node")
}

// count returns the total number of observations.
func (h *Histogram) count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}
