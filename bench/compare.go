package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// Verdicts compare prints, one per (workload, metric).
const (
	vWithin        = "within bound"
	vRegression    = "REGRESSION"
	vImproved      = "improved"
	vUnresolved    = "unresolved"     // A's own repetitions spread wider than the bound
	vNotComparable = "not comparable" // different environment or different work
	vSame          = "same"           // a count that repeated exactly
	vChanged       = "CHANGED"        // a count that did not
	vInfo          = "-"              // a layer metric: no bound, the change is the information
)

// row is one line of the comparison.
type row struct {
	Workload, Metric, Unit string
	A, B                   metric
	Rel                    float64 // (B-A)/|A|
	Bound                  float64
	Verdict                string
}

// judge decides one row. comparable is false when the two results do not
// describe the same work in the same environment.
func judge(d metricDef, a, b metric, comparable bool) (rel float64, verdict string) {
	if a.Value != 0 {
		rel = (b.Value - a.Value) / math.Abs(a.Value)
	} else if b.Value != 0 {
		rel = math.Inf(1)
	}
	switch {
	case !comparable:
		return rel, vNotComparable
	case d.Count:
		if a.Value == b.Value {
			return rel, vSame
		}
		return rel, vChanged
	case d.Bound == 0:
		return rel, vInfo
	}
	if a.Value != 0 && (a.Q3-a.Q1)/math.Abs(a.Value) > d.Bound {
		return rel, vUnresolved
	}
	worse := rel
	if d.Better == "higher" {
		worse = -rel
	}
	switch {
	case worse > d.Bound:
		return rel, vRegression
	case worse < -d.Bound:
		return rel, vImproved
	}
	return rel, vWithin
}

// envDiff lists the environment fields that make two results incomparable.
func envDiff(a, b environment) []string {
	var out []string
	if a.NProc != b.NProc {
		out = append(out, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		out = append(out, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GoVersion != b.GoVersion {
		out = append(out, fmt.Sprintf("Go %s vs %s", a.GoVersion, b.GoVersion))
	}
	if a.ScratchFS != b.ScratchFS {
		out = append(out, fmt.Sprintf("scratch filesystem %s vs %s", a.ScratchFS, b.ScratchFS))
	}
	return out
}

// sameWork reports whether two runs of one workload did the same work: the
// same fixed sizes, no failed operation on either side, and — where the
// traced run counted them — the same number of committed checkpoints.
func sameWork(a, b *result) bool {
	if a.Failed != 0 || b.Failed != 0 {
		return false
	}
	for _, k := range []string{"iters", "every_n", "expected_ckpts", "faulted_iters", "kills", "size"} {
		if fmt.Sprint(a.Params[k]) != fmt.Sprint(b.Params[k]) {
			return false
		}
	}
	ca, oka := a.Metrics["protocol.ckpts_committed"]
	cb, okb := b.Metrics["protocol.ckpts_committed"]
	return !oka || !okb || ca.Value == cb.Value
}

// compareSets builds every row for the runs the two sets share.
func compareSets(a, b resultSet) (rows []row, notes []string) {
	envOK := true
	if d := envDiff(a.Env, b.Env); len(d) > 0 {
		envOK = false
		notes = append(notes, fmt.Sprintf("environments differ (%v): nothing below is comparable", d))
	}
	for _, ra := range a.Runs {
		var rb *result
		for _, r := range b.Runs {
			if r.Workload == ra.Workload && r.Trace == ra.Trace {
				rb = r
				break
			}
		}
		if rb == nil {
			notes = append(notes, fmt.Sprintf("%s (trace=%v) is only in A", ra.Workload, ra.Trace))
			continue
		}
		work := sameWork(ra, rb)
		if !work {
			notes = append(notes, fmt.Sprintf("%s (trace=%v): the two runs did different work (sizes, failed operations or committed checkpoints differ)", ra.Workload, ra.Trace))
		}
		defs := endToEnd
		if ra.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			ma, oka := ra.Metrics[d.Name]
			mb, okb := rb.Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			rel, v := judge(d, ma, mb, envOK && work)
			rows = append(rows, row{Workload: ra.Workload, Metric: d.Name, Unit: d.Unit, A: ma, B: mb, Rel: rel, Bound: d.Bound, Verdict: v})
		}
	}
	return rows, notes
}

func printRows(w io.Writer, rows []row, notes []string) {
	for _, n := range notes {
		fmt.Fprintln(w, "note:", n)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tA q1..q3 (n)\tB\tB q1..q3 (n)\tchange\tbound\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.4g..%.4g (%d)\t%.5g\t%.4g..%.4g (%d)\t%+.1f%%\t%s\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A.Value, r.A.Q1, r.A.Q3, r.A.N, r.B.Value, r.B.Q1, r.B.Q3, r.B.N, 100*r.Rel, bound, r.Verdict)
	}
	tw.Flush()
}

func loadSet(path string) (resultSet, error) {
	var s resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schema {
		return s, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schema)
	}
	return s, nil
}

// compareMain is `bench compare A.json B.json`: one row per (workload,
// metric). It exits 1 when a bounded metric regressed or a count changed,
// 2 on bad usage.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows, notes := compareSets(a, b)
	printRows(os.Stdout, rows, notes)
	for _, r := range rows {
		if r.Verdict == vRegression || r.Verdict == vChanged {
			return 1
		}
	}
	return 0
}

// aaMain is `bench aa`: the whole set twice with one seed and once with a
// second seed, compared pairwise. Two runs of one commit must agree within
// the benchmark's own bounds: it exits 1 when any end-to-end metric
// differs (either way) by more than its bound, or a structural count does
// not repeat.
func aaMain(args []string) int {
	dir := "bench/results"
	if len(args) == 1 {
		dir = args[0]
	} else if len(args) > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench aa [result-dir]")
		return 2
	}
	for _, d := range []string{outDir, scratchRoot, dir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatal(err)
		}
	}
	plan := []struct {
		file string
		seed int64
	}{{"seed-aa-1.json", 1}, {"seed-aa-2.json", 1}, {"seed-s2.json", 2}}
	sets := make([]resultSet, len(plan))
	bad := 0
	for i, p := range plan {
		set, ok := runAll(p.seed, defaultSecs)
		if !ok {
			bad++
		}
		sets[i] = set
		if err := writeJSON(filepath.Join(dir, p.file), set); err != nil {
			fatal(err)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {0, 2}} {
		fmt.Printf("\n== %s vs %s ==\n", plan[pair[0]].file, plan[pair[1]].file)
		rows, notes := compareSets(sets[pair[0]], sets[pair[1]])
		printRows(os.Stdout, rows, notes)
		sameSeed := plan[pair[0]].seed == plan[pair[1]].seed
		for _, r := range rows {
			switch {
			case r.Bound > 0 && math.Abs(r.Rel) > r.Bound:
				fmt.Printf("A/A: %s %s differs by %+.1f%%, bound %.0f%%\n", r.Workload, r.Metric, 100*r.Rel, 100*r.Bound)
				bad++
			case r.Verdict == vChanged && sameSeed:
				fmt.Printf("A/A: count %s %s did not repeat (%g vs %g)\n", r.Workload, r.Metric, r.A.Value, r.B.Value)
				bad++
			case r.Verdict == vNotComparable:
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("\nA/A failed: %d disagreement(s)\n", bad)
		return 1
	}
	fmt.Println("\nA/A passed: every end-to-end metric within its bound, every structural count repeated")
	return 0
}
