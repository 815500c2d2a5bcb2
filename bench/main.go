// Command bench is the repository's one benchmark: Figure 8 overhead,
// checkpoint stall and durability, and time-to-recover on four workloads,
// with one number per layer underneath, all measured from outside the
// program. See README.md in this directory.
//
//	bash bench/run.sh --workload cg-clean --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh                          # all workloads, both modes
//	bash bench/run.sh compare A.json B.json
//	bash bench/run.sh aa
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ccift/internal/launch"
)

const (
	outDir      = "bench/out"         // results and traces
	scratchRoot = ".bench_build/work" // stores, rendezvous, stamps; removed after each run
	defaultSecs = 16
)

// resultSet is the file format compare reads: one or more workload runs
// with the environment they ran in.
type resultSet struct {
	Schema string      `json:"schema"`
	Env    environment `json:"env"`
	Seed   int64       `json:"seed"`
	Runs   []*result   `json:"runs"`
}

const schema = "ccift-bench/1"

func main() {
	// The distributed substrate re-execs this binary as its workers.
	if launch.IsWorker() {
		workerMain()
		return
	}
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "aa":
			os.Exit(aaMain(os.Args[2:]))
		}
	}
	name := flag.String("workload", "", "workload to run (default: all four, traced and untraced)")
	seed := flag.Int64("seed", 1, "seed for engine randomness, ring contents and kill placement")
	seconds := flag.Int("seconds", defaultSecs, "how long one run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs and probes")
	out := flag.String("out", "", "result file (default bench/out/<workload>.<e2e|layers>.json, or bench/out/result.json for all)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fatal(err)
	}

	if *name == "" {
		set, ok := runAll(*seed, *seconds)
		path := *out
		if path == "" {
			path = filepath.Join(outDir, "result.json")
		}
		if err := writeJSON(path, set); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
		if !ok {
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res := runWorkload(w, *seed, *seconds, *trace == 1)
	printResult(os.Stdout, res)
	path := *out
	if path == "" {
		kind := "e2e"
		if res.Trace {
			kind = "layers"
		}
		path = filepath.Join(outDir, fmt.Sprintf("%s.%s.json", w.Name, kind))
	}
	set := resultSet{Schema: schema, Env: readEnvironment(scratchRoot), Seed: *seed, Runs: []*result{res}}
	if err := writeJSON(path, set); err != nil {
		fatal(err)
	}
	// The contract's last line: exactly these four keys, every metric of the
	// requested kind with its value and unit.
	fmt.Println(contractLine(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// runWorkload performs one run of one workload and always removes its
// scratch directory.
func runWorkload(w workload, seed int64, seconds int, trace bool) *result {
	b, err := newBench(w, seed, seconds, trace, scratchRoot)
	if err != nil {
		fatal(err)
	}
	// Scratch is removed once, here, after the run: deleting ~100 MB of
	// fsynced chunk files between executions slowed the next ones by 10-25 %.
	defer os.RemoveAll(b.workDir)
	// Start from a quiet disk: whatever an earlier run left for the kernel to
	// write back or discard is finished before anything is timed.
	syscall.Sync()
	wall := time.Now()
	if b.setup() {
		// The measured time starts after set-up.
		b.start = time.Now()
		if trace {
			b.measureLayers(outDir)
		} else {
			b.measureEndToEnd()
		}
	}
	res := b.res
	res.WallS = time.Since(wall).Seconds()
	res.Params["state_bytes_per_rank"] = b.stateBytes
	if llc := lastLevelCache(); llc > 0 {
		// Bandwidth probes on a state under four times the last-level cache
		// measure the cache hierarchy, not memory.
		res.Params["probes_cache_resident"] = int64(len(b.data)) < 4*llc
	}
	res.Extra["setup_rounds_s"] = b.setupS
	res.Extra["executions"] = b.series
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.fail("metric %s was not measured", d.Name)
			m.Unit = d.Unit
			m.Value = 0
			res.Metrics[d.Name] = m
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = max(res.Failed, 1)
	}
	res.Correct = res.Failed == 0
	return res
}

// runAll is the no-argument mode: every workload, untraced then traced.
func runAll(seed int64, seconds int) (resultSet, bool) {
	set := resultSet{Schema: schema, Env: readEnvironment(scratchRoot), Seed: seed}
	ok := true
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, seed, seconds, trace)
			printResult(os.Stdout, res)
			set.Runs = append(set.Runs, res)
			ok = ok && res.Correct
		}
	}
	return set, ok
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine renders the single JSON object the pipeline reads.
func contractLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		metrics[d.Name] = mv{Value: m.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// printResult prints every metric by name with its unit and sample count.
func printResult(f *os.File, res *result) {
	kind := "end-to-end (tracing off)"
	if res.Trace {
		kind = "per-layer (traced runs and probes)"
	}
	fmt.Fprintf(f, "\n== %s — %s, seed %d, %.1f s wall ==\n", res.Workload, kind, res.Seed, res.WallS)
	fmt.Fprintf(f, "   %s\n", res.Why)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %-6s n=%-3d q1=%.4g q3=%.4g", n, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		if m.TailPct > 0 {
			line += fmt.Sprintf(" p%.0f=%.4g", m.TailPct, m.Tail)
		}
		if m.Note != "" {
			line += " (" + m.Note + ")"
		}
		fmt.Fprintln(f, line)
	}
	for _, x := range []struct{ name, unit, note string }{
		{"overhead_pct", "%", "full_s/base_s - 1; printed, not gated"},
		{"ckpt_blocked_ms_p50", "ms", "stall per checkpoint; layer metric ckpt.blocked_ms_p50"},
		{"ckpt_durable_ms_p50", "ms", "freeze to durable; layer metric protocol.durable_ms_p50"},
	} {
		if v, ok := res.Extra[x.name]; ok {
			fmt.Fprintf(f, "  %-34s %14.6g %-6s (%s)\n", x.name, v, x.unit, x.note)
		}
	}
	if raw, ok := res.Extra["raw_wall_clock"].(map[string]float64); ok {
		fmt.Fprintf(f, "  unscaled medians: setup_s %.4g, base_s %.4g, full_s %.4g, recover_ms %.4g (the metrics above are divided by the machine-speed probe)\n",
			raw["setup_s"], raw["base_s"], raw["full_s"], raw["recover_ms"])
	}
	fmt.Fprintf(f, "  ops_attempted=%d ops_failed=%d\n", res.Attempted, res.Failed)
	for _, s := range res.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", s)
	}
	for _, s := range res.Warnings {
		fmt.Fprintf(f, "  warning: %s\n", s)
	}
}
