package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test
// checks the two agree); Bound is the share of the parent's median by which
// an end-to-end metric may worsen before a change counts as a regression,
// and is 0 for layer metrics, which have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Count marks a counter the program's structure fixes: it must repeat
	// exactly between two runs of one commit, and compare treats any
	// difference as a change. Timing-dependent counters are not marked.
	Count bool
	// Moves is the written-down prediction (choosing-metrics, section 3):
	// the end-to-end metric this layer metric should move, and where.
	Moves string
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them. The wall-clock bounds are the widest the
// pipeline allows because the machine this was calibrated on is not quiet
// (see the README's noise section); the stall and durability lag per
// checkpoint are layer metrics (ckpt.blocked_ms_p50,
// protocol.durable_ms_p50) because no statistic of them held a bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "base_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "full_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ckpt_written_ratio", Unit: "ratio", Better: "lower", Bound: 0.15},
	{Name: "store_space_ratio", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the numbers of single layers, all obtained from outside:
// traced = wrappers during a traced run, probe = direct timed calls into
// the layer, diff = differences of version medians, stats = the protocol's
// own counters as they arrive on the stats sink.
var perLayer = []metricDef{
	// mpi
	{Name: "mpi.sends", Unit: "count", Better: "lower", Moves: "base_s, full_s on neurosys-ctl"},
	{Name: "mpi.send_bytes", Unit: "bytes", Better: "lower", Moves: "base_s, full_s on neurosys-ctl"},
	{Name: "mpi.send_busy_ms", Unit: "ms", Better: "lower", Moves: "base_s, full_s on neurosys-ctl; flat on cg-clean"},
	{Name: "mpi.recv_wait_ms", Unit: "ms", Better: "lower", Moves: "base_s, full_s on neurosys-ctl; flat on cg-clean"},
	{Name: "mpi.poll_hit_ratio", Unit: "ratio", Better: "higher", Moves: "full_s on neurosys-ctl (wasted control polls)"},
	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower", Moves: "base_s on neurosys-ctl"},
	{Name: "mpi.stream_MBps", Unit: "MB/s", Better: "higher", Moves: "base_s on laplace-dirty (halo rows)"},
	{Name: "mpi.allgather_us", Unit: "us", Better: "lower", Moves: "base_s on neurosys-ctl, cg-clean"},
	// tcptransport
	{Name: "tcptransport.pingpong_us", Unit: "us", Better: "lower", Moves: "base_s, full_s on ring-recover; flat in-process"},
	{Name: "tcptransport.stream_MBps", Unit: "MB/s", Better: "higher", Moves: "base_s, full_s on ring-recover; flat in-process"},
	{Name: "tcptransport.mesh_setup_ms", Unit: "ms", Better: "lower", Moves: "recover_ms, base_s on ring-recover"},
	// protocol
	{Name: "protocol.piggyback_cost_s", Unit: "s", Better: "lower", Moves: "full_s on neurosys-ctl"},
	{Name: "protocol.coord_cost_s", Unit: "s", Better: "lower", Moves: "full_s on neurosys-ctl"},
	{Name: "protocol.pingpong_full_us", Unit: "us", Better: "lower", Moves: "full_s on neurosys-ctl (compare mpi.pingpong_us)"},
	{Name: "protocol.allgather_full_us", Unit: "us", Better: "lower", Moves: "full_s on neurosys-ctl (compare mpi.allgather_us)"},
	{Name: "protocol.control_msgs_per_ckpt", Unit: "count", Better: "lower", Count: true, Moves: "protocol.durable_ms_p50 on neurosys-ctl"},
	{Name: "protocol.control_collectives", Unit: "count", Better: "lower", Count: true, Moves: "full_s on neurosys-ctl"},
	{Name: "protocol.late_logged", Unit: "count", Better: "lower", Moves: "full_s; timing-dependent"},
	{Name: "protocol.log_bytes", Unit: "bytes", Better: "lower", Moves: "protocol.durable_ms_p50; timing-dependent"},
	{Name: "protocol.commit_ms", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50 on neurosys-ctl"},
	{Name: "protocol.flush_ms_per_ckpt", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50 on laplace-dirty"},
	{Name: "protocol.flush_throttle_ms", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50 against full_s on laplace-dirty (the governor's trade)"},
	{Name: "protocol.ckpts_committed", Unit: "count", Better: "higher", Count: true, Moves: "guard: rows with different counts are not comparable"},
	{Name: "protocol.durable_ms_p50", Unit: "ms", Better: "lower", Moves: "how long a checkpoint's work stays unprotected; all coordination on neurosys-ctl, hash+Put+fsync on laplace-dirty"},
	// ckpt
	{Name: "ckpt.state_cost_s", Unit: "s", Better: "lower", Moves: "full_s on laplace-dirty; about 0 on neurosys-ctl"},
	{Name: "ckpt.freeze_full_MBps", Unit: "MB/s", Better: "higher", Moves: "ckpt.blocked_ms_p50 on laplace-dirty; not on cg-clean"},
	{Name: "ckpt.freeze_incr_ms", Unit: "ms", Better: "lower", Moves: "ckpt.blocked_ms_p50 on cg-clean; not on laplace-dirty"},
	{Name: "ckpt.writeto_MBps", Unit: "MB/s", Better: "higher", Moves: "protocol.durable_ms_p50 on laplace-dirty"},
	{Name: "ckpt.restore_MBps", Unit: "MB/s", Better: "higher", Moves: "recover_ms on ring-recover, cg-clean"},
	{Name: "ckpt.copied_ratio", Unit: "ratio", Better: "lower", Moves: "ckpt.blocked_ms_p50, mem_peak_mb on cg-clean"},
	{Name: "ckpt.regions_dirty_ratio", Unit: "ratio", Better: "lower", Moves: "ckpt.blocked_ms_p50 on cg-clean"},
	{Name: "ckpt.blocked_ms_p50", Unit: "ms", Better: "lower", Moves: "full_s: the stall per checkpoint, warm path on cg-clean"},
	{Name: "ckpt.first_blocked_ms", Unit: "ms", Better: "lower", Moves: "the cold epoch of ckpt.blocked_ms_p50, cg-clean"},
	{Name: "ckpt.blocked_ms_tail", Unit: "ms", Better: "lower", Moves: "tail of ckpt.blocked_ms_p50"},
	// storage
	{Name: "storage.puts", Unit: "count", Better: "lower", Moves: "protocol.durable_ms_p50, full_s on laplace-dirty"},
	{Name: "storage.put_bytes", Unit: "bytes", Better: "lower", Moves: "ckpt_written_ratio"},
	{Name: "storage.put_busy_ms", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50, full_s on laplace-dirty"},
	{Name: "storage.gets", Unit: "count", Better: "lower", Moves: "recover_ms"},
	{Name: "storage.get_bytes", Unit: "bytes", Better: "lower", Moves: "recover_ms"},
	{Name: "storage.get_busy_ms", Unit: "ms", Better: "lower", Moves: "recover_ms"},
	{Name: "storage.has_calls", Unit: "count", Better: "lower", Moves: "protocol.durable_ms_p50 on cg-clean"},
	{Name: "storage.has_hit_ratio", Unit: "ratio", Better: "higher", Moves: "protocol.durable_ms_p50, ckpt_written_ratio on cg-clean"},
	{Name: "storage.prune_busy_ms", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50 on neurosys-ctl; store_space_ratio"},
	{Name: "storage.deletes", Unit: "count", Better: "lower", Moves: "store_space_ratio"},
	{Name: "storage.chunkwrite_mem_MBps", Unit: "MB/s", Better: "higher", Moves: "protocol.durable_ms_p50 on laplace-dirty (hash + dedup)"},
	{Name: "storage.chunkwrite_disk_MBps", Unit: "MB/s", Better: "higher", Moves: "protocol.durable_ms_p50, full_s on laplace-dirty"},
	{Name: "storage.rewrite_disk_MBps", Unit: "MB/s", Better: "higher", Moves: "protocol.durable_ms_p50 on cg-clean"},
	{Name: "storage.assemble_MBps", Unit: "MB/s", Better: "higher", Moves: "recover_ms"},
	{Name: "storage.disk_put_ms", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50 on laplace-dirty"},
	{Name: "storage.commit_ms", Unit: "ms", Better: "lower", Moves: "protocol.durable_ms_p50 on neurosys-ctl"},
	// launch (distributed recovery, from stamps and OnRestart)
	{Name: "launch.spawn_ms", Unit: "ms", Better: "lower", Moves: "base_s, full_s on ring-recover"},
	{Name: "launch.detect_ms", Unit: "ms", Better: "lower", Moves: "recover_ms on ring-recover"},
	{Name: "launch.respawn_ms", Unit: "ms", Better: "lower", Moves: "recover_ms on ring-recover"},
	{Name: "launch.restore_ms", Unit: "ms", Better: "lower", Moves: "recover_ms on ring-recover"},
	{Name: "launch.reexec_ms", Unit: "ms", Better: "lower", Moves: "none: a property of the interval"},
	// engine (in-process recovery)
	{Name: "engine.recover_inproc_ms", Unit: "ms", Better: "lower", Moves: "recover_ms on the in-process workloads"},
	{Name: "engine.store_reads_per_recovery", Unit: "count", Better: "lower", Count: true, Moves: "recover_ms; must stay about world + dead rank's blobs"},
	{Name: "engine.retained_restores", Unit: "count", Better: "higher", Count: true, Moves: "recover_ms (survivors restoring from memory)"},
	{Name: "engine.gather_recovery_ms", Unit: "ms", Better: "lower", Moves: "recover_ms"},
	// the benchmark itself
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "none: the cost of the wrappers"},
}

// metric is one measured value with what is needed to judge it: how many
// samples it rests on and how far they spread.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// Tail is the highest percentile with at least ten samples beyond it
	// (TailPct says which); absent when the metric has under eleven samples.
	Tail    float64 `json:"tail,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// fromSamples is the median of samples with its quartiles and tail.
func fromSamples(unit string, xs []float64) metric {
	m := metric{Value: median(xs), Unit: unit, N: len(xs)}
	m.Q1, m.Q3 = quartiles(xs)
	if v, pct, ok := tailRule(xs); ok {
		m.Tail, m.TailPct = v, pct
	}
	return m
}

// single is a value with no repetitions behind it (a count, a ratio of
// sums).
func single(unit string, v float64) metric {
	return metric{Value: v, Unit: unit, N: 1, Q1: v, Q3: v}
}
