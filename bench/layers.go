package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"ccift/internal/protocol"
)

var versions = []protocol.Mode{protocol.Unmodified, protocol.PiggybackOnly, protocol.NoAppState, protocol.Full}

// measureLayers is the traced run (--trace 1): untraced repetitions of all
// four program versions for the attribution differences, then the traced
// executions, then the direct probes.
func (b *bench) measureLayers(outDir string) {
	want := expectedCkpts(b.w.Iters, b.w.EveryN)

	// Attribution: the four Figure 8 versions, untraced, the starting
	// version rotating per round so drift does not land on one of them.
	var lastRound float64
	for rep := 0; rep < 2 || b.elapsed()+lastRound < 0.4*b.seconds; rep++ {
		start := time.Now()
		for i := range versions {
			mode := versions[(i+rep)%len(versions)]
			s, err := b.spec(fmt.Sprintf("rep%d-%v", rep, mode), mode, measured)
			if err != nil {
				b.fail("%v", err)
				return
			}
			o := execute(s)
			if mode == protocol.Unmodified && b.refMain == "" && o.err == nil {
				b.refMain = o.value
			}
			if b.check(o, b.refMain, want) {
				b.add("v/"+mode.String(), o.scaledS())
				if mode == protocol.Full {
					b.recordFull(o)
				}
			}
		}
		lastRound = time.Since(start).Seconds()
	}

	var traces [][]span

	// T1: one traced fault-free Full execution on the workload's own
	// substrate (store wrapper; transport wrapper and tracer in-process).
	t1s, err := b.spec("traced-full", protocol.Full, measured)
	if err != nil {
		b.fail("%v", err)
		return
	}
	t1s.rec = newRecorder(b.w.Name + "/traced-full")
	t1 := execute(t1s)
	if !b.check(t1, b.refMain, want) {
		return
	}
	b.recordFull(t1)
	traces = append(traces, buildTrace(t1, nil))

	// T2: the transport wrapper and the protocol tracer exist only
	// in-process, so a distributed workload runs its program there once more.
	t2 := t1
	if b.w.Distributed {
		s := inProcess(t1s)
		s.label, s.dir, s.rec = "traced-full-inproc", b.dir("traced-full-inproc"), newRecorder(b.w.Name+"/traced-full-inproc")
		t2 = execute(s)
		if !b.check(t2, b.refMain, want) {
			return
		}
		traces = append(traces, buildTrace(t2, nil))
	}

	// T3: one traced faulted execution under the in-process recovery driver.
	t3s, err := b.spec("traced-faulted-inproc", protocol.Full, faulted)
	if err != nil {
		b.fail("%v", err)
		return
	}
	t3s = inProcess(t3s)
	t3s.kills = b.w.killSchedule(b.w.Kills, b.opsPerIter, b.seed)
	t3s.rec = newRecorder(b.w.Name + "/traced-faulted-inproc")
	t3 := execute(t3s)
	var inproc []recoveryPhases
	if b.check(t3, b.refFaulted, 0) {
		inproc = b.recoveries(t3)
		traces = append(traces, buildTrace(t3, inproc))
	}

	// T4: the distributed recovery probe — the ring program, its grid this
	// workload's state size, on worker processes with real SIGKILLs.
	t4, phases := b.launchProbe()
	if t4 != nil && t4.spec.rec != nil {
		traces = append(traces, buildTrace(t4, phases))
	}

	gather, err := probeGather(t1s.storeDir(), t1.committed)
	if err != nil {
		b.fail("gather probe: %v", err)
	}

	b.durableByIndex()
	if t4 != nil {
		phases = b.fresh(t4, phases)
	}
	b.layerMetrics(t1, t2, t3, t4, b.fresh(t3, inproc), phases, gather)
	b.probeMetrics()

	if err := writeChromeTrace(filepath.Join(outDir, b.w.Name+".trace.json"), traces); err != nil {
		b.fail("write trace: %v", err)
	}
	self := map[string]map[string]float64{}
	for _, t := range traces {
		if len(t) > 0 {
			self[t[0].Run] = selfByLayer(t)
		}
	}
	b.res.Extra["self_ms_by_layer"] = self
}

// buildTrace assembles one execution's span tree: the run span, one
// checkpoint span per (rank, epoch) from the frame stream, the wrappers'
// spans, and one pair of recovery-phase spans per kill.
func buildTrace(o *runOut, phases []recoveryPhases) []span {
	rec := o.spec.rec
	end := o.startNs + int64(o.wallS*1e9)
	spans := []span{{Name: "run", Layer: "bench", StartNs: o.startNs, EndNs: end, Parent: -1, Epoch: -1, Run: rec.run}}
	base := func(inc int) int {
		if inc > 0 && inc <= len(o.recovered) {
			return o.recovered[inc-1]
		}
		return 0
	}
	for _, s := range checkpointSpans(extractCheckpoints(o.frames), base) {
		s.Run = rec.run
		spans = append(spans, s)
	}
	for k, p := range phases {
		if k >= len(o.restartNs) {
			break
		}
		at := o.restartNs[k]
		spans = append(spans,
			span{Name: "recovery.detect", Layer: "recovery", StartNs: at - int64(p.DetectMs*1e6), EndNs: at, Rank: o.spec.kills[k].Rank, Epoch: -1, Run: rec.run},
			span{Name: "recovery.respawn+restore", Layer: "recovery", StartNs: at, EndNs: at + int64((p.RespawnMs+p.RestoreMs)*1e6), Rank: o.spec.kills[k].Rank, Epoch: -1, Run: rec.run})
	}
	rec.mu.Lock()
	spans = append(spans, rec.spans...)
	rec.mu.Unlock()
	assignParents(spans)
	return spans
}

// launchProbe runs the distributed faulted ring execution behind the
// launch.* metrics. A distributed workload's probe is the workload itself
// (all its kills, its calibrated operation counts, its workers' store
// calls logged); for an in-process workload it is two kills of a ring whose
// grid is the workload's state size.
func (b *bench) launchProbe() (*runOut, []recoveryPhases) {
	w, opsPerIter, kills, ref := b.w, b.opsPerIter, b.w.Kills, b.refFaulted
	if !b.w.Distributed {
		ring := ringWorkload()
		w = workload{Name: b.w.Name, App: "ring", Distributed: true, Ring: b.w.Ring,
			FEveryN: ring.FEveryN, FKillAfter: ring.FKillAfter, Kills: 2}
		kills = w.Kills
		// The same problem, fault-free and in-process: its operation counts
		// place the kills and its result is what the killed run must equal.
		var ops [ranks]atomic.Int64
		cal := runSpec{label: "launch-probe-reference", mode: protocol.Full, everyN: w.FEveryN, seed: b.seed, dir: b.dir("launch-probe-reference"),
			prog: withOpCount(ringProgram(*w.ringFor(w.faultedIters(), w.FEveryN, b.seed)), &ops)}
		co := execute(cal)
		if !b.check(co, "", expectedCkpts(w.faultedIters(), w.FEveryN)) {
			return nil, nil
		}
		ref = co.value
		for r := range opsPerIter {
			opsPerIter[r] = float64(ops[r].Load()) / float64(w.faultedIters())
		}
	}
	s := runSpec{label: "launch-probe", mode: protocol.Full, everyN: w.FEveryN, seed: b.seed, dir: b.dir("launch-probe"),
		ring: w.ringFor(w.faultedIters(), w.FEveryN, b.seed), kills: w.killSchedule(kills, opsPerIter, b.seed)}
	if b.w.Distributed {
		s.rec = newRecorder(b.w.Name + "/traced-faulted")
	}
	o := execute(s)
	if !b.check(o, ref, 0) {
		return nil, nil
	}
	return o, b.recoveries(o)
}

func ringWorkload() workload {
	w, _ := findWorkload("ring-recover")
	return w
}

// layerMetrics fills in everything that comes from executions: version
// differences, the traced wrappers' counters, the protocol's own counters
// and the recovery phases.
func (b *bench) layerMetrics(t1, t2, t3, t4 *runOut, inproc, phases []recoveryPhases, gatherMs []float64) {
	m := b.res.Metrics
	v := func(mode protocol.Mode) float64 { return median(b.samples["v/"+mode.String()]) }
	nv := len(b.samples["v/full"])
	diff := func(a, c protocol.Mode) metric {
		x := single("s", v(a)-v(c))
		x.N = nv
		return x
	}
	m["protocol.piggyback_cost_s"] = diff(protocol.PiggybackOnly, protocol.Unmodified)
	m["protocol.coord_cost_s"] = diff(protocol.NoAppState, protocol.PiggybackOnly)
	m["ckpt.state_cost_s"] = diff(protocol.Full, protocol.NoAppState)
	b.res.Extra["version_s"] = map[string]float64{
		"unmodified": v(protocol.Unmodified), "piggyback-only": v(protocol.PiggybackOnly),
		"no-app-state": v(protocol.NoAppState), "full": v(protocol.Full),
	}
	m["bench.trace_overhead_pct"] = single("%", 100*(t1.scaledS()/v(protocol.Full)-1))

	// mpi: the transport wrapper's counters, all ranks, fault-free traced run.
	var mc mpiCounters
	for r := 0; r < ranks && len(t2.incs) > 0; r++ {
		c := t2.incs[0].counters(r)
		mc.Sends, mc.SendBytes, mc.SendNs = mc.Sends+c.Sends, mc.SendBytes+c.SendBytes, mc.SendNs+c.SendNs
		mc.RecvWaitNs, mc.Polls, mc.PollHits = mc.RecvWaitNs+c.RecvWaitNs, mc.Polls+c.Polls, mc.PollHits+c.PollHits
	}
	m["mpi.sends"] = single("count", float64(mc.Sends))
	m["mpi.send_bytes"] = single("bytes", float64(mc.SendBytes))
	m["mpi.send_busy_ms"] = single("ms", float64(mc.SendNs)/1e6)
	m["mpi.recv_wait_ms"] = single("ms", float64(mc.RecvWaitNs)/1e6)
	m["mpi.poll_hit_ratio"] = single("ratio", ratio(float64(mc.PollHits), float64(mc.Polls)))

	// protocol and ckpt: the layer's own counters (final frame of every
	// rank) of the traced fault-free run, plus the tracer's commit times.
	var st protocol.Stats
	for _, s := range t1.stats {
		st.Add(s)
	}
	ck := float64(max(t1.committed, 1))
	m["protocol.control_msgs_per_ckpt"] = single("count", float64(st.ControlMessages)/ck)
	m["protocol.control_collectives"] = single("count", float64(st.ControlCollectives))
	m["protocol.late_logged"] = single("count", float64(st.LateLogged))
	m["protocol.log_bytes"] = single("bytes", float64(st.LogBytes))
	m["protocol.flush_ms_per_ckpt"] = single("ms", ratio(float64(st.CheckpointFlushNs)/1e6, float64(st.CheckpointsTaken)))
	m["protocol.flush_throttle_ms"] = single("ms", float64(st.FlushThrottleNs)/1e6)
	m["protocol.ckpts_committed"] = single("count", float64(t1.committed))
	if t2.tracer != nil {
		m["protocol.commit_ms"] = fromSamples("ms", t2.tracer.commitMs())
	}
	m["ckpt.copied_ratio"] = single("ratio", ratio(float64(st.CheckpointBytesCopied), float64(st.CheckpointBytes)))
	m["ckpt.regions_dirty_ratio"] = single("ratio", ratio(float64(st.CheckpointRegionsDirty), float64(st.CheckpointRegions)))
	m["ckpt.blocked_ms_p50"] = fromSamples("ms", b.samples["blocked_ms"])
	m["protocol.durable_ms_p50"] = fromSamples("ms", b.samples["durable_ms"])
	m["ckpt.first_blocked_ms"] = fromSamples("ms", b.samples["first_blocked_ms"])
	tail, pct, ok := tailRule(b.samples["blocked_ms"])
	bt := single("ms", tail)
	bt.N = len(b.samples["blocked_ms"])
	bt.Note = fmt.Sprintf("p%.0f: the highest percentile with ten samples beyond it", pct)
	if !ok {
		bt.Note = "under eleven samples: the maximum, not a percentile"
	}
	m["ckpt.blocked_ms_tail"] = bt

	// storage: the write side from the fault-free traced run, the read side
	// from the traced faulted run on the workload's own substrate (recovery
	// is what reads).
	wr, rd := t1.store, storeCounters{}
	switch {
	case b.w.Distributed && t4 != nil:
		rd = t4.store
	case !b.w.Distributed && t3 != nil:
		rd = t3.store
	}
	m["storage.puts"] = single("count", float64(wr.Puts))
	m["storage.put_bytes"] = single("bytes", float64(wr.PutBytes))
	m["storage.put_busy_ms"] = single("ms", float64(wr.PutNs)/1e6)
	m["storage.has_calls"] = single("count", float64(wr.Has))
	m["storage.has_hit_ratio"] = single("ratio", ratio(float64(wr.HasHits), float64(wr.Has)))
	m["storage.prune_busy_ms"] = single("ms", float64(wr.ListNs+wr.DeleteNs)/1e6)
	m["storage.deletes"] = single("count", float64(wr.Deletes))
	m["storage.gets"] = single("count", float64(rd.Gets))
	m["storage.get_bytes"] = single("bytes", float64(rd.GetBytes))
	m["storage.get_busy_ms"] = single("ms", float64(rd.GetNs)/1e6)

	// engine: the in-process recovery driver.
	var rec, reads []float64
	for _, p := range inproc {
		rec = append(rec, p.RecoverMs)
	}
	for _, n := range t3.recoveryReads {
		reads = append(reads, float64(n))
	}
	var retained int64
	for _, f := range lastFrames(t3.frames) {
		retained += f.Stats.RecoveredFromRetained
	}
	m["engine.recover_inproc_ms"] = fromSamples("ms", rec)
	m["engine.store_reads_per_recovery"] = fromSamples("count", reads)
	m["engine.retained_restores"] = single("count", float64(retained))
	m["engine.gather_recovery_ms"] = fromSamples("ms", gatherMs)

	// launch: the distributed recovery phases.
	var spawn, detect, respawn, restore, reexec []float64
	if t4 != nil {
		var first int64
		for r := range t4.stamps {
			if len(t4.stamps[r]) > 0 && len(t4.stamps[r][0]) > 0 {
				first = max(first, t4.stamps[r][0][0].AtNs)
			}
		}
		spawn = append(spawn, float64(first-t4.startNs)/1e6)
	}
	for _, p := range phases {
		detect, respawn = append(detect, p.DetectMs), append(respawn, p.RespawnMs)
		restore, reexec = append(restore, p.RestoreMs), append(reexec, p.ReexecMs)
	}
	m["launch.spawn_ms"] = fromSamples("ms", spawn)
	m["launch.detect_ms"] = fromSamples("ms", detect)
	m["launch.respawn_ms"] = fromSamples("ms", respawn)
	m["launch.restore_ms"] = fromSamples("ms", restore)
	m["launch.reexec_ms"] = fromSamples("ms", reexec)
	if gap := identityGap(phases); len(phases) > 0 {
		b.res.Extra["launch_identity_gap_pct"] = 100 * gap
		if gap > 0.05 || gap < -0.05 {
			b.warn("launch: detect + respawn + restore is %.1f%% away from recover (mean over %d kills)", 100*gap, len(phases))
		}
	}
}

func ratio(a, c float64) float64 {
	if c == 0 {
		return 0
	}
	return a / c
}

// probeMetrics runs the direct layer probes.
func (b *bench) probeMetrics() {
	m := b.res.Metrics
	pp, stream, ag := probeMPI(b.w.MsgBytes)
	m["mpi.pingpong_us"] = fromSamples("us", pp)
	m["mpi.stream_MBps"] = fromSamples("MB/s", stream)
	m["mpi.allgather_us"] = fromSamples("us", ag)

	fpp, fag := probeProtocol(b.w.MsgBytes)
	m["protocol.pingpong_full_us"] = fromSamples("us", fpp)
	m["protocol.allgather_full_us"] = fromSamples("us", fag)

	tpp, tstream, mesh, err := probeTCP(b.w.MsgBytes)
	if err != nil {
		b.fail("tcptransport probe: %v", err)
	}
	m["tcptransport.pingpong_us"] = fromSamples("us", tpp)
	m["tcptransport.stream_MBps"] = fromSamples("MB/s", tstream)
	m["tcptransport.mesh_setup_ms"] = single("ms", mesh)

	cp, err := probeCkpt(len(b.data), b.w.DirtyFrac)
	if err != nil {
		b.fail("ckpt probe: %v", err)
	}
	m["ckpt.freeze_full_MBps"] = fromSamples("MB/s", cp.freezeFullMBps)
	m["ckpt.freeze_incr_ms"] = fromSamples("ms", cp.freezeIncrMs)
	m["ckpt.writeto_MBps"] = fromSamples("MB/s", cp.writeToMBps)
	m["ckpt.restore_MBps"] = fromSamples("MB/s", cp.restoreMBps)

	sp, err := probeStorage(b.dir("storage-probe"), b.data)
	if err != nil {
		b.fail("storage probe: %v", err)
	}
	m["storage.chunkwrite_mem_MBps"] = fromSamples("MB/s", sp.chunkMemMBps)
	m["storage.chunkwrite_disk_MBps"] = fromSamples("MB/s", sp.chunkDiskMBps)
	m["storage.rewrite_disk_MBps"] = fromSamples("MB/s", sp.rewriteDiskMBps)
	m["storage.assemble_MBps"] = fromSamples("MB/s", sp.assembleMBps)
	m["storage.disk_put_ms"] = fromSamples("ms", sp.diskPutMs)
	m["storage.commit_ms"] = fromSamples("ms", sp.commitMs)
}
