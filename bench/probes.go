package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccift/internal/ckpt"
	"ccift/internal/mpi"
	"ccift/internal/mpi/tcptransport"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// Direct layer probes: timed calls into each layer's public functions,
// shaped like the workload (its state size, dirty fraction and message
// size). They say how fast a layer is at this workload's operating point
// when nothing else runs; the traced run says how much of that the
// workload actually used.

const mb = 1 << 20

// endpoint is one rank's view of a message layer, so the same three probes
// run over a bare communicator, over TCP and over the protocol layer.
type endpoint struct {
	send      func(dst, tag int, b []byte)
	recv      func(src, tag int) []byte
	allgather func(b []byte) []byte
}

func commEndpoint(c *mpi.Comm) endpoint {
	return endpoint{
		send:      c.Send,
		recv:      func(src, tag int) []byte { return c.Recv(src, tag).Data },
		allgather: c.Allgather,
	}
}

func layerEndpoint(l *protocol.Layer) endpoint {
	return endpoint{
		send:      l.Send,
		recv:      func(src, tag int) []byte { return l.Recv(src, tag).Data },
		allgather: l.Allgather,
	}
}

// both runs f0 as rank 0 on the calling goroutine and f1 as rank 1 beside
// it, and returns how long rank 0 took.
func both(f0, f1 func()) time.Duration {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f1() }()
	start := time.Now()
	f0()
	d := time.Since(start)
	wg.Wait()
	return d
}

// messageProbes measures round-trip latency, one-way throughput and
// allgather latency between two endpoints at one message size.
func messageProbes(e0, e1 endpoint, msgBytes int) (pingpongUs, streamMBps, allgatherUs []float64) {
	msg := make([]byte, msgBytes)
	const batches, rounds, burst = 5, 200, 400
	for b := 0; b < batches; b++ {
		d := both(func() {
			for i := 0; i < rounds; i++ {
				e0.send(1, 1, msg)
				e0.recv(1, 1)
			}
		}, func() {
			for i := 0; i < rounds; i++ {
				e1.recv(0, 1)
				e1.send(0, 1, msg)
			}
		})
		pingpongUs = append(pingpongUs, float64(d.Microseconds())/rounds)

		d = both(func() {
			for i := 0; i < burst; i++ {
				e0.send(1, 2, msg)
			}
			e0.recv(1, 3)
		}, func() {
			for i := 0; i < burst; i++ {
				e1.recv(0, 2)
			}
			e1.send(0, 3, []byte{1})
		})
		streamMBps = append(streamMBps, float64(burst*msgBytes)/mb/d.Seconds())

		d = both(func() {
			for i := 0; i < rounds; i++ {
				e0.allgather(msg)
			}
		}, func() {
			for i := 0; i < rounds; i++ {
				e1.allgather(msg)
			}
		})
		allgatherUs = append(allgatherUs, float64(d.Microseconds())/rounds)
	}
	return
}

// probeMPI runs the message probes over the in-process substrate.
func probeMPI(msgBytes int) (pingpongUs, streamMBps, allgatherUs []float64) {
	w := mpi.NewWorld(ranks, mpi.Options{})
	return messageProbes(commEndpoint(w.Comm(0)), commEndpoint(w.Comm(1)), msgBytes)
}

// probeProtocol runs them through two Full-mode protocol layers (piggyback,
// control polling, counting — no checkpoint is ever requested).
func probeProtocol(msgBytes int) (pingpongUs, allgatherUs []float64) {
	w := mpi.NewWorld(ranks, mpi.Options{})
	cs := storage.NewCheckpointStore(storage.NewMemory())
	var ls [ranks]*protocol.Layer
	for r := range ls {
		ls[r] = protocol.NewLayer(w.Comm(r), protocol.Config{Mode: protocol.Full, Store: cs, AsyncFlush: true, IncrementalFreeze: true})
	}
	pingpongUs, _, allgatherUs = messageProbes(layerEndpoint(ls[0]), layerEndpoint(ls[1]), msgBytes)
	return
}

// probeTCP brings up a two-rank loopback mesh of tcptransports inside this
// process and runs the message probes over it. meshSetupMs is New through
// the first completed round trip.
func probeTCP(msgBytes int) (pingpongUs, streamMBps []float64, meshSetupMs float64, err error) {
	start := time.Now()
	addrs := make([]string, ranks)
	_, lookup := tcptransport.StaticRendezvous(addrs)
	var ts [ranks]*tcptransport.Transport
	for r := range ts {
		ts[r], err = tcptransport.New(tcptransport.Config{
			Rank: r, Size: ranks, Lookup: lookup,
			Publish:        func(int, string) error { return nil },
			SuspectTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, nil, 0, err
		}
		defer ts[r].Close()
		addrs[r] = ts[r].Addr()
	}
	var e [ranks]endpoint
	for r := range ts {
		w := mpi.NewWorld(ranks, mpi.Options{NewTransport: ts[r].Attach})
		e[r] = commEndpoint(w.Comm(r))
	}
	for r := range ts {
		if err = ts[r].Start(); err != nil {
			return nil, nil, 0, err
		}
	}
	both(func() { e[0].send(1, 9, []byte{1}); e[0].recv(1, 9) },
		func() { e[1].recv(0, 9); e[1].send(0, 9, []byte{1}) })
	meshSetupMs = float64(time.Since(start).Microseconds()) / 1e3
	pingpongUs, streamMBps, _ = messageProbes(e[0], e[1], msgBytes)
	// Announce completion so the peer's close is not taken for a death.
	for r := range ts {
		ts[r].AnnounceDone()
	}
	return pingpongUs, streamMBps, meshSetupMs, nil
}

// discardSection is a SectionWriter that drops everything: WriteTo's cost
// without any store behind it.
type discardSection struct{}

func (discardSection) Write(p []byte) (int, error) { return len(p), nil }
func (discardSection) Cut() error                  { return nil }

type ckptProbe struct {
	freezeFullMBps, freezeIncrMs, writeToMBps, restoreMBps []float64
}

// probeCkpt times the state-saving runtime on one registered grid of the
// workload's state size, of which dirtyFrac is touched between freezes.
func probeCkpt(stateBytes int, dirtyFrac float64) (ckptProbe, error) {
	var p ckptProbe
	n := max(stateBytes/8, 1)
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = float64(i%977) * 0.5
	}
	dirty := min(max(int(float64(n)*dirtyFrac), 1), n)
	const reps = 5

	full := ckpt.NewSaver()
	if err := full.VDS.Push("grid", &grid); err != nil {
		return p, err
	}
	for i := 0; i <= reps; i++ {
		start := time.Now()
		f, err := full.Freeze()
		d := time.Since(start)
		if err != nil {
			return p, err
		}
		f.Release()
		if i > 0 { // the first freeze allocates the slabs the rest reuse
			p.freezeFullMBps = append(p.freezeFullMBps, float64(n*8)/mb/d.Seconds())
		}
	}

	incr := ckpt.NewSaver()
	incr.Incremental = true
	if err := incr.VDS.Push("grid", &grid); err != nil {
		return p, err
	}
	var blob []byte
	for i := 0; i <= reps; i++ {
		off := (i * dirty) % (n - dirty + 1)
		grid[off] += 1
		if err := incr.VDS.TouchRange("grid", off, dirty); err != nil {
			return p, err
		}
		start := time.Now()
		f, err := incr.Freeze()
		d := time.Since(start)
		if err != nil {
			return p, err
		}
		if i > 0 { // the first incremental freeze is a full one
			p.freezeIncrMs = append(p.freezeIncrMs, float64(d.Microseconds())/1e3)
			start = time.Now()
			if err := f.WriteTo(discardSection{}); err != nil {
				return p, err
			}
			p.writeToMBps = append(p.writeToMBps, float64(f.StateBytes())/mb/time.Since(start).Seconds())
		}
		if i == reps {
			if blob, err = f.Snapshot(); err != nil {
				return p, err
			}
		}
		f.Release()
	}

	for i := 0; i < reps; i++ {
		var dst []float64
		r := ckpt.NewSaver()
		start := time.Now()
		if err := r.StartRestore(blob); err != nil {
			return p, err
		}
		if err := r.VDS.Push("grid", &dst); err != nil {
			return p, err
		}
		p.restoreMBps = append(p.restoreMBps, float64(len(blob))/mb/time.Since(start).Seconds())
		if len(dst) != n || dst[0] != grid[0] || dst[n-1] != grid[n-1] || dst[n/2] != grid[n/2] {
			return p, fmt.Errorf("ckpt probe: restored grid differs from the frozen one")
		}
	}
	return p, nil
}

type storageProbe struct {
	chunkMemMBps, chunkDiskMBps, rewriteDiskMBps, assembleMBps, diskPutMs, commitMs []float64
}

// fixture is the incompressible, seed-derived blob the storage probes
// write: one workload state's worth of bytes that share no chunk.
func fixture(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// probeStorage times the chunked writer and the disk store on data.
// Every read-back is compared with what was written.
func probeStorage(dir string, data []byte) (storageProbe, error) {
	var p storageProbe
	size := float64(len(data)) / mb
	write := func(s storage.Stable, key string) (time.Duration, error) {
		w := storage.NewChunkedWriter(context.Background(), s, key, 0).Pipeline(0)
		defer w.Abort()
		start := time.Now()
		if _, err := w.Write(data); err != nil {
			return 0, err
		}
		_, _, err := w.Commit()
		return time.Since(start), err
	}
	const reps = 3
	for i := 0; i < reps; i++ {
		d, err := write(storage.NewMemory(), "blob")
		if err != nil {
			return p, err
		}
		p.chunkMemMBps = append(p.chunkMemMBps, size/d.Seconds())

		disk, err := storage.NewDisk(filepath.Join(dir, fmt.Sprintf("probe-%d", i)))
		if err != nil {
			return p, err
		}
		if d, err = write(disk, "blob.a"); err != nil {
			return p, err
		}
		p.chunkDiskMBps = append(p.chunkDiskMBps, size/d.Seconds())
		if d, err = write(disk, "blob.b"); err != nil {
			return p, err
		}
		p.rewriteDiskMBps = append(p.rewriteDiskMBps, size/d.Seconds())

		man, err := disk.Get("blob.b")
		if err != nil {
			return p, err
		}
		start := time.Now()
		back, err := storage.Assemble(disk, man)
		d = time.Since(start)
		if err != nil {
			return p, err
		}
		if !bytes.Equal(back, data) {
			return p, fmt.Errorf("storage probe: Assemble returned different bytes than were written")
		}
		p.assembleMBps = append(p.assembleMBps, size/d.Seconds())
	}

	disk, err := storage.NewDisk(filepath.Join(dir, "probe-put"))
	if err != nil {
		return p, err
	}
	chunk := fixture(int64(len(data))+7, storage.DefaultChunkSize)
	cs := storage.NewCheckpointStore(disk)
	for i := 0; i < 5; i++ {
		chunk[0] = byte(i)
		start := time.Now()
		if err := disk.Put(fmt.Sprintf("ckpt/chunks/probe%d", i), chunk); err != nil {
			return p, err
		}
		p.diskPutMs = append(p.diskPutMs, float64(time.Since(start).Microseconds())/1e3)
		start = time.Now()
		if err := cs.Commit(i + 1); err != nil {
			return p, err
		}
		p.commitMs = append(p.commitMs, float64(time.Since(start).Microseconds())/1e3)
	}
	if e, ok, err := cs.Committed(); err != nil || !ok || e != 5 {
		return p, fmt.Errorf("storage probe: commit record reads back %d,%v,%v, want 5", e, ok, err)
	}
	return p, os.RemoveAll(dir)
}

// probeGather times the recovery gather on a finished run's store.
func probeGather(storeDir string, epoch int) ([]float64, error) {
	disk, err := storage.NewDisk(storeDir)
	if err != nil {
		return nil, err
	}
	cs := storage.NewCheckpointStore(disk)
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := protocol.GatherRecovery(cs, epoch, ranks); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(start).Microseconds())/1e3)
	}
	return ms, nil
}
