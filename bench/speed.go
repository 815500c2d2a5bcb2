package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The machine-speed probe. The guest this benchmark was calibrated on flips,
// for tens of seconds at a time, into a mode in which compute runs up to 2×
// slower, lock-step message exchange 1.6× and memory streaming 1.2×. Raw
// wall times of ten consecutive runs then spread by 15-30 %, which no bound
// the pipeline allows can hold. A fixed kernel timed next to every program
// execution tracks the mode: dividing an execution's wall time by the
// probe's slowdown brought the run-to-run spread of all three in-process
// applications from 11-26 % down to 6-8 % over ten minutes that contained
// several flips (an arithmetic-only probe over-corrected the memory-bound CG,
// a streaming-only one under-corrected the rest; the even blend was best on
// the worst of the three).
//
// speedFactor is 1 on this machine's normal mode and 2 when everything takes
// twice as long. Times to solution (setup_s, base_s, full_s, and recover_ms
// where recovery is pure CPU work) are reported divided by it: seconds at
// the reference speed. On another machine the nominal constants are off by
// a constant factor, the same for a parent commit and its change.
const (
	computeNominalMs = 28.6 // arithmetic kernel, this machine, normal mode
	streamNominalMs  = 17.6 // streaming kernel, same
)

var (
	probeSink atomic.Uint64
	// probeData is what the streaming kernel reads: 8 MB per core, past L2.
	// It is mapped outside the Go heap so that it neither counts in
	// mem_peak_mb nor moves the collector's pacing for the programs measured,
	// and lazily so that worker processes never map it.
	probeData = sync.OnceValue(func() [ranks][]float64 {
		var d [ranks][]float64
		for r := range d {
			const n = 1 << 20
			raw, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				panic("bench: map probe buffer: " + err.Error())
			}
			d[r] = unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
			for i := range d[r] {
				d[r][i] = float64(i & 1023)
			}
		}
		return d
	})
)

// onEveryCore runs kernel once per core at the same time and returns the
// wall time in milliseconds, best of two.
func onEveryCore(kernel func(core int) float64) float64 {
	best := 0.0
	for trial := 0; trial < 2; trial++ {
		var wg sync.WaitGroup
		start := time.Now()
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				probeSink.Add(uint64(kernel(r)))
			}(r)
		}
		wg.Wait()
		if d := float64(time.Since(start).Microseconds()) / 1e3; trial == 0 || d < best {
			best = d
		}
	}
	return best
}

// speedFactor times both kernels and returns the machine's current slowdown
// against its normal mode.
func speedFactor() float64 {
	compute := onEveryCore(func(int) float64 {
		s := 0.0
		for i := 0; i < 30_000_000; i++ {
			s += float64(i%7) * 1.0000001
		}
		return s
	})
	stream := onEveryCore(func(core int) float64 {
		s := 0.0
		for pass := 0; pass < 24; pass++ {
			for _, v := range probeData()[core] {
				s += v
			}
		}
		return s
	})
	return 0.5*compute/computeNominalMs + 0.5*stream/streamNominalMs
}

// speedTracker hands every execution the mean of the probe taken before it
// and the probe taken after it; back-to-back executions share a probe.
type speedTracker struct {
	last   float64
	lastAt time.Time
}

// before returns the factor as of now, re-probing only when the last probe
// is stale.
func (t *speedTracker) before() float64 {
	if time.Since(t.lastAt) > 500*time.Millisecond {
		t.last, t.lastAt = speedFactor(), time.Now()
	}
	return t.last
}

// after probes afresh and returns the mean with the given earlier reading.
func (t *speedTracker) after(before float64) float64 {
	t.last, t.lastAt = speedFactor(), time.Now()
	return (before + t.last) / 2
}
