package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ccift/internal/engine"
	"ccift/internal/launch"
	"ccift/internal/mpi"
	"ccift/internal/protocol"
	"ccift/internal/storage"
)

// ringParams describes the benchmark-owned ring program: every rank holds
// one registered grid, rewrites a rotating eighth of it per checkpoint
// interval (declaring the writes with TouchRange), and trades a message
// with its neighbours every iteration. It exists because the recovery
// workload needs what the paper's three applications cannot give from
// outside: a partly-dirty state of chosen size and progress stamps that
// survive a SIGKILL.
type ringParams struct {
	GridBytes int   `json:"grid_bytes"`
	MsgBytes  int   `json:"msg_bytes"`
	Iters     int   `json:"iters"`
	EveryN    int   `json:"every_n"`
	Passes    int   `json:"passes"` // compute passes over one strip per iteration
	Seed      int64 `json:"seed"`
	// StampDir, when set, receives one progress file per rank; it lives
	// outside registered state so a restore does not rewind it. Distributed
	// executions always set it: the stamps are the only clock that survives
	// a SIGKILL, and the 'D' stamp ends the execution's wall time.
	StampDir string `json:"stamp_dir,omitempty"`
}

const (
	ringWindows = 8    // the grid is rewritten one eighth at a time
	ringStrip   = 8192 // float64s rewritten per iteration
)

func (p ringParams) stateBytes() int64 { return int64(p.GridBytes) }

// ringProgram builds the program. Every rank returns the same checksum.
func ringProgram(p ringParams) engine.Program {
	return func(r *engine.Rank) (any, error) {
		st := openStamps(p.StampDir, r)
		defer st.close()
		st.write('E', 0)

		n := p.GridBytes / 8
		wlen := n / ringWindows
		strip := min(ringStrip, wlen)
		msgN := min(p.MsgBytes/8, strip)
		stripsPerWindow := wlen / strip
		me, size := r.Rank(), r.Size()
		right, left := (me+1)%size, (me+size-1)%size

		var it int
		var acc float64
		grid := make([]float64, n)
		r.Register("it", &it)
		r.Register("acc", &acc)
		r.Register("grid", &grid)
		order := rand.New(rand.NewSource(p.Seed)).Perm(ringWindows)
		if !r.Restarting() {
			rng := rand.New(rand.NewSource(p.Seed*31 + int64(me) + 1))
			for i := range grid {
				grid[i] = rng.Float64()
			}
		}

		out := make([]float64, msgN)
		for ; it < p.Iters; it++ {
			r.PotentialCheckpoint()
			st.write('I', it)

			w := order[(it/p.EveryN)%ringWindows]
			off := w*wlen + (it%stripsPerWindow)*strip
			s := grid[off : off+strip]
			copy(out, s[:msgN])
			r.Send(right, 1, mpi.F64Bytes(out))
			in := mpi.BytesF64(r.Recv(left, 1).Data)
			for pass := 0; pass < p.Passes; pass++ {
				for base := 0; base < strip; base += msgN {
					for i, v := range in[:min(msgN, strip-base)] {
						s[base+i] = 0.75*s[base+i] + 0.25*v
					}
				}
			}
			acc += s[strip/2]
			r.TouchRange("grid", off, strip)
		}

		local := 0.0
		for i, v := range grid {
			local += v * float64(1+i%7)
		}
		g := r.AllreduceF64([]float64{local, acc}, mpi.SumF64)
		st.write('D', it)
		settle(r)
		return fmt.Sprintf("%.9f/%.9f", math.Round(g[0]*1e6)/1e6, math.Round(g[1]*1e6)/1e6), nil
	}
}

// --- progress stamps ---

// stampFile appends "kind iteration unix_ns ops pid" lines for one rank.
// Each line is one unbuffered write, so everything up to a SIGKILL is on
// disk; the kill itself happens at a substrate call, never inside a write.
type stampFile struct {
	f    *os.File
	rank *engine.Rank
}

func openStamps(dir string, r *engine.Rank) *stampFile {
	if dir == "" {
		return nil
	}
	f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("stamps.%04d", r.Rank())), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		panic(fmt.Sprintf("ring: open stamp file: %v", err))
	}
	return &stampFile{f: f, rank: r}
}

func (s *stampFile) write(kind byte, iter int) {
	if s == nil {
		return
	}
	ops := s.rank.Layer().Comm().World().OpCount(s.rank.Rank())
	fmt.Fprintf(s.f, "%c %d %d %d %d\n", kind, iter, time.Now().UnixNano(), ops, os.Getpid())
}

func (s *stampFile) close() {
	if s != nil {
		s.f.Close()
	}
}

// stamp is one parsed progress line. Kind 'E' is a program entry (one per
// incarnation of that rank), 'I' the top of an iteration, 'D' the program's
// last statement before it returns.
type stamp struct {
	Kind byte
	Iter int
	AtNs int64
	Ops  int64
	Pid  int
}

// parseStamps reads one rank's stamp file; a torn or foreign line ends the
// parse (nothing after it can be trusted to be in order).
func parseStamps(data string) []stamp {
	var out []stamp
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 5 || len(f[0]) != 1 {
			break
		}
		iter, e1 := strconv.Atoi(f[1])
		at, e2 := strconv.ParseInt(f[2], 10, 64)
		ops, e3 := strconv.ParseInt(f[3], 10, 64)
		pid, e4 := strconv.Atoi(f[4])
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil {
			break
		}
		out = append(out, stamp{Kind: f[0][0], Iter: iter, AtNs: at, Ops: ops, Pid: pid})
	}
	return out
}

// readStamps loads every rank's stamps from dir, split into incarnations:
// result[rank][k] holds the stamps from that rank's k-th program entry up
// to its next one.
func readStamps(dir string, ranks int) ([][][]stamp, error) {
	out := make([][][]stamp, ranks)
	for r := 0; r < ranks; r++ {
		b, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("stamps.%04d", r)))
		if err != nil {
			return nil, err
		}
		out[r] = splitIncarnations(parseStamps(string(b)))
	}
	return out, nil
}

func splitIncarnations(ss []stamp) [][]stamp {
	var out [][]stamp
	for _, s := range ss {
		if s.Kind == 'E' || len(out) == 0 {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], s)
	}
	return out
}

// --- worker role ---

// workerArgs is what the launcher passes its re-exec'd workers (as one
// JSON argument after "-ringworker").
type workerArgs struct {
	Ring   ringParams `json:"ring"`
	Mode   int        `json:"mode"`
	EveryN int        `json:"every_n"`
	// OpsLog, when set, makes the worker wrap its store and append one
	// line per call to <OpsLog>.<rank>.<pid> (the traced distributed run).
	OpsLog string `json:"ops_log,omitempty"`
	// MemDir, when set, makes the worker sample its own live heap and keep
	// the peak in <MemDir>/mem.<rank>.<pid>.
	MemDir string `json:"mem_dir,omitempty"`
}

// workerMain is the distributed substrate's worker role: the benchmark
// binary re-exec'd by internal/launch. It never returns.
func workerMain() {
	var wa workerArgs
	if len(os.Args) != 3 || os.Args[1] != "-ringworker" || json.Unmarshal([]byte(os.Args[2]), &wa) != nil {
		fmt.Fprintln(os.Stderr, "bench worker: want -ringworker <json>")
		os.Exit(2)
	}
	rank := os.Getenv("CCIFT_RANK")
	if wa.MemDir != "" {
		go sampleHeapToFile(filepath.Join(wa.MemDir, fmt.Sprintf("mem.%s.%d", rank, os.Getpid())))
	}
	app := launch.WorkerApp{
		Prog:   ringProgram(wa.Ring),
		EveryN: wa.EveryN,
		Seed:   wa.Ring.Seed,
		Mode:   protocol.Mode(wa.Mode),
	}
	if wa.OpsLog != "" {
		f, err := os.OpenFile(fmt.Sprintf("%s.%s.%d", wa.OpsLog, rank, os.Getpid()), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench worker: %v\n", err)
			os.Exit(2)
		}
		app.WrapStore = func(s storage.Stable) storage.Stable { return &loggedStore{inner: s, f: f} }
	}
	launch.WorkerMain(app)
}

// heapObjects is the live-heap metric: bytes in reachable and
// not-yet-swept objects, read without stopping the world.
const heapObjects = "/memory/classes/heap/objects:bytes"

func readHeapObjects(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampleHeapToFile samples the worker's live heap every 10 ms for the
// life of the process and rewrites the file whenever the peak grows (the
// worker ends in os.Exit or SIGKILL, so there is no later moment to report).
func sampleHeapToFile(path string) {
	s := []metrics.Sample{{Name: heapObjects}}
	var peak uint64
	for range time.Tick(10 * time.Millisecond) {
		if v := readHeapObjects(s); v > peak {
			peak = v
			_ = os.WriteFile(path, []byte(strconv.FormatUint(peak, 10)), 0o644)
		}
	}
}

// heapSampler is the in-process form: a 10 ms sampler the benchmark runs
// around one execution.
type heapSampler struct {
	// base is the live heap when sampling began (right after a collection):
	// the benchmark's own fixtures and probe buffers, not the execution's.
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	s := []metrics.Sample{{Name: heapObjects}}
	h := &heapSampler{base: readHeapObjects(s), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if v := readHeapObjects(s); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns how far the live heap
// rose above where it started, in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load() - min(h.base, h.peak.Load())
}

// loggedStore is the worker-side storage wrapper of the traced distributed
// run: one appended line per call ("op key bytes hit start_ns end_ns"), so
// the launcher can rebuild counters and spans from every worker, including
// ones that were killed.
type loggedStore struct {
	inner storage.Stable
	f     *os.File
}

func (l *loggedStore) log(op, key string, n int, hit bool, start time.Time) {
	h := 0
	if hit {
		h = 1
	}
	fmt.Fprintf(l.f, "%s %s %d %d %d %d\n", op, key, n, h, start.UnixNano(), time.Now().UnixNano())
}

func (l *loggedStore) Put(key string, data []byte) error {
	start := time.Now()
	err := l.inner.Put(key, data)
	l.log("Put", key, len(data), false, start)
	return err
}

func (l *loggedStore) Get(key string) ([]byte, error) {
	start := time.Now()
	b, err := l.inner.Get(key)
	l.log("Get", key, len(b), err == nil, start)
	return b, err
}

func (l *loggedStore) Has(key string) (bool, error) {
	start := time.Now()
	ok, err := storage.Has(l.inner, key)
	l.log("Has", key, 0, ok, start)
	return ok, err
}

func (l *loggedStore) Delete(key string) error {
	start := time.Now()
	err := l.inner.Delete(key)
	l.log("Delete", key, 0, false, start)
	return err
}

func (l *loggedStore) List(prefix string) ([]string, error) {
	start := time.Now()
	keys, err := l.inner.List(prefix)
	l.log("List", prefix, len(keys), false, start)
	return keys, err
}

// readOpsLogs folds every worker's op log under prefix into counters and
// storage spans (rank taken from the file name).
func readOpsLogs(prefix string, rec *recorder) (storeCounters, error) {
	var c storeCounters
	files, err := filepath.Glob(prefix + ".*")
	if err != nil {
		return c, err
	}
	for _, path := range files {
		parts := strings.Split(strings.TrimPrefix(path, prefix+"."), ".")
		rank, _ := strconv.Atoi(parts[0])
		b, err := os.ReadFile(path)
		if err != nil {
			return c, err
		}
		sc := bufio.NewScanner(strings.NewReader(string(b)))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 6 {
				continue
			}
			n, _ := strconv.ParseInt(f[2], 10, 64)
			start, _ := strconv.ParseInt(f[4], 10, 64)
			end, _ := strconv.ParseInt(f[5], 10, 64)
			switch f[0] {
			case "Put":
				c.Puts, c.PutBytes, c.PutNs = c.Puts+1, c.PutBytes+n, c.PutNs+end-start
			case "Get":
				c.Gets, c.GetBytes, c.GetNs = c.Gets+1, c.GetBytes+n, c.GetNs+end-start
			case "Has":
				c.Has, c.HasNs = c.Has+1, c.HasNs+end-start
				if f[3] == "1" {
					c.HasHits++
				}
			case "List":
				c.Lists, c.ListNs = c.Lists+1, c.ListNs+end-start
			case "Delete":
				c.Deletes, c.DeleteNs = c.Deletes+1, c.DeleteNs+end-start
			}
			if rec != nil {
				epoch, keyRank, _ := epochOfKey(f[1])
				if keyRank < 0 {
					keyRank = rank
				}
				rec.add(span{Name: "storage." + f[0], Layer: "storage", StartNs: start, EndNs: end, Rank: keyRank, Epoch: epoch})
			}
		}
	}
	return c, nil
}
