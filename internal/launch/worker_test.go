package launch

// The worker's side of the contract, driven in-process: workerRun against a
// control stream whose launcher end the test holds.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"ccift/internal/cerr"
	"ccift/internal/engine"
	"ccift/internal/protocol"
	"ccift/internal/wire"
)

// statsFrame is a stats frame whose every counter holds a distinct value,
// set by reflection: a counter the layout drops or swaps reads back wrong.
func statsFrame() *ctlFrame {
	f := &ctlFrame{Kind: ctlStats, Incarnation: 2, Final: true}
	sv := reflect.ValueOf(&f.Stats).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(int64(i+1) * 1_000_003)
	}
	return f
}

func TestControlFrameRoundTrip(t *testing.T) {
	frames := []*ctlFrame{
		{Kind: ctlReady, Addr: "127.0.0.1:4242"},
		{Kind: ctlAbort, Incarnation: 3},
		{Kind: ctlStart, Incarnation: 1, Addrs: []string{"a:1", "b:2"}, KillAtOp: 77,
			Recovery: protocol.RankRecovery{Epoch: 4, Suppress: []uint32{9, 11}, Replicas: map[string][]byte{"table": {1, 2, 3}},
				Record: []byte("the rank's protocol record")}},
		statsFrame(),
	}
	var stream bytes.Buffer
	for _, f := range frames {
		if err := writeCtlFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	one := bytes.Clone(stream.Bytes()[:4+binary.LittleEndian.Uint32(stream.Bytes())])
	for _, want := range frames {
		got, err := readCtlFrame(&stream)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("read %+v, wrote %+v", got, want)
		}
	}

	// A stream that ends — cleanly or mid-frame — and one whose length word
	// lies are categorized errors, and the lie is refused before anything
	// of that size is allocated.
	huge := binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1)
	claims1GB := append(binary.LittleEndian.AppendUint32(nil, wire.MaxFrame), "only these bytes follow"...)
	for name, raw := range map[string][]byte{
		"end of stream":       nil,
		"truncated header":    one[:2],
		"truncated body":      one[:len(one)-1],
		"zero length":         {0, 0, 0, 0},
		"oversized length":    huge,
		"length beyond input": claims1GB,
		"garbage body":        {3, 0, 0, 0, 0xff, 0xfe, 0xfd},
	} {
		before := heapAlloc()
		f, err := readCtlFrame(bytes.NewReader(raw))
		if f != nil || !errors.Is(err, cerr.ErrTransport) {
			t.Errorf("%s: frame %v, err %v; want a cerr.ErrTransport error", name, f, err)
		}
		if grew := int64(heapAlloc()) - int64(before); grew > 1<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(raw), grew)
		}
	}
	if _, err := readCtlFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: %v does not match io.EOF", err)
	}
}

// FuzzReadCtlFrame: arbitrary bytes never panic the control-frame decoder
// and never make it allocate more than 1 MiB; a frame it accepts is written
// and read back unchanged.
func FuzzReadCtlFrame(f *testing.F) {
	for _, fr := range []*ctlFrame{
		{Kind: ctlReady, Addr: "127.0.0.1:4242"},
		{Kind: ctlAbort, Incarnation: 3},
		{Kind: ctlStart, Incarnation: 1, Addrs: []string{"a:1", "b:2"}, KillAtOp: 77,
			Recovery: protocol.RankRecovery{Epoch: -1, Suppress: []uint32{9, 1 << 31}, Replicas: map[string][]byte{"table": {1, 2, 3}, "": nil},
				Record: []byte{1, 2}}},
		statsFrame(),
	} {
		var b bytes.Buffer
		if err := writeCtlFrame(&b, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
		f.Add(b.Bytes()[:b.Len()-1])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f, byte(ctlStart)}) // claims 1 GiB, holds a byte
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 8<<10 {
			t.Skip()
		}
		before := heapAlloc()
		fr, err := readCtlFrame(bytes.NewReader(raw))
		if grew := heapAlloc() - before; grew > 1<<20 {
			t.Fatalf("allocated %d bytes reading %d", grew, len(raw))
		}
		if err != nil {
			if fr != nil || !errors.Is(err, cerr.ErrTransport) {
				t.Fatalf("frame %v, err %v; want no frame and a cerr.ErrTransport error", fr, err)
			}
			return
		}
		var again bytes.Buffer
		if err := writeCtlFrame(&again, fr); err != nil {
			t.Fatal(err)
		}
		back, err := readCtlFrame(&again)
		if err != nil || !reflect.DeepEqual(back, fr) {
			t.Fatalf("read %+v back as %+v (%v)", fr, back, err)
		}
	})
}

// heapAlloc is the cumulative number of bytes this process has allocated.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// workerEnv sets a well-formed worker environment for rank 0 of a one-rank
// world and returns the launcher's end of its control stream. The worker
// owns (and closes) the descriptors the environment names.
func workerEnv(t *testing.T) *os.File {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	setWorkerEnv(t, fds[1])
	launcher := os.NewFile(uintptr(fds[0]), "launcher-end")
	t.Cleanup(func() { launcher.Close() })
	return launcher
}

// setWorkerEnv sets a well-formed environment for rank 0 of a one-rank
// world around the control stream's descriptor number.
func setWorkerEnv(t *testing.T, ctlFD int) {
	for k, v := range map[string]string{
		envRank: "0", envRanks: "1", envStore: t.TempDir(), envDetector: "2000",
		envControlFD: strconv.Itoa(ctlFD),
	} {
		t.Setenv(k, v)
	}
}

func TestWorkerRejectsMalformedEnv(t *testing.T) {
	for _, bad := range []struct{ key, value string }{
		{envDetector, "soon"}, {envDetector, "0"},
		{envControlFD, "x"}, {envControlFD, "1"}, {envControlFD, ""},
	} {
		t.Run(bad.key+"="+bad.value, func(t *testing.T) {
			setWorkerEnv(t, 3) // never opened: validation comes first
			t.Setenv(bad.key, bad.value)
			code, err := workerRun(WorkerApp{})
			if code != cerr.CodeSpec || !errors.Is(err, cerr.ErrSpec) {
				t.Fatalf("code %d, err %v; want a hard spec error, not a silent default", code, err)
			}
		})
	}
}

// runWorker starts workerRun and returns how it ends.
func runWorker(app WorkerApp) <-chan int {
	done := make(chan int, 1)
	go func() {
		code, _ := workerRun(app)
		done <- code
	}()
	return done
}

// awaitExit fails the test unless the worker ends promptly — the old
// worker lingered 18 s parked, or computed to the end — with a failure code.
func awaitExit(t *testing.T, done <-chan int) {
	t.Helper()
	select {
	case code := <-done:
		if code == cerr.CodeOK {
			t.Fatal("an orphaned worker reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the worker outlived its control stream")
	}
}

func TestOrphanedWorkerExitsWhileParked(t *testing.T) {
	launcher := workerEnv(t)
	done := runWorker(WorkerApp{Mode: protocol.Full})
	if f, err := readCtlFrame(launcher); err != nil || f.Kind != ctlReady || f.Addr == "" {
		t.Fatalf("first frame %+v, err %v; want ready with the bound address", f, err)
	}
	launcher.Close()
	awaitExit(t, done)
}

func TestOrphanedWorkerEndsItsIncarnation(t *testing.T) {
	launcher := workerEnv(t)
	var once sync.Once
	entered := make(chan struct{})
	done := runWorker(WorkerApp{Mode: protocol.Full, Prog: func(r *engine.Rank) (any, error) {
		once.Do(func() { close(entered) })
		for { // never completes on its own
			r.Barrier()
		}
	}})
	ready, err := readCtlFrame(launcher)
	if err != nil {
		t.Fatal(err)
	}
	start := &ctlFrame{Kind: ctlStart, Addrs: []string{ready.Addr}, Recovery: protocol.RankRecovery{Epoch: -1}}
	if err := writeCtlFrame(launcher, start); err != nil {
		t.Fatal(err)
	}
	<-entered
	launcher.Close()
	awaitExit(t, done)
}
