package ccift_test

// Table-driven validation of the spec: misconfigurations that used to
// panic or hang deep inside a run must surface as descriptive errors at
// the API boundary.

import (
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ccift"
	"ccift/internal/engine"
	"ccift/internal/launch"
	"ccift/internal/protocol"
)

func TestSpecValidation(t *testing.T) {
	dist := ccift.Distributed{}
	cases := []struct {
		name string
		opts []ccift.Option
		want string // substring of the error; "" means the spec is valid
	}{
		{"defaults", nil, ""},
		{"valid-full", []ccift.Option{ccift.WithRanks(4), ccift.WithMode(ccift.Full), ccift.WithEveryN(5)}, ""},
		{"valid-interval", []ccift.Option{ccift.WithRanks(2), ccift.WithInterval(time.Second)}, ""},
		{"valid-distributed", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithDistributed(dist)}, ""},

		{"zero-ranks", []ccift.Option{ccift.WithRanks(0)}, "Ranks must be positive"},
		{"negative-ranks", []ccift.Option{ccift.WithRanks(-3)}, "Ranks must be positive"},
		{"negative-max-restarts", []ccift.Option{ccift.WithRanks(2), ccift.WithMaxRestarts(-1)}, "MaxRestarts"},
		{"negative-everyn", []ccift.Option{ccift.WithRanks(2), ccift.WithEveryN(-1)}, "EveryN"},
		{"negative-interval", []ccift.Option{ccift.WithRanks(2), ccift.WithInterval(-time.Second)}, "Interval"},
		{"conflicting-triggers", []ccift.Option{ccift.WithRanks(2), ccift.WithEveryN(5), ccift.WithInterval(time.Second)},
			"mutually exclusive"},
		{"failure-rank-out-of-range", []ccift.Option{ccift.WithRanks(2),
			ccift.WithFailures(ccift.Failure{Rank: 2, AtOp: 10})}, "out of range"},
		{"failure-negative-rank", []ccift.Option{ccift.WithRanks(2),
			ccift.WithFailures(ccift.Failure{Rank: -1, AtOp: 10})}, "out of range"},
		{"failure-zero-op", []ccift.Option{ccift.WithRanks(2),
			ccift.WithFailures(ccift.Failure{Rank: 0, AtOp: 0})}, "AtOp must be positive"},
		{"failure-negative-incarnation", []ccift.Option{ccift.WithRanks(2),
			ccift.WithFailures(ccift.Failure{Rank: 0, AtOp: 5, Incarnation: -1})}, "Incarnation"},

		{"distributed-with-inprocess-store", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full),
			ccift.WithStore(ccift.NewMemoryStore()), ccift.WithDistributed(dist)}, "StoreDir"},
		{"distributed-without-full", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.NoAppState),
			ccift.WithDistributed(dist)}, "require Full mode"},
		{"distributed-with-tracer", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full),
			ccift.WithTracer(nopTracer{}), ccift.WithDistributed(dist)}, "in-process only"},
		{"distributed-with-chaos", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full),
			ccift.WithChaos(7, false), ccift.WithDistributed(dist)}, "in-process only"},
		{"distributed-with-transport", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full),
			ccift.WithTransport(func(w *ccift.World) ccift.Transport { return nil }), ccift.WithDistributed(dist)},
			"mutually exclusive"},
		{"distributed-with-detector-timeout", []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full),
			ccift.WithDetectorTimeout(time.Second), ccift.WithDistributed(dist)}, "Distributed.DetectorTimeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ccift.NewSpec(tc.opts...).Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want an error mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestLaunchValidatesBeforeRunning pins that Launch rejects a bad spec
// without starting any rank.
func TestLaunchValidatesBeforeRunning(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []ccift.Option
		want string
	}{
		{"bad-ranks", []ccift.Option{ccift.WithRanks(-1)}, "Ranks must be positive"},
		{"conflicting-triggers", []ccift.Option{ccift.WithRanks(2), ccift.WithEveryN(3), ccift.WithInterval(time.Second)},
			"mutually exclusive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ran := false
			_, err := ccift.Launch(context.Background(), ccift.NewSpec(tc.opts...),
				func(r *ccift.Rank) (any, error) { ran = true; return nil, nil })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want a validation error mentioning %q", err, tc.want)
			}
			if ran {
				t.Fatal("program ran under an invalid spec")
			}
		})
	}
}

// nopTracer is the least tracer that satisfies the interface.
type nopTracer struct{}

func (nopTracer) Trace(ccift.TraceEvent) {}

// The policy seam: protocol.Policy travels Spec → engine.Config (in
// process) and Spec → launch.WorkerApp → engine.WorkerConfig (distributed)
// as one value, and is translated into the layer's protocol.Config at one
// site. policySeam says, per Policy field, which public option owns it
// and how the layer's effective config shows a non-zero value. Debug is
// not a Policy field, but it selects the freeze verifier and travels the
// same two paths, so it has a row too.
var policySeam = map[string]struct {
	opt    ccift.Option
	effect string
}{
	"Sync":       {ccift.WithAsyncCheckpoint(false), "AsyncFlush:false"},
	"FullFreeze": {ccift.WithIncrementalFreeze(false), "IncrementalFreeze:false"},
	"Debug":      {ccift.WithDebug(), "Debug:true"},
}

// policyEnv names, for a re-exec'd worker, the Policy field under test
// ("-" for the zero policy).
const policyEnv = "CCIFT_TEST_POLICY"

// policyWith returns the zero Policy with the named field set non-zero.
func policyWith(field string) protocol.Policy {
	var p protocol.Policy
	if f := reflect.ValueOf(&p).Elem().FieldByName(field); f.IsValid() {
		f.SetBool(true)
	}
	return p
}

// policyProbe reports the effective configuration of its rank's layer.
func policyProbe(r *ccift.Rank) (any, error) {
	return fmt.Sprintf("%+v", r.Layer().Config()), nil
}

// policyWorker is the worker role of a seam run: through the public Launch
// when an option owns the field, through launch.WorkerApp directly
// otherwise.
func policyWorker(field string) {
	if opt := policySeam[field].opt; opt != nil {
		ccift.Launch(context.Background(), ccift.NewSpec(ccift.WithRanks(2), ccift.WithMode(ccift.Full),
			ccift.WithDistributed(ccift.Distributed{}), opt), policyProbe)
	}
	launch.WorkerMain(launch.WorkerApp{Prog: policyProbe, Mode: protocol.Full, Policy: policyWith(field)})
}

func TestPolicySeam(t *testing.T) {
	if testing.Short() {
		t.Skip("the worker round trips spawn real processes")
	}
	// effective runs the probe under the zero policy plus the named field
	// ("-": none) and returns rank 0's view on both paths.
	effective := func(field string) (inproc, worker string) {
		t.Setenv(policyEnv, field)
		opts := []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full)}
		if opt := policySeam[field].opt; opt != nil {
			opts = append(opts, opt)
			res, err := ccift.Launch(context.Background(), ccift.NewSpec(opts...), policyProbe)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := ccift.Launch(context.Background(), ccift.NewSpec(append(opts,
				ccift.WithDistributed(ccift.Distributed{Stderr: io.Discard}))...), policyProbe)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(res.Values[0]), fmt.Sprint(dist.Values[0])
		}
		res, err := engine.Run(engine.Config{Ranks: 2, Mode: protocol.Full, Policy: policyWith(field)}, policyProbe)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := launch.Run(launch.Config{Ranks: 2, Args: os.Args[1:], Stderr: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Values[0]), dist.Output
	}
	zeroIn, zeroWorker := effective("-")
	fields := []string{"Debug"}
	pt := reflect.TypeOf(protocol.Policy{})
	for i := 0; i < pt.NumField(); i++ {
		fields = append(fields, pt.Field(i).Name)
	}
	for _, field := range fields {
		seam, ok := policySeam[field]
		if !ok {
			t.Errorf("protocol.Policy.%s is not in policySeam: name the option that owns it and its effect on the layer", field)
			continue
		}
		in, worker := effective(field)
		for path, got := range map[string][2]string{"in-process": {zeroIn, in}, "worker": {zeroWorker, worker}} {
			if strings.Contains(got[0], seam.effect) {
				t.Errorf("%s: the zero policy already shows %s", path, seam.effect)
			}
			if !strings.Contains(got[1], seam.effect) {
				t.Errorf("%s: Policy.%s did not reach the layer: want %s in %s", path, field, seam.effect, got[1])
			}
		}
	}
}
