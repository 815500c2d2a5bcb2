package ccift_test

// Table-driven validation of the spec: misconfigurations that used to
// panic or hang deep inside a run must surface as descriptive errors at
// the API boundary.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"ccift"
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

// The policy seam: Sync and Debug travel Spec → engine.Config (in process)
// and Spec → launch.WorkerApp → engine.WorkerConfig (distributed), and are
// translated into the layer's protocol.Config at one site. policySeam says,
// per field, which public option sets it and how the layer's effective
// config shows it.
var policySeam = map[string]struct {
	opt    ccift.Option
	effect string
}{
	"Sync":  {ccift.WithAsyncCheckpoint(false), "AsyncFlush:false"},
	"Debug": {ccift.WithDebug(), "Debug:true"},
}

// policyEnv names, for a re-exec'd worker, the field under test ("-" for
// the default policy).
const policyEnv = "CCIFT_TEST_POLICY"

// policyOptions is the seam run's spec: the default policy plus the named
// field's option.
func policyOptions(field string) []ccift.Option {
	opts := []ccift.Option{ccift.WithRanks(2), ccift.WithMode(ccift.Full)}
	if opt := policySeam[field].opt; opt != nil {
		opts = append(opts, opt)
	}
	return opts
}

// policyProbe reports the effective configuration of its rank's layer.
func policyProbe(r *ccift.Rank) (any, error) {
	return fmt.Sprintf("%+v", r.Layer().Config()), nil
}

// policyWorker is the worker role of a seam run. Launch never returns in a
// worker process.
func policyWorker(field string) {
	ccift.Launch(context.Background(), ccift.NewSpec(append(policyOptions(field), ccift.WithDistributed(ccift.Distributed{}))...), policyProbe)
}

func TestPolicySeam(t *testing.T) {
	if testing.Short() {
		t.Skip("the worker round trips spawn real processes")
	}
	// effective runs the probe under the default policy plus the named
	// field ("-": none) and returns rank 0's view on both paths.
	effective := func(field string) (inproc, worker string) {
		t.Setenv(policyEnv, field)
		opts := policyOptions(field)
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
	zeroIn, zeroWorker := effective("-")
	for field, seam := range policySeam {
		in, worker := effective(field)
		for path, got := range map[string][2]string{"in-process": {zeroIn, in}, "worker": {zeroWorker, worker}} {
			if strings.Contains(got[0], seam.effect) {
				t.Errorf("%s: the default policy already shows %s", path, seam.effect)
			}
			if !strings.Contains(got[1], seam.effect) {
				t.Errorf("%s: %s did not reach the layer: want %s in %s", path, field, seam.effect, got[1])
			}
		}
	}
}
