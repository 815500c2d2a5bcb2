package ccift_test

// The error-taxonomy contract: every error escaping Launch matches
// EXACTLY one ccift.Err* sentinel via errors.Is, and the same failure
// mode reports the same category on both substrates. The matrix below
// drives every reachable failure mode through the public Launch call;
// distributed cases re-exec this test binary as real worker processes
// (see TestMain in launch_v1_test.go).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccift"
	"ccift/internal/engine"
	"ccift/internal/launch"
	"ccift/internal/protocol"
	"ccift/internal/sim"
)

// taxonomy is the complete public sentinel set; the exactly-one assertion
// walks it, so a future sentinel added here is automatically covered.
var taxonomy = map[string]error{
	"ErrCanceled":    ccift.ErrCanceled,
	"ErrWorldDead":   ccift.ErrWorldDead,
	"ErrMaxRestarts": ccift.ErrMaxRestarts,
	"ErrSpec":        ccift.ErrSpec,
	"ErrStore":       ccift.ErrStore,
	"ErrTransport":   ccift.ErrTransport,
	"ErrProgram":     ccift.ErrProgram,
}

func assertExactlyOne(t *testing.T, err, want error) {
	t.Helper()
	if err == nil {
		t.Fatal("Launch succeeded, want a categorized failure")
	}
	var matched []string
	for name, s := range taxonomy {
		if errors.Is(err, s) {
			matched = append(matched, name)
		}
	}
	if len(matched) != 1 {
		t.Fatalf("err %q matches %v, want exactly one sentinel", err, matched)
	}
	if !errors.Is(err, want) {
		t.Fatalf("err %q matched %v, want the %v category", err, matched, want)
	}
}

// brokenStore fails every write — the in-process store-failure injection.
type brokenStore struct{ ccift.Stable }

func (brokenStore) Put(key string, data []byte) error {
	return fmt.Errorf("injected write failure for %s", key)
}

func TestErrorTaxonomyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the distributed rows spawn real worker processes")
	}
	base := func(extra ...ccift.Option) []ccift.Option {
		return append([]ccift.Option{
			ccift.WithRanks(confRanks),
			ccift.WithMode(ccift.Full),
			ccift.WithEveryN(confEveryN),
		}, extra...)
	}
	// A StoreDir nested under a regular file cannot be created: the
	// distributed substrate's store failure.
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	exhaustKills := []ccift.Failure{
		{Rank: 1, AtOp: 60, Incarnation: 0},
		{Rank: 1, AtOp: 60, Incarnation: 1},
	}

	cases := []struct {
		name string
		opts []ccift.Option
		// workerProg selects the re-exec'd workers' program via progEnv
		// ("" = the conformance program); the in-process run uses the
		// same program directly.
		workerProg string
		ctx        func() context.Context
		want       error
		// wantMsg, when set, must appear in the error text — or, on the
		// distributed substrate, where only the category crosses the
		// process boundary, in the workers' stderr.
		wantMsg string
		// substrates: by default a case runs on both; inprocOnly marks
		// failure modes the distributed substrate cannot reach (world
		// death needs a checkpoint-free mode, which distributed specs
		// reject), distOnly ones that need real processes.
		inprocOnly bool
		distOnly   bool
	}{
		{
			name: "bad spec",
			opts: base(ccift.WithRanks(-3)),
			want: ccift.ErrSpec,
		},
		{
			name:     "conflicting spec options",
			opts:     base(ccift.WithTracer(nopTracer{})),
			want:     ccift.ErrSpec,
			distOnly: true, // WithTracer is valid in-process; the conflict is with WithDistributed
		},
		{
			name: "canceled before start",
			opts: base(),
			ctx: func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			want: ccift.ErrCanceled,
		},
		{
			name:       "deadline mid-run",
			opts:       base(),
			workerProg: "hang",
			ctx: func() context.Context {
				ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
				_ = cancel // the run's end releases it; the deadline does the cancelling
				return ctx
			},
			want: ccift.ErrCanceled,
		},
		{
			name: "world death without recoverable checkpoints",
			opts: []ccift.Option{
				ccift.WithRanks(confRanks),
				// NoAppState commits checkpoints that hold no application
				// state, so the rollback after the kill finds a committed
				// epoch it cannot recover from.
				ccift.WithMode(ccift.NoAppState),
				ccift.WithEveryN(confEveryN),
				// Simulated, so that a checkpoint exists by construction: in
				// this scenario rank 1's op 100 follows the first commit.
				ccift.WithSimulated(ccift.Scenario{Seed: 7, Latency: time.Millisecond}),
				ccift.WithFailures(ccift.Failure{Rank: 1, AtOp: 100}),
			},
			want:       ccift.ErrWorldDead,
			inprocOnly: true,
		},
		{
			name: "restart budget exhausted",
			opts: base(ccift.WithMaxRestarts(1), ccift.WithFailures(exhaustKills...)),
			want: ccift.ErrMaxRestarts,
		},
		{
			name:       "store write failure",
			opts:       base(ccift.WithStore(brokenStore{ccift.NewMemoryStore()})),
			want:       ccift.ErrStore,
			inprocOnly: true, // the distributed row injects through StoreDir below
		},
		{
			name:     "store directory unusable",
			opts:     base(),
			want:     ccift.ErrStore,
			distOnly: true,
		},
		{
			name:       "program error",
			opts:       base(),
			workerProg: "fail",
			want:       ccift.ErrProgram,
		},
		{
			name:       "registers a struct",
			opts:       base(),
			workerProg: "struct",
			want:       ccift.ErrProgram,
			wantMsg:    `"origin"`,
		},
		{
			name:       "touches a name it never registered",
			opts:       base(),
			workerProg: "typo",
			want:       ccift.ErrProgram,
			wantMsg:    `VDS.Touch("gird")`,
		},
		{
			name:     "worker binary unspawnable",
			opts:     base(),
			want:     ccift.ErrTransport,
			distOnly: true,
		},
		{
			// The freeze verifier is a Debug assertion on worker processes
			// too: an un-Touched write is the program's bug, reported by
			// name, on both substrates.
			name:       "missing Touch under Debug",
			opts:       base(ccift.WithDebug()),
			workerProg: "stale",
			want:       ccift.ErrProgram,
			wantMsg:    `variable "x"`,
		},
	}

	for _, tc := range cases {
		run := func(t *testing.T, distributed bool) {
			opts := tc.opts
			var stderr bytes.Buffer
			if distributed {
				d := ccift.Distributed{Stderr: &stderr}
				switch tc.name {
				case "store directory unusable":
					d.StoreDir = filepath.Join(notADir, "store")
				case "worker binary unspawnable":
					d.Exe = filepath.Join(t.TempDir(), "no-such-binary")
				}
				opts = append(opts, ccift.WithDistributed(d))
			}
			// The re-exec'd workers pick their program from progEnv; the
			// in-process run resolves the same name directly.
			t.Setenv(progEnv, tc.workerProg)
			prog := testProg()
			ctx := context.Background()
			if tc.ctx != nil {
				ctx = tc.ctx()
			}
			_, err := ccift.Launch(ctx, ccift.NewSpec(opts...), prog)
			assertExactlyOne(t, err, tc.want)
			if !strings.Contains(err.Error()+stderr.String(), tc.wantMsg) {
				t.Fatalf("neither err %q nor worker stderr %q mentions %q", err, stderr.String(), tc.wantMsg)
			}
		}
		if !tc.distOnly {
			t.Run(tc.name+"/inprocess", func(t *testing.T) { run(t, false) })
		}
		if !tc.inprocOnly {
			t.Run(tc.name+"/distributed", func(t *testing.T) { run(t, true) })
		}
	}
}

// TestRegisteringATypeWithNoLayoutFails: a variable of a type the
// checkpoint does not lay out fails the run as the program's error, naming
// the variable and its type, where it registers — before any checkpoint
// reaches the store.
func TestRegisteringATypeWithNoLayoutFails(t *testing.T) {
	for name, ptr := range map[string]func() any{
		"struct": func() any { return &struct{ X, Y float64 }{} },
		"map":    func() any { return &map[string]int{} },
		"int32s": func() any { return &[]int32{} },
	} {
		store := ccift.NewMemoryStore()
		_, err := ccift.Launch(context.Background(), ccift.NewSpec(
			ccift.WithRanks(2), ccift.WithMode(ccift.Full), ccift.WithEveryN(1), ccift.WithStore(store)),
			func(r *ccift.Rank) (any, error) {
				r.Register(name, ptr())
				r.PotentialCheckpoint()
				return nil, nil
			})
		assertExactlyOne(t, err, ccift.ErrProgram)
		if want := fmt.Sprintf("%q): %T has no checkpoint layout", name, ptr()); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v does not say %s", name, err, want)
		}
		if keys, _ := store.List(""); len(keys) != 0 {
			t.Errorf("%s: the store holds %v", name, keys)
		}
	}
}

// TestSupervisorContractAcrossSubstrates pins that the rollback state
// machine is one: the ways a rollback can end a run are the same failure
// whether the ranks are goroutines, simulated, or OS processes — one
// sentinel, one cause text, and a *RunError that names the incarnation the
// run ended in and the rollbacks it had taken. The rows drive the three
// runIncarnation shapes below the public options, because cancelling
// exactly during a rollback needs the OnRestart hook and a distributed run
// in a mode other than Full is something only a hand-built worker does
// (Spec.Validate rejects it).
func TestSupervisorContractAcrossSubstrates(t *testing.T) {
	if testing.Short() {
		t.Skip("the distributed rows spawn real worker processes")
	}
	rows := []struct {
		name            string
		mode            protocol.Mode
		kills           []engine.Failure
		maxRestarts     int
		cancelOnRestart bool
		want            error
		cause           string // what the cause text must contain
		// inRank marks a cause raised inside a rank: on the distributed
		// substrate only its category crosses the process boundary, and
		// the text is on the worker's stderr.
		inRank bool
	}{
		{
			name:        "budget exhausted",
			mode:        protocol.Full,
			kills:       []engine.Failure{{Rank: 1, AtOp: 60, Incarnation: 0}, {Rank: 1, AtOp: 60, Incarnation: 1}},
			maxRestarts: 1,
			want:        ccift.ErrMaxRestarts,
			cause:       "MaxRestarts = 1",
		},
		{
			name:            "cancel during rollback",
			mode:            protocol.Full,
			kills:           []engine.Failure{{Rank: 1, AtOp: 60, Incarnation: 0}},
			cancelOnRestart: true,
			want:            ccift.ErrCanceled,
			cause:           "during rollback: context canceled",
		},
		{
			// Op 100 is past the first commit of the blocking write path at
			// this scale, so the rollback finds an epoch it cannot restore.
			name:   "killed in a mode other than Full",
			mode:   protocol.NoAppState,
			kills:  []engine.Failure{{Rank: 1, AtOp: 100, Incarnation: 0}},
			want:   ccift.ErrWorldDead,
			cause:  "cannot recover from a checkpoint in mode no-app-state",
			inRank: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			causes := map[string]string{}
			for _, substrate := range []string{"inprocess", "simulated", "distributed"} {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := engine.Config{
					Ranks: confRanks, Mode: row.mode, EveryN: confEveryN, Sync: true,
					Failures: row.kills, MaxRestarts: row.maxRestarts,
				}
				if row.cancelOnRestart {
					cfg.OnRestart = func(int) { cancel() }
				}
				var err error
				var stderr bytes.Buffer
				switch substrate {
				case "simulated":
					s, serr := sim.New(cfg.Ranks, ccift.Scenario{Seed: 7, Latency: time.Millisecond})
					if serr != nil {
						t.Fatal(serr)
					}
					defer s.Stop()
					cfg.NewTransport, cfg.Clock, cfg.RankClock = s.NewTransport, s.DetectorClock(), s.RankClock
					cfg.DetectorTimeout = 500 * time.Millisecond
					fallthrough
				case "inprocess":
					_, err = engine.RunContext(ctx, cfg, conformanceProg())
				case "distributed":
					t.Setenv(workerModeEnv, row.mode.String())
					_, err = launch.RunContext(ctx, launch.Config{Ranks: cfg.Ranks, Kills: cfg.Failures,
						MaxRestarts: cfg.MaxRestarts, OnRestart: cfg.OnRestart, Stderr: &stderr})
				}
				assertExactlyOne(t, err, row.want)
				var re *ccift.RunError
				if !errors.As(err, &re) {
					t.Fatalf("%s: err %v is not a *RunError", substrate, err)
				}
				if re.Incarnation != 1 || re.Restarts != 1 {
					t.Errorf("%s: RunError{Incarnation: %d, Restarts: %d}, want the run to end in incarnation 1 after the 1 rollback it took",
						substrate, re.Incarnation, re.Restarts)
				}
				causes[substrate] = re.Err.Error()
				if row.inRank && substrate == "distributed" {
					causes[substrate] = stderr.String()
				}
				if !strings.Contains(causes[substrate], row.cause) {
					t.Errorf("%s: cause %q does not say %q", substrate, causes[substrate], row.cause)
				}
			}
			if causes["simulated"] != causes["inprocess"] || (!row.inRank && causes["distributed"] != causes["inprocess"]) {
				t.Errorf("the cause differs by substrate: %q", causes)
			}
		})
	}
}

// TestExitCodeMapping pins the CLI contract: one exit code per category,
// recoverable back to the sentinel.
func TestExitCodeMapping(t *testing.T) {
	codes := map[int]bool{}
	for name, s := range taxonomy {
		code := ccift.ExitCode(s)
		if code == 0 {
			t.Errorf("%s maps to exit code 0 (success)", name)
		}
		if codes[code] {
			t.Errorf("%s shares exit code %d with another category", name, code)
		}
		codes[code] = true
	}
	if got := ccift.ExitCode(nil); got != 0 {
		t.Errorf("ExitCode(nil) = %d, want 0", got)
	}
}
