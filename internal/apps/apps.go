// Package apps registers the benchmark applications by name, so every
// driver — c3run on either substrate, fig8, tests — builds programs from
// one table instead of each keeping its own copy.
package apps

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ccift/internal/apps/cg"
	"ccift/internal/apps/laplace"
	"ccift/internal/apps/neurosys"
	"ccift/internal/cerr"
	"ccift/internal/engine"
)

// names lists the registered applications.
func names() []string { return []string{"cg", "laplace", "neurosys"} }

// Fail is the drivers' shared error exit: it reports err on stderr with a
// hint for the taxonomy category it matches, then exits with the
// category's conventional exit code (the ccift.ExitCode mapping), so
// shell scripts dispatch on $? the way Go code uses errors.Is.
func Fail(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	switch {
	case errors.Is(err, cerr.ErrMaxRestarts):
		fmt.Fprintf(os.Stderr, "%s: the failure schedule exhausted the restart budget (raise -max-restarts?)\n", tool)
	case errors.Is(err, cerr.ErrCanceled):
		fmt.Fprintf(os.Stderr, "%s: the run was canceled before completing\n", tool)
	case errors.Is(err, cerr.ErrWorldDead):
		fmt.Fprintf(os.Stderr, "%s: a rank died with no recoverable checkpoint to roll back to\n", tool)
	case errors.Is(err, cerr.ErrStore):
		fmt.Fprintf(os.Stderr, "%s: the checkpoint store failed underneath the run\n", tool)
	case errors.Is(err, cerr.ErrTransport):
		fmt.Fprintf(os.Stderr, "%s: the wire substrate failed (spawn, mesh formation, rendezvous)\n", tool)
	}
	os.Exit(cerr.ExitCode(err))
}

// KillFlag parses the drivers' repeatable -kill rank@op flags into a
// failure schedule; the i-th flag applies to incarnation i, so a sequence
// of flags exercises recovery from recovery.
type KillFlag []engine.Failure

func (k *KillFlag) String() string { return fmt.Sprint(*k) }

// Set parses one rank@op spec.
func (k *KillFlag) Set(v string) error {
	rank, op, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("want rank@op, got %q", v)
	}
	r, err := strconv.Atoi(rank)
	if err != nil {
		return err
	}
	o, err := strconv.ParseInt(op, 10, 64)
	if err != nil {
		return err
	}
	*k = append(*k, engine.Failure{Rank: r, AtOp: o, Incarnation: len(*k)})
	return nil
}

// ResolveTrigger applies the drivers' shared checkpoint-trigger policy:
// an explicit -every and -interval are mutually exclusive (matching the
// spec validation, instead of silently preferring one), and when neither
// is given the op-count trigger defaults to every 25 calls.
func ResolveTrigger(every int, interval time.Duration) (int, time.Duration, error) {
	if every > 0 && interval > 0 {
		return 0, 0, fmt.Errorf("-every (%d) and -interval (%v) are mutually exclusive checkpoint triggers; pick one", every, interval)
	}
	if every == 0 && interval == 0 {
		return 25, 0, nil
	}
	return every, interval, nil
}

// HumanBytes renders a byte count for the drivers' headers.
func HumanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Summary renders the run epilogue c3run prints on either substrate:
// elapsed time, restart count, per-restart recovery provenance, and the
// first rank's result value.
func Summary(values []any, restarts int, recovered []int, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed in %.2fs with %d restart(s)\n", elapsed.Seconds(), restarts)
	for i, e := range recovered {
		if e < 0 {
			fmt.Fprintf(&b, "  restart %d: no committed checkpoint yet — restarted from the beginning\n", i+1)
		} else {
			fmt.Fprintf(&b, "  restart %d: recovered from global checkpoint %d\n", i+1, e)
		}
	}
	if len(values) > 0 {
		fmt.Fprintf(&b, "result: %v\n", values[0])
	}
	return b.String()
}

// Build resolves an application by name, applying the per-app default size
// and iteration count when the caller passes zero. It returns the program
// and the approximate serialized application state per rank (the number the
// paper's Figure 8 annotates problem sizes with).
func Build(app string, ranks, size, iters int) (engine.Program, int64, error) {
	switch app {
	case "cg":
		if size == 0 {
			size = 1024
		}
		if iters == 0 {
			iters = 100
		}
		p := cg.Params{N: size, Iters: iters}
		return cg.Program(p), int64(p.StateBytesPerRank(ranks)), nil
	case "laplace":
		if size == 0 {
			size = 512
		}
		if iters == 0 {
			iters = 300
		}
		p := laplace.Params{N: size, Iters: iters}
		return laplace.Program(p), int64(p.StateBytesPerRank(ranks)), nil
	case "neurosys":
		if size == 0 {
			size = 32
		}
		if iters == 0 {
			iters = 300
		}
		p := neurosys.Params{K: size, Iters: iters}
		return neurosys.Program(p), int64(p.StateBytesPerRank(ranks)), nil
	default:
		return nil, 0, fmt.Errorf("unknown app %q (want %v)", app, names())
	}
}
