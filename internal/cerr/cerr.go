// Package cerr is the root error taxonomy of ccift: a small set of
// sentinel categories that every error escaping the public Launch (or the
// c3admin store API) wraps exactly once. Internal packages wrap their
// failures with the matching sentinel at the point the cause is known —
// spec validation wraps ErrSpec, checkpoint-store I/O wraps ErrStore, the
// process/TCP substrate wraps ErrTransport, and so on — so callers
// dispatch with errors.Is against the public aliases in package ccift
// instead of string-matching messages.
//
// The package sits below every other internal package (it imports only the
// standard library), mirroring the centralized-errors pattern: sentinels
// live in one leaf package, everything above wraps, nothing redefines.
package cerr

import (
	"errors"
	"fmt"
)

// The sentinel categories. Every error returned by ccift.Launch matches
// exactly one of these via errors.Is; the public package re-exports them
// one-to-one (ccift.ErrCanceled = cerr.ErrCanceled, ...).
var (
	// ErrCanceled: the run's context was canceled or its deadline expired.
	// The context's own error (context.Canceled / DeadlineExceeded) remains
	// reachable through the same chain.
	ErrCanceled = errors.New("ccift: run canceled")
	// ErrWorldDead: a rank died and the world cannot be rolled back — e.g.
	// a stop failure in a protocol mode that takes no recoverable
	// checkpoints.
	ErrWorldDead = errors.New("ccift: world died with no recoverable checkpoint")
	// ErrMaxRestarts: the failure schedule (or real failures) exhausted the
	// restart budget.
	ErrMaxRestarts = errors.New("ccift: restart budget exhausted")
	// ErrSpec: the run specification is invalid (bad ranks, conflicting
	// options, substrate-incompatible settings).
	ErrSpec = errors.New("ccift: invalid run specification")
	// ErrStore: the stable checkpoint store failed (I/O error, torn commit
	// record, unreadable state blob).
	ErrStore = errors.New("ccift: checkpoint store failure")
	// ErrTransport: the wire substrate failed (mesh formation, rendezvous,
	// worker spawn).
	ErrTransport = errors.New("ccift: transport failure")
	// ErrProgram: the application program returned an error or panicked.
	ErrProgram = errors.New("ccift: program failed")
)

// sentinels is the closed category set, in the priority order used when a
// multi-rank failure must be summarized by one category (first match wins).
var sentinels = []error{
	ErrSpec,
	ErrStore,
	ErrTransport,
	ErrWorldDead,
	ErrMaxRestarts,
	ErrCanceled,
	ErrProgram,
}

// Category returns the taxonomy sentinel err wraps, or nil when err is nil
// or uncategorized. CLIs use it for exit-code mapping; boundary code uses
// it to avoid double-wrapping an already-categorized error.
func Category(err error) error {
	if err == nil {
		return nil
	}
	for _, s := range sentinels {
		if errors.Is(err, s) {
			return s
		}
	}
	return nil
}

// Ensure wraps err with the fallback sentinel unless it already carries a
// category. It is the boundary net: interior code wraps specifically, and
// the few paths that can surface arbitrary errors (a program's own return
// value, a panic payload) call Ensure(err, ErrProgram) so nothing escapes
// uncategorized.
func Ensure(err, fallback error) error {
	if err == nil || Category(err) != nil {
		return err
	}
	return fmt.Errorf("%w: %w", fallback, err)
}

// Process exit codes shared by the launch worker protocol and the CLIs
// (c3run, c3admin). A worker classifies its failure with
// Category and exits with the matching code; the launcher maps the code
// back to the sentinel, so the category survives the process boundary.
const (
	CodeOK          = 0
	CodeProgram     = 1 // also: any uncategorized failure
	CodeSpec        = 2 // doubles as the usage exit code, per CLI convention
	CodeStore       = 4 // 3 is retired: launch's old "re-spawn me", which no worker exits with
	CodeTransport   = 5
	CodeMaxRestarts = 6
	CodeCanceled    = 7
	CodeWorldDead   = 8
)

// ExitCode maps an error to the process exit code of its category
// (CodeOK for nil, CodeProgram for uncategorized errors).
func ExitCode(err error) int {
	switch Category(err) {
	case nil:
		if err == nil {
			return CodeOK
		}
		return CodeProgram
	case ErrSpec:
		return CodeSpec
	case ErrStore:
		return CodeStore
	case ErrTransport:
		return CodeTransport
	case ErrMaxRestarts:
		return CodeMaxRestarts
	case ErrCanceled:
		return CodeCanceled
	case ErrWorldDead:
		return CodeWorldDead
	default:
		return CodeProgram
	}
}

// FromExitCode maps a worker's exit code back to its category sentinel;
// nil for CodeOK and codes this version does not know
// (future workers may grow new ones — an unknown code degrades to nil and
// the caller falls back to its generic classification).
func FromExitCode(code int) error {
	switch code {
	case CodeSpec:
		return ErrSpec
	case CodeStore:
		return ErrStore
	case CodeTransport:
		return ErrTransport
	case CodeMaxRestarts:
		return ErrMaxRestarts
	case CodeCanceled:
		return ErrCanceled
	case CodeWorldDead:
		return ErrWorldDead
	case CodeProgram:
		return ErrProgram
	default:
		return nil
	}
}
