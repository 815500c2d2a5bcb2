package ccift

import (
	"ccift/internal/cerr"
)

// The error taxonomy. Every error returned by Launch matches
// exactly one of these sentinels via errors.Is, regardless of substrate:
// the same failure mode reports the same category whether the ranks were
// goroutines or OS processes. Dispatch on the category, not the message —
// message text is for humans and may change:
//
//	res, err := ccift.Launch(ctx, spec, prog)
//	switch {
//	case errors.Is(err, ccift.ErrMaxRestarts):
//		// the failure schedule exhausted the restart budget
//	case errors.Is(err, ccift.ErrCanceled):
//		// ctx was canceled or its deadline expired; the context's own
//		// error (context.Canceled / DeadlineExceeded) is in the chain too
//	case errors.Is(err, ccift.ErrStore):
//		// the checkpoint store failed underneath the run
//	}
//
// The concrete error is still a *RunError carrying rank, incarnation and
// restart count; errors.As recovers it.
var (
	// ErrCanceled: the run's context was canceled or its deadline expired.
	ErrCanceled = cerr.ErrCanceled
	// ErrWorldDead: a rank died and the world cannot roll back — e.g. a
	// stop failure in a protocol mode that takes no recoverable
	// checkpoints.
	ErrWorldDead = cerr.ErrWorldDead
	// ErrMaxRestarts: the failure schedule (or real failures) exhausted
	// the restart budget (WithMaxRestarts), on any substrate.
	ErrMaxRestarts = cerr.ErrMaxRestarts
	// ErrSpec: the run specification is invalid (bad ranks, conflicting
	// options, substrate-incompatible settings). Validate returns these
	// without running anything.
	ErrSpec = cerr.ErrSpec
	// ErrStore: the stable checkpoint store failed (I/O error, torn
	// commit record, unreadable state blob).
	ErrStore = cerr.ErrStore
	// ErrTransport: the wire substrate failed (worker spawn, TCP mesh
	// formation, rendezvous).
	ErrTransport = cerr.ErrTransport
	// ErrProgram: the application program returned an error or panicked;
	// the program's own error remains reachable through the chain.
	ErrProgram = cerr.ErrProgram
)

// ExitCode maps an error from Launch to the conventional process exit code
// of its category (0 for nil, 1 for program/uncategorized errors) — the
// same mapping the bundled CLIs (c3run, c3admin) use, so shell
// scripts can dispatch on categories the way Go code uses errors.Is.
func ExitCode(err error) int { return cerr.ExitCode(err) }
