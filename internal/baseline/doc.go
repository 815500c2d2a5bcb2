// Package baseline implements the fault-tolerance approaches the paper
// compares itself against (Sections 1.2 and 3), so the arguments in the
// paper's text can be run instead of just read:
//
//   - Blocking coordinated checkpointing (software barriers, the technique
//     application programmers roll by hand): Blocking. Its failure mode —
//     MPI messages that cross a barrier are absent from the global
//     checkpoint and lost on recovery — is counted by Checkpoint and
//     demonstrated in the tests.
//
//   - The Chandy-Lamport distributed snapshot protocol: CL. It is correct
//     under its own assumptions (system-level state saving at arbitrary
//     points, FIFO per-channel delivery) and the tests show exactly how it
//     breaks when either assumption is removed, which is the paper's
//     Section 3.1/3.3 argument for a new protocol.
//
//   - Sender-based message logging: SenderLog. Every application message is
//     retained until the next global checkpoint; the accounting shows the
//     retention-volume blow-up relative to the C3 late-message log
//     (Section 1.2's argument against message logging for parallel codes).
//
// The models live in the package's _test.go files, beside the tests and
// benchmarks that run them: no program links them.
package baseline
