// Package clock abstracts time for the layers that schedule against it —
// detector heartbeats and suspicion, the protocol initiator interval,
// checkpoint blocked/flush accounting, and control-servicing deadlines.
//
// Production code uses system, a thin veneer over package time. The
// simulated substrate (internal/sim) substitutes a virtual clock whose
// time advances only when every simulated rank is quiescent, so a
// 30-second heartbeat schedule across a thousand ranks elapses in
// microseconds of wall time and every timer firing is deterministic.
package clock

import "time"

// Clock is the time source and timer factory a layer schedules against.
//
// Implementations must be safe for concurrent use. AfterFunc may run f on
// any goroutine; f must not block for long (the virtual clock runs timer
// callbacks inline in its scheduler loop).
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the elapsed time on this clock since t.
	Since(t time.Time) time.Duration
	// AfterFunc arranges for f to run once d has elapsed on this clock
	// and returns a handle that can cancel it.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable pending AfterFunc. Stop reports whether the call
// was cancelled before the function started running.
type Timer interface {
	Stop() bool
}

// system is the wall-clock Clock used outside simulation.
var system Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }

func (systemClock) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

// Go starts f as a helper task of the caller on c and returns a function
// that blocks until f has returned. On the wall clock the task is a plain
// goroutine. A clock whose time is scheduled (internal/sim) implements Go
// itself, so its scheduler knows the task exists: virtual time must not
// advance past wall-time work it cannot otherwise see, and a caller blocked
// in wait must count as blocked, not as running. The checkpoint flusher
// (internal/protocol) is started through here on every clock.
func Go(c Clock, f func()) (wait func()) {
	if s, ok := c.(interface{ Go(func()) func() }); ok {
		return s.Go(f)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return func() { <-done }
}

// Or returns c if non-nil and system otherwise; config plumbing uses it
// so a zero-valued Config keeps wall-clock behavior.
func Or(c Clock) Clock {
	if c != nil {
		return c
	}
	return system
}
