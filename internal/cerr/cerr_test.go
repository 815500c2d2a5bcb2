package cerr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCategoryExactlyOne(t *testing.T) {
	cases := []error{
		fmt.Errorf("engine: %w: Ranks must be positive", ErrSpec),
		fmt.Errorf("%w: %w", ErrCanceled, context.DeadlineExceeded),
		fmt.Errorf("launch: %w (10)", ErrMaxRestarts),
		fmt.Errorf("storage: %w: open commit record", ErrStore),
		fmt.Errorf("tcptransport: %w: mesh formation timed out", ErrTransport),
		fmt.Errorf("engine: %w: cannot recover in mode piggyback-only", ErrWorldDead),
		Ensure(errors.New("user code exploded"), ErrProgram),
	}
	for _, err := range cases {
		n := 0
		for _, s := range sentinels {
			if errors.Is(err, s) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v matches %d sentinels, want exactly 1", err, n)
		}
	}
}

func TestEnsureKeepsExistingCategory(t *testing.T) {
	inner := fmt.Errorf("x: %w", ErrStore)
	if got := Ensure(inner, ErrProgram); !errors.Is(got, ErrStore) || errors.Is(got, ErrProgram) {
		t.Fatalf("Ensure rewrapped a categorized error: %v", got)
	}
	if got := Ensure(nil, ErrProgram); got != nil {
		t.Fatalf("Ensure(nil) = %v", got)
	}
}

func TestExitCodeRoundTrip(t *testing.T) {
	for _, s := range sentinels {
		code := ExitCode(fmt.Errorf("wrapped: %w", s))
		if back := FromExitCode(code); back != s {
			t.Errorf("sentinel %v -> code %d -> %v", s, code, back)
		}
	}
	if ExitCode(nil) != CodeOK {
		t.Errorf("ExitCode(nil) = %d", ExitCode(nil))
	}
	if ExitCode(errors.New("mystery")) != CodeProgram {
		t.Errorf("uncategorized error should exit CodeProgram")
	}
	if FromExitCode(3) != nil || FromExitCode(99) != nil {
		t.Errorf("retired/unknown codes must not map to a category")
	}
}
