package rpc

import (
	"errors"
	"fmt"
)

// ErrRetriesExhausted is the sentinel every retry-budget failure matches:
// errors.Is(err, ErrRetriesExhausted) is true exactly when a call gave up
// after its last re-send. Callers that previously fished for a generic
// *Error cannot distinguish "the server answered with a failure" from "we
// stopped asking"; this sentinel names the latter.
var ErrRetriesExhausted = errors.New("rpc: retries exhausted")

// ExhaustedError is the typed failure of a retry budget running out. It
// carries the exchange identity, the failure kind of the final attempt
// (KindTimeout for a loss, KindUnavailable for a persistent transient
// failure), how many attempts were made in total, and — when the final
// attempt failed with an inspectable error rather than a silent loss — the
// last cause, reachable through errors.Unwrap/errors.As.
type ExhaustedError struct {
	Op       Op
	Addr     string
	Kind     ErrKind
	Attempts int
	// Cause is the final attempt's error: the transient *Error that kept
	// coming back, or nil when the exchange was simply lost (the client
	// learned nothing beyond its own timeout).
	Cause error
}

// Error renders the failure.
func (e *ExhaustedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("rpc: %s to %s: retries exhausted after %d attempts (%s): %v",
			e.Op, e.Addr, e.Attempts, e.Kind, e.Cause)
	}
	return fmt.Sprintf("rpc: %s to %s: retries exhausted after %d attempts (%s)",
		e.Op, e.Addr, e.Attempts, e.Kind)
}

// Unwrap exposes the last cause to errors.As/errors.Is chains.
func (e *ExhaustedError) Unwrap() error { return e.Cause }

// Is matches the ErrRetriesExhausted sentinel.
func (e *ExhaustedError) Is(target error) bool { return target == ErrRetriesExhausted }
