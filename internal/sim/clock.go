// Package sim provides the small simulation substrate shared by every
// component of the Redbud reproduction: a virtual clock measured in integer
// nanoseconds, and deterministic pseudo-random helpers.
//
// All timing in this repository is simulated. Components never consult the
// wall clock; they advance a Clock by the cost computed from the device
// models. This keeps every experiment deterministic and hardware independent.
package sim

import (
	"fmt"
	"sync"
)

// Ns is a duration or instant in simulated nanoseconds.
type Ns = int64

// Common duration units, in simulated nanoseconds.
const (
	Microsecond Ns = 1_000
	Millisecond Ns = 1_000_000
	Second      Ns = 1_000_000_000
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at time 0, ready to use. Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now Ns
}

// Now returns the current simulated time.
func (c *Clock) Now() Ns {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d nanoseconds and returns the new time.
// Advance panics if d is negative: simulated time never flows backwards.
func (c *Clock) Advance(d Ns) Ns {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %d", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// AdvanceTo moves the clock forward to instant t if t is later than the
// current time; otherwise the clock is unchanged. It returns the resulting
// time. AdvanceTo is how parallel device timelines are folded into one
// elapsed-time figure: the caller advances to the max of the component
// completion times.
func (c *Clock) AdvanceTo(t Ns) Ns {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Reset rewinds the clock to time zero. Only test and benchmark harnesses
// should call Reset, between independent runs.
func (c *Clock) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = 0
}

// Seconds converts a simulated duration to floating-point seconds.
func Seconds(d Ns) float64 { return float64(d) / float64(Second) }

// MBps computes throughput in megabytes per second (1 MB = 1e6 bytes) for
// the given byte count moved over the given simulated duration. It returns 0
// when the duration is zero so callers never divide by zero on empty runs.
func MBps(bytes int64, d Ns) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / Seconds(d)
}
