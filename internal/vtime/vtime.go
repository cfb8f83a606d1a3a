// Package vtime provides the virtual-time substrate for the simulated
// Tilera platform.
//
// Every processing element (PE) in the simulation owns a Clock that tracks
// elapsed virtual time in picoseconds. Substrate operations (instruction
// execution, cache/memory traffic, on-chip network messages, barriers)
// advance the clock of the PE performing them. Communication merges clocks:
// a message carries the sender's virtual timestamp plus the modeled network
// latency, and the receiver's clock advances to at least that arrival time.
//
// Virtual time is deterministic for a fixed program and model, independent
// of host scheduling, which is what allows the benchmark harness to
// reproduce the paper's latency/bandwidth curves on any machine.
package vtime

import (
	"fmt"
	"sync"
)

// Time is an absolute virtual timestamp in picoseconds since program launch.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// FromNs converts a floating-point nanosecond quantity to a Duration,
// rounding to the nearest picosecond.
func FromNs(ns float64) Duration {
	if ns <= 0 {
		return 0
	}
	return Duration(ns*1000 + 0.5)
}

// FromSeconds converts seconds to a Duration.
func FromSeconds(s float64) Duration {
	return Duration(s*1e12 + 0.5)
}

// Ns reports d in nanoseconds.
func (d Duration) Ns() float64 { return float64(d) / 1e3 }

// Us reports d in microseconds.
func (d Duration) Us() float64 { return float64(d) / 1e6 }

// Ms reports d in milliseconds.
func (d Duration) Ms() float64 { return float64(d) / 1e9 }

// Seconds reports d in seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

func (d Duration) String() string {
	switch {
	case d < Microsecond:
		return fmt.Sprintf("%.1fns", d.Ns())
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", d.Us())
	case d < Second:
		return fmt.Sprintf("%.3fms", d.Ms())
	default:
		return fmt.Sprintf("%.4fs", d.Seconds())
	}
}

// Ns reports t in nanoseconds since launch.
func (t Time) Ns() float64 { return float64(t) / 1e3 }

// Seconds reports t in seconds since launch.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return Duration(t).String() }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Clock is a per-PE virtual clock. A Clock must only be advanced by the
// goroutine that owns it; other goroutines observe its value indirectly
// through timestamps carried on messages.
type Clock struct {
	now Time
}

// Now reports the clock's current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. Negative durations are ignored so
// cost models can never move time backwards.
func (c *Clock) Advance(d Duration) {
	if d > 0 {
		c.now += Time(d)
	}
}

// AdvanceTo moves the clock forward to t if t is in the future ("merge"
// with a timestamp received from another PE). It returns how far the clock
// advanced; if t is not in the future the clock is unchanged and AdvanceTo
// returns zero. The returned duration is the time the caller spent waiting
// for the merged event.
func (c *Clock) AdvanceTo(t Time) Duration {
	if t <= c.now {
		return 0
	}
	d := Duration(t - c.now)
	c.now = t
	return d
}

// Set forces the clock to t. Intended for tests and for launcher reset.
func (c *Clock) Set(t Time) { c.now = t }

// Resource models a shared hardware resource (a memory-controller port, a
// home tile's cache bank) serialized in virtual time. Acquire is safe for
// concurrent use.
//
// The approximation: requests are serviced in the real-time order they
// arrive, which under core.Run is the calendar's (clock, rank) order, each
// no earlier than both its requester's virtual time and the
// resource's next-free time. For barrier-synchronized SPMD phases this
// closely tracks a true event-ordered queue.
type Resource struct {
	mu       sync.Mutex
	nextFree Time
}

// Acquire books the resource for svc starting no earlier than now, and
// returns the virtual completion time.
func (r *Resource) Acquire(now Time, svc Duration) Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := Max(now, r.nextFree)
	done := start.Add(svc)
	r.nextFree = done
	return done
}

// NextFree reports when the resource next becomes idle.
func (r *Resource) NextFree() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextFree
}

// Reset makes the resource idle as of time zero.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextFree = 0
}
