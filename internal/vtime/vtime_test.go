package vtime

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationConversions(t *testing.T) {
	cases := []struct {
		ns   float64
		want Duration
	}{
		{0, 0},
		{-5, 0},
		{1, Nanosecond},
		{0.5, 500 * Picosecond},
		{1000, Microsecond},
		{21.0, 21 * Nanosecond},
	}
	for _, c := range cases {
		if got := FromNs(c.ns); got != c.want {
			t.Errorf("FromNs(%v) = %v, want %v", c.ns, got, c.want)
		}
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want %v", got, 1500*Millisecond)
	}
	d := 1234 * Nanosecond
	if math.Abs(d.Us()-1.234) > 1e-12 {
		t.Errorf("Us() = %v, want 1.234", d.Us())
	}
	if math.Abs(d.Ns()-1234) > 1e-9 {
		t.Errorf("Ns() = %v, want 1234", d.Ns())
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "0.5ns"},
		{1500 * Nanosecond, "1.50us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.0000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	c.Advance(10 * Nanosecond)
	c.Advance(-5 * Nanosecond) // ignored
	if got := c.Now(); got != Time(10*Nanosecond) {
		t.Fatalf("after advances clock at %v, want 10ns", got)
	}
	if w := c.AdvanceTo(Time(5 * Nanosecond)); w != 0 {
		t.Errorf("AdvanceTo(past) waited %v, want 0", w)
	}
	if w := c.AdvanceTo(Time(25 * Nanosecond)); w != 15*Nanosecond {
		t.Errorf("AdvanceTo(future) waited %v, want 15ns", w)
	}
	if got := c.Now(); got != Time(25*Nanosecond) {
		t.Errorf("clock at %v, want 25ns", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	// Property: no sequence of Advance/AdvanceTo calls moves a clock
	// backwards.
	f := func(steps []int64) bool {
		var c Clock
		prev := c.Now()
		for _, s := range steps {
			s %= int64(Second) // bound to realistic per-op durations
			if s%2 == 0 {
				c.Advance(Duration(s))
			} else {
				c.AdvanceTo(Time(s))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	a, b := Time(10*Nanosecond), Time(4*Nanosecond)
	if got := a.Sub(b); got != 6*Nanosecond {
		t.Errorf("Sub = %v, want 6ns", got)
	}
	if got := b.Add(6 * Nanosecond); got != a {
		t.Errorf("Add = %v, want %v", got, a)
	}
	if Max(a, b) != a || Max(b, a) != a {
		t.Error("Max picked the wrong operand")
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	done1 := r.Acquire(Time(0), 10*Nanosecond)
	if done1 != Time(10*Nanosecond) {
		t.Fatalf("first acquire done at %v, want 10ns", done1)
	}
	// A request arriving at t=2 must wait for the resource.
	done2 := r.Acquire(Time(2*Nanosecond), 10*Nanosecond)
	if done2 != Time(20*Nanosecond) {
		t.Fatalf("second acquire done at %v, want 20ns", done2)
	}
	// A request arriving after the resource is idle starts immediately.
	done3 := r.Acquire(Time(100*Nanosecond), 10*Nanosecond)
	if done3 != Time(110*Nanosecond) {
		t.Fatalf("third acquire done at %v, want 110ns", done3)
	}
	if r.NextFree() != done3 {
		t.Errorf("NextFree = %v, want %v", r.NextFree(), done3)
	}
	r.Reset()
	if r.NextFree() != 0 {
		t.Errorf("after Reset NextFree = %v, want 0", r.NextFree())
	}
}
