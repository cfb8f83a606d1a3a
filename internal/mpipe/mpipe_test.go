package mpipe

import (
	"errors"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// stubSched is the Scheduler of a test that drives the fabric from one
// goroutine, so nothing can ever wake a wait: a wait runs onWait and
// re-polls, or fails with errWouldBlock when onWait is nil.
type stubSched struct{ onWait func() }

var errWouldBlock = errors.New("mpipe test: a wait would block")

func (s *stubSched) wait() error {
	if s.onWait == nil {
		return errWouldBlock
	}
	s.onWait()
	return nil
}

func (s *stubSched) WaitRecv(int) error      { return s.wait() }
func (s *stubSched) WaitSend(int, int) error { return s.wait() }
func (s *stubSched) Enqueued(int)            {}
func (s *stubSched) Dequeued(int)            {}

func fabric(t *testing.T, nchips, npes int, sched Scheduler) *Fabric {
	t.Helper()
	per := (npes + nchips - 1) / nchips
	f, err := New(arch.Gx8036(), nchips, npes, func(pe int) int { return pe / per }, sched)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(arch.Pro64(), 2, 4, func(int) int { return 0 }, &stubSched{}); !errors.Is(err, ErrNoMPIPE) {
		t.Errorf("TILEPro fabric: %v", err)
	}
	if _, err := New(arch.Gx8036(), 1, 4, func(int) int { return 0 }, &stubSched{}); err == nil {
		t.Error("single-chip fabric accepted")
	}
}

func TestSendRecv(t *testing.T) {
	f := fabric(t, 2, 4, &stubSched{})
	defer f.Close()
	var sc, rc vtime.Clock
	if err := f.Send(&sc, 0, 2, 7, []uint64{42}); err != nil {
		t.Fatal(err)
	}
	m, err := f.Recv(&rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.SrcPE != 0 || m.Tag != 7 || m.Words[0] != 42 {
		t.Errorf("message corrupted: %+v", m)
	}
	// One-way latency ~ MPIPELatencyNs (1800 ns on the Gx): far above UDN.
	if ns := rc.Now().Ns(); ns < 1700 || ns > 2000 {
		t.Errorf("control latency = %.0f ns, want ~1800", ns)
	}
	if f.Chips() != 2 {
		t.Errorf("Chips = %d", f.Chips())
	}
	if !f.SameChip(0, 1) || f.SameChip(1, 2) {
		t.Error("SameChip wrong")
	}
}

func TestSendValidation(t *testing.T) {
	f := fabric(t, 2, 4, &stubSched{})
	defer f.Close()
	var c vtime.Clock
	if err := f.Send(&c, 0, 9, 0, []uint64{1}); !errors.Is(err, ErrBadPE) {
		t.Errorf("bad dst: %v", err)
	}
	if _, err := f.Recv(&c, -1); !errors.Is(err, ErrBadPE) {
		t.Errorf("bad recv pe: %v", err)
	}
}

func TestDataCost(t *testing.T) {
	f := fabric(t, 2, 4, &stubSched{})
	defer f.Close()
	// 4x10GbE = 5000 MB/s aggregate: 5 MB should take ~1 ms + latency.
	d := f.DataCost(5 << 20)
	if d.Ms() < 0.9 || d.Ms() > 1.3 {
		t.Errorf("5 MB wire time = %v, want ~1.05 ms", d)
	}
	if f.DataCost(0) != f.DataCost(-1) {
		t.Error("non-positive sizes should cost the control latency")
	}
}

func TestChargeDataContends(t *testing.T) {
	// Two transfers on the same chip pair serialize on the wire; a transfer
	// on a different pair does not.
	f := fabric(t, 3, 6, &stubSched{})
	defer f.Close()
	var a, b, c vtime.Clock
	f.ChargeData(&a, 0, 2, 1<<20) // chips 0->1
	f.ChargeData(&b, 1, 3, 1<<20) // chips 0->1 again: queues behind a
	f.ChargeData(&c, 0, 4, 1<<20) // chips 0->2: independent wire
	if b.Now() <= a.Now() {
		t.Errorf("same-pair transfer should queue: %v vs %v", b.Now(), a.Now())
	}
	if c.Now() >= b.Now() {
		t.Errorf("different pair should not queue: %v vs %v", c.Now(), b.Now())
	}
}

// TestCloseUnblocks: a receiver parked on an empty inbox gets ErrClosed
// once the fabric closes; the stub's wait is where the close happens.
func TestCloseUnblocks(t *testing.T) {
	sched := &stubSched{}
	f := fabric(t, 2, 4, sched)
	sched.onWait = f.Close
	var c vtime.Clock
	if _, err := f.Recv(&c, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v", err)
	}
	if err := f.Send(&c, 0, 1, 0, []uint64{1}); err == nil {
		// Send may still succeed if the inbox has room; both behaviors are
		// acceptable, but a queued message must still be drainable.
		if _, err := f.Recv(&c, 1); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("drain after close: %v", err)
		}
	}
}
