// Package mpipe models the TILE-Gx mPIPE (multicore Programmable
// Intelligent Packet Engine) as a chip-to-chip fabric, implementing the
// multi-device shared-memory extension the paper proposes as future work:
// "we plan to leverage novel architectural features of the TILE-Gx such as
// the mPIPE packet engine as we explore designs for expanding the
// shared-memory abstraction in TSHMEM across multiple many-core devices"
// (Section VI).
//
// The model: chips are fully connected by MPIPELinks parallel 10GbE links.
// A control message costs the one-way mPIPE latency (classification, wire,
// load-balanced delivery); bulk data streams at the aggregate link rate,
// serialized per chip pair through a virtual-time resource so concurrent
// cross-chip transfers contend for the wire, unlike the on-chip iMesh.
//
// A fabric takes one caller at a time: under core.Run that is the PE
// holding the run's baton, so neither the inboxes nor the wires are locked.
package mpipe

import (
	"errors"
	"fmt"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// Errors.
var (
	ErrNoMPIPE = errors.New("mpipe: chip has no mPIPE engine")
	ErrClosed  = errors.New("mpipe: fabric closed")
	ErrBadPE   = errors.New("mpipe: destination PE out of range")

	// ErrTimeout reports a bounded wait that the Scheduler expired (fault
	// injection on a sender's chip may have swallowed the expected message).
	ErrTimeout = errors.New("mpipe: bounded wait timed out")
)

// Msg is one cross-chip control message.
type Msg struct {
	SrcPE  int
	Tag    uint32
	Words  []uint64
	Arrive vtime.Time
	Sent   vtime.Time // sender's virtual clock at injection completion
}

// inboxCap bounds the messages queued for one PE before the fabric
// backpressures its senders.
const inboxCap = 128

// Fabric connects the PEs of a multi-chip program. Control messages are
// addressed to PEs (each PE has an inbox); bulk transfers are charged
// against the per-chip-pair wire resource.
type Fabric struct {
	chip   *arch.Chip
	nchips int
	chipOf func(pe int) int

	inbox []inbox
	wires []vtime.Resource // chip pair a < b at a*nchips+b

	closed bool
	sched  Scheduler
}

// inbox is one PE's queue of control messages: msgs[head:], oldest first.
type inbox struct {
	msgs []Msg
	head int
}

func (b *inbox) push(m Msg) bool {
	if len(b.msgs)-b.head == inboxCap {
		return false
	}
	if b.head >= inboxCap { // never drained empty: drop the consumed prefix
		n := copy(b.msgs, b.msgs[b.head:])
		clear(b.msgs[n:])
		b.msgs, b.head = b.msgs[:n], 0
	}
	b.msgs = append(b.msgs, m)
	return true
}

func (b *inbox) pop() (Msg, bool) {
	if b.head == len(b.msgs) {
		return Msg{}, false
	}
	m := b.msgs[b.head]
	b.msgs[b.head] = Msg{}
	if b.head++; b.head == len(b.msgs) {
		b.msgs, b.head = b.msgs[:0], 0
	}
	return m, true
}

// Scheduler is where the fabric's blocking points block, mirroring
// udn.Scheduler: Send, Recv and RecvRaw poll, and hand the caller to
// WaitSend/WaitRecv when they would block. internal/core's calendar
// implements it. Inboxes are addressed by global PE rank, so no
// translation is needed.
type Scheduler interface {
	// WaitRecv parks PE pe until a message may be in its inbox; nil means
	// re-poll, a non-nil error is a bounded-wait expiry (ErrTimeout).
	WaitRecv(pe int) error
	// WaitSend parks PE src until space may be available in dst's inbox.
	WaitSend(src, dst int) error
	// Enqueued notes a message landed in pe's inbox: wakes its receiver.
	Enqueued(pe int)
	// Dequeued notes a message left pe's inbox: wakes parked senders.
	Dequeued(pe int)
}

// New creates a fabric for npes PEs spread over nchips chips whose blocking
// points park in sched; chipOf maps a PE to its chip.
func New(chip *arch.Chip, nchips, npes int, chipOf func(pe int) int, sched Scheduler) (*Fabric, error) {
	if !chip.HasMPIPE {
		return nil, fmt.Errorf("%w: %s", ErrNoMPIPE, chip.Name)
	}
	if nchips < 2 {
		return nil, fmt.Errorf("mpipe: a fabric needs at least 2 chips, got %d", nchips)
	}
	f := &Fabric{
		chip:   chip,
		nchips: nchips,
		chipOf: chipOf,
		inbox:  make([]inbox, npes),
		wires:  make([]vtime.Resource, nchips*nchips),
		sched:  sched,
	}
	return f, nil
}

// Chips reports the number of chips.
func (f *Fabric) Chips() int { return f.nchips }

// SameChip reports whether two PEs share a chip.
func (f *Fabric) SameChip(a, b int) bool { return f.chipOf(a) == f.chipOf(b) }

// latency is the one-way control-message latency.
func (f *Fabric) latency() vtime.Duration {
	return vtime.FromNs(f.chip.MPIPELatencyNs)
}

// aggMBs is the aggregate chip-pair data rate in MB/s.
func (f *Fabric) aggMBs() float64 {
	return float64(f.chip.MPIPELinks) * f.chip.MPIPELinkGbps * 1000 / 8
}

// wire returns the virtual-time resource serializing bulk data between a
// chip pair.
func (f *Fabric) wire(a, b int) *vtime.Resource {
	if a > b {
		a, b = b, a
	}
	return &f.wires[a*f.nchips+b]
}

// Send delivers a control message to PE dst on another chip. The sender's
// clock advances by the injection share; the message carries the arrival
// time.
func (f *Fabric) Send(clock *vtime.Clock, srcPE, dstPE int, tag uint32, words []uint64) error {
	if dstPE < 0 || dstPE >= len(f.inbox) {
		return fmt.Errorf("%w: %d", ErrBadPE, dstPE)
	}
	// Injection: the sending tile hands the packet to mPIPE.
	clock.Advance(f.latency() / 4)
	msg := Msg{
		SrcPE:  srcPE,
		Tag:    tag,
		Words:  words,
		Arrive: clock.Now().Add(f.latency() * 3 / 4),
		Sent:   clock.Now(),
	}
	for {
		if f.inbox[dstPE].push(msg) {
			f.sched.Enqueued(dstPE)
			return nil
		}
		if f.closed {
			return ErrClosed
		}
		if err := f.sched.WaitSend(srcPE, dstPE); err != nil {
			return err
		}
	}
}

// Recv blocks until a message for PE pe arrives, merging the clock with its
// arrival time. Callers needing tag matching should stash mismatches
// themselves (as the UDN users do).
func (f *Fabric) Recv(clock *vtime.Clock, pe int) (Msg, error) {
	m, err := f.RecvRaw(pe)
	if err == nil {
		clock.AdvanceTo(m.Arrive)
	}
	return m, err
}

// RecvRaw is Recv without the clock merge; callers that stash out-of-order
// messages merge with Msg.Arrive when they actually consume one.
func (f *Fabric) RecvRaw(pe int) (Msg, error) {
	if pe < 0 || pe >= len(f.inbox) {
		return Msg{}, fmt.Errorf("%w: %d", ErrBadPE, pe)
	}
	for {
		// Poll before the closed check: a closed fabric still drains what
		// already arrived.
		if m, ok := f.inbox[pe].pop(); ok {
			f.sched.Dequeued(pe)
			return m, nil
		}
		if f.closed {
			return Msg{}, ErrClosed
		}
		if err := f.sched.WaitRecv(pe); err != nil {
			return Msg{}, err
		}
	}
}

// ChargeData books a bulk transfer of size bytes between the chips of
// srcPE and dstPE: the caller's clock advances past the wire time,
// contending with other transfers on the same chip pair.
func (f *Fabric) ChargeData(clock *vtime.Clock, srcPE, dstPE int, size int64) {
	if size <= 0 {
		clock.Advance(f.latency())
		return
	}
	wireTime := vtime.FromNs(float64(size) / f.aggMBs() * 1e3)
	done := f.wire(f.chipOf(srcPE), f.chipOf(dstPE)).Acquire(clock.Now(), wireTime)
	clock.AdvanceTo(done.Add(f.latency()))
}

// DataCost reports the uncontended wire time for size bytes (for
// inspection and tests).
func (f *Fabric) DataCost(size int64) vtime.Duration {
	if size <= 0 {
		return f.latency()
	}
	return f.latency() + vtime.FromNs(float64(size)/f.aggMBs()*1e3)
}

// Close shuts the fabric down: a receiver that finds its inbox empty, or a
// sender that finds its destination's full, gets ErrClosed.
func (f *Fabric) Close() { f.closed = true }
