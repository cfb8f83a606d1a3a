package udn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tshmem/internal/fault"
	"tshmem/internal/mesh"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// Errors returned by UDN operations.
var (
	ErrClosed       = errors.New("udn: port closed")
	ErrBadQueue     = errors.New("udn: demux queue out of range")
	ErrBadCPU       = errors.New("udn: destination CPU out of range")
	ErrPayload      = errors.New("udn: payload size out of range")
	ErrNoInterrupts = errors.New("udn: chip does not support UDN interrupts")
	ErrNoHandler    = errors.New("udn: destination tile has no interrupt handler")

	// ErrTimeout reports a bounded wait that expired under fault
	// injection: a receive that never completed within the host-time
	// grace, a send stuck on backpressure, or an interrupt whose request
	// or reply was dropped. Only possible after SetFaults; the caller
	// (internal/core) converts it into a virtual-time diagnostic.
	ErrTimeout = errors.New("udn: bounded wait timed out")
)

// queueCap bounds in-flight packets per demux queue. The hardware queue
// holds up to 127 payload words, i.e. on the order of 127 minimum-sized
// packets, before the network backpressures the sender. Capacity is not
// what keeps the library's protocols deadlock-free — a synthetic mesh has
// thousands of tiles, and the literal start_pes exchange (run only under
// fault injection) aims up to NPEs-1 packets at one queue: every receive
// loop drains its queue whenever it waits (stashing packets that arrived
// ahead of their round), so a backpressured sender always unblocks. A
// queue's buffer (queueCap Packets, ~14 KiB) is allocated on first use,
// see Port.queue.
const queueCap = 128

// inlineWords is the payload capacity a Packet stores directly in its
// struct body. Every library protocol message fits: barrier wait/release
// signals and collective flow-control signals are 1 word, the start_pes
// address exchange is 1 word, and the static-redirection interrupt request
// is 5 words. Only application payloads beyond inlineWords words fall back
// to a heap-allocated slice.
const inlineWords = 6

// Packet is one UDN message as seen by the receiver. Small payloads (up to
// inlineWords words) live inline in the struct, so sending and receiving
// library protocol traffic allocates nothing; access the payload through
// Len, Word, and Payload.
type Packet struct {
	Src    int        // sender's virtual CPU
	Tag    uint32     // application tag from the header word
	Arrive vtime.Time // virtual time the packet is available at the queue
	Sent   vtime.Time // sender's virtual clock at injection completion

	nw     int32 // payload length in words (1..UDNMaxWords)
	inline [inlineWords]uint64
	ext    []uint64 // payload when nw > inlineWords; nil otherwise
}

// makePacket builds a Packet carrying words. Payloads up to inlineWords are
// copied into the struct body; larger ones are cloned onto the heap, so the
// caller's slice is never retained and may be reused immediately.
func makePacket(src int, tag uint32, words []uint64, arrive vtime.Time) Packet {
	p := Packet{Src: src, Tag: tag, Arrive: arrive, nw: int32(len(words))}
	if len(words) <= inlineWords {
		copy(p.inline[:], words)
	} else {
		p.ext = append([]uint64(nil), words...)
	}
	return p
}

// Len reports the payload length in words.
func (p *Packet) Len() int { return int(p.nw) }

// Word returns payload word i. It panics on out-of-range i, mirroring
// slice indexing.
func (p *Packet) Word(i int) uint64 {
	if i < 0 || i >= int(p.nw) {
		panic(fmt.Sprintf("udn: payload word %d of %d", i, p.nw))
	}
	if p.ext != nil {
		return p.ext[i]
	}
	return p.inline[i]
}

// Payload returns the payload as a slice. For inline payloads the slice
// views this Packet value's own storage: it is valid while p is and must
// not be held past p's lifetime.
func (p *Packet) Payload() []uint64 {
	if p.ext != nil {
		return p.ext
	}
	return p.inline[:p.nw]
}

// Handler services a UDN interrupt on the destination tile. It runs on the
// tile's interrupt context (a dedicated goroutine), performs the requested
// operation, and returns reply payload words plus the virtual service time
// the operation consumed on the remote tile.
type Handler func(req Packet) (reply []uint64, service vtime.Duration)

// Scheduler lets an event-driven engine mediate the network's blocking
// points. With a scheduler attached, Send/Recv/RecvRaw never block on
// channels: they poll, and when they would block they park the calling
// PE via WaitSend/WaitRecv until a matching Enqueued/Dequeued
// notification makes progress possible, then poll again. A wake is only
// a hint — the loops re-check, so conservative notifications are safe.
// Interrupts are serviced inline on the requester's goroutine instead of
// on a per-tile servicer goroutine.
type Scheduler interface {
	// WaitRecv parks the PE on tile cpu until a packet may be available
	// on its demux queue dq. nil means re-poll (including after an abort:
	// the re-poll observes the closed port); a non-nil error — ErrTimeout
	// — means the engine expired this bounded wait under fault injection.
	WaitRecv(cpu, dq int) error
	// WaitSend parks the PE on tile src until space may be available in
	// destination queue (dst, dq) — hardware backpressure.
	WaitSend(src, dst, dq int) error
	// Enqueued notes that a packet landed in (dst, dq): wakes parked
	// receivers.
	Enqueued(dst, dq int)
	// Dequeued notes that a packet left (cpu, dq): wakes parked senders.
	Dequeued(cpu, dq int)
}

// Network is the chip-wide UDN: one port per tile of the test-area
// geometry.
type Network struct {
	geo   mesh.Geometry
	ports []*Port
	links *mesh.LinkStats // nil disables per-link accounting
	flt   *fault.ChipView // nil disables fault injection
	grace time.Duration   // host-time bound on blocking ops; 0 = unbounded
	sched Scheduler       // nil means free-running goroutines block on channels
}

// SetScheduler attaches an event-driven engine's scheduler to every
// blocking point of this network. A nil scheduler (the default) keeps
// the channel-blocking behavior. Set before PEs start communicating.
func (n *Network) SetScheduler(s Scheduler) { n.sched = s }

// SetLinkStats attaches per-directed-link utilization accounting: every
// packet's XY route is charged onto ls, and receive-queue occupancy
// high-water marks are tracked per destination tile. A nil ls (the
// default) disables accounting. Set before PEs start communicating.
func (n *Network) SetLinkStats(ls *mesh.LinkStats) { n.links = ls }

// SetFaults attaches a fault-injection view of this chip and arms the
// host-time grace bound on every blocking operation: a Send stuck on
// backpressure, a Recv with nothing arriving, or an Interrupt owed a
// reply gives up after grace with ErrTimeout instead of blocking
// forever. The fault view perturbs packets deterministically in virtual
// time; the grace timer is purely a host-liveness fallback for traffic a
// fault swallowed, so it never influences virtual timestamps. A nil cv
// with grace 0 (the default) restores the perfect substrate. Set before
// PEs start communicating.
func (n *Network) SetFaults(cv *fault.ChipView, grace time.Duration) {
	n.flt = cv
	n.grace = grace
}

// timeoutCh returns a channel that fires after the network's grace bound,
// plus its timer (stop it when done). A nil channel — never ready — is
// returned when no grace is armed, so selects can always include it.
func (n *Network) timeoutCh() (<-chan time.Time, *time.Timer) {
	if n.grace <= 0 {
		return nil, nil
	}
	t := time.NewTimer(n.grace)
	return t.C, t
}

// New builds a UDN over the given test-area geometry.
func New(geo mesh.Geometry) *Network {
	n := &Network{geo: geo}
	n.ports = make([]*Port, geo.Tiles())
	for i := range n.ports {
		n.ports[i] = &Port{net: n, cpu: i}
	}
	return n
}

// Geometry returns the network's test-area geometry.
func (n *Network) Geometry() mesh.Geometry { return n.geo }

// Tiles reports the number of attached tiles.
func (n *Network) Tiles() int { return len(n.ports) }

// Port returns tile cpu's UDN port.
func (n *Network) Port(cpu int) (*Port, error) {
	if cpu < 0 || cpu >= len(n.ports) {
		return nil, fmt.Errorf("%w: %d", ErrBadCPU, cpu)
	}
	return n.ports[cpu], nil
}

// Close shuts down every port and waits for their interrupt servicers to
// exit. Pending receivers unblock with ErrClosed.
// Mirrors the teardown the paper's proposed shmem_finalize() performs:
// leaving the UDN engaged risks platform lockup.
func (n *Network) Close() {
	for _, p := range n.ports {
		p.close()
	}
}

// Port is one tile's attachment to the UDN: four demultiplexing receive
// queues plus an optional interrupt lane.
type Port struct {
	net *Network
	cpu int
	rec *stats.Recorder

	// prof is the owning PE's causal-profiler recorder (nil when
	// Config.Profile is off); rankBase translates this chip's local CPU
	// numbers into global PE ranks for cross-PE edges.
	prof     *profile.Recorder
	rankBase int

	queues [4]demuxQueue

	intrMu   sync.Mutex
	intrSvc  *intrServicer
	closed   atomic.Bool
	closeOne sync.Once
	done     chan struct{}
	doneOnce sync.Once

	// replyCh is the reusable interrupt-reply channel. Interrupt is only
	// ever called by the goroutine that owns this port, so the channel can
	// be allocated once and reused across calls; it is dropped (and a
	// fresh one made next call) if a wait is abandoned with a reply still
	// owed, so a stale reply can never be read as a fresh one.
	replyCh chan Packet
}

// CPU reports the virtual CPU this port belongs to.
func (p *Port) CPU() int { return p.cpu }

// SetRecorder attaches the owning PE's substrate recorder. A nil recorder
// (the default) disables accounting. Must be set before the PE starts
// communicating; the recorder must belong to the goroutine that uses this
// port.
func (p *Port) SetRecorder(rec *stats.Recorder) { p.rec = rec }

// SetProfiler attaches the owning PE's causal-profiler recorder plus the
// chip's global rank base (global PE id = rankBase + local cpu). A nil
// recorder (the default) disables attribution. Same ownership rule as
// SetRecorder.
func (p *Port) SetProfiler(prof *profile.Recorder, rankBase int) {
	p.prof = prof
	p.rankBase = rankBase
}

// profSend attributes a completed injection advance that began at t0:
// the modeled injection cost goes to udn.send, any fault-injected excess
// to fault.stall.
func (p *Port) profSend(clock *vtime.Clock, t0 vtime.Time, base vtime.Duration) {
	if p.prof == nil {
		return
	}
	now := clock.Now()
	mid := t0.Add(base)
	if mid > now {
		mid = now
	}
	p.prof.Advance(profile.CatUDNSend, t0, mid)
	p.prof.Advance(profile.CatFault, mid, now)
}

// profRecv attributes the receive merge that began at start: idle before
// the sender injected is udn.wait, the in-flight tail is mesh, carrying
// the happens-before edge the critical path follows.
func (p *Port) profRecv(start vtime.Time, pkt *Packet) {
	if p.prof == nil {
		return
	}
	p.prof.Merge(profile.CatUDNWait, start, sanitize.Edge{
		PE:     int32(p.rankBase + p.cpu),
		Peer:   int32(p.rankBase + pkt.Src),
		Sent:   pkt.Sent,
		Arrive: pkt.Arrive,
	})
}

// demuxQueue is one receive queue of a port. Its channel is made by
// whichever side touches the queue first: most tiles never use most of
// their queues (an empty-body launch touches only the barrier queue), and
// four eager ~14 KiB buffers per tile would dominate the host memory of a
// large mesh.
type demuxQueue struct {
	once sync.Once
	ch   chan Packet
}

// queue returns demux queue dq's channel, making it on first use. dq must
// be in range.
func (p *Port) queue(dq int) chan Packet {
	q := &p.queues[dq]
	q.once.Do(func() { q.ch = make(chan Packet, queueCap) })
	return q.ch
}

func (p *Port) doneCh() chan struct{} {
	p.doneOnce.Do(func() { p.done = make(chan struct{}) })
	return p.done
}

// Send transmits words to queue dq of tile dst, blocking while the
// destination queue is full (hardware backpressure). The sender's clock
// advances by the injection share of the one-way latency; the packet
// carries the full arrival timestamp.
func (p *Port) Send(clock *vtime.Clock, dst, dq int, tag uint32, words []uint64) error {
	if p.closed.Load() {
		return ErrClosed
	}
	if dq < 0 || dq >= len(p.queues) {
		return fmt.Errorf("%w: %d", ErrBadQueue, dq)
	}
	dp, err := p.net.Port(dst)
	if err != nil {
		return err
	}
	if dp.closed.Load() {
		return ErrClosed
	}
	nw := len(words)
	if nw < 1 || nw > p.net.geo.Chip().UDNMaxWords {
		return fmt.Errorf("%w: %d words", ErrPayload, nw)
	}
	path, err := p.net.geo.Path(p.cpu, dst, nw)
	if err != nil {
		return err
	}
	send, wire := path.Send, path.Wire
	baseSend := send
	if p.net.flt != nil {
		s2, w2, id, drop := p.net.flt.AdjustSend(p.cpu, dst, clock.Now(), send, wire)
		if drop {
			// A dead tile swallows the packet silently: the sender pays its
			// injection cost and moves on, exactly like fire-and-forget
			// hardware. Whoever expected this packet will time out.
			t0 := clock.Now()
			clock.Advance(s2)
			p.profSend(clock, t0, baseSend)
			p.rec.FaultDrop(id, dst, clock.Now())
			return nil
		}
		if id >= 0 {
			p.rec.FaultDelay(id, dst, clock.Now(), (s2+w2)-(send+wire))
			send, wire = s2, w2
		}
	}
	t0 := clock.Now()
	clock.Advance(send)
	p.profSend(clock, t0, baseSend)
	p.rec.UDNSend(nw, path.Hops, send+wire)
	p.net.links.RecordRoute(p.cpu, dst, nw)
	arrive := clock.Now().Add(wire)
	if p.net.flt != nil {
		a2, id, drop := p.net.flt.HoldArrive(dst, dq, arrive)
		if drop {
			p.rec.FaultDrop(id, dst, arrive)
			return nil
		}
		if a2 > arrive {
			p.rec.FaultDelay(id, dst, arrive, a2.Sub(arrive))
			arrive = a2
		}
	}
	pkt := makePacket(p.cpu, tag, words, arrive)
	pkt.Sent = clock.Now()
	q := dp.queue(dq)
	if s := p.net.sched; s != nil {
		for {
			select {
			case q <- pkt:
				p.net.links.RecordQueueDepth(dst, len(q))
				s.Enqueued(dst, dq)
				return nil
			default:
			}
			if dp.closed.Load() {
				return ErrClosed
			}
			if err := s.WaitSend(p.cpu, dst, dq); err != nil {
				return err
			}
		}
	}
	timeout, timer := p.net.timeoutCh()
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case q <- pkt:
		p.net.links.RecordQueueDepth(dst, len(q))
		return nil
	case <-timeout:
		return ErrTimeout
	case <-dp.doneCh():
		return ErrClosed
	}
}

// Recv blocks until a packet is available on demux queue dq, merges the
// receiver's clock with the packet arrival time, and returns the packet.
func (p *Port) Recv(clock *vtime.Clock, dq int) (Packet, error) {
	if dq < 0 || dq >= len(p.queues) {
		return Packet{}, fmt.Errorf("%w: %d", ErrBadQueue, dq)
	}
	q := p.queue(dq)
	if s := p.net.sched; s != nil {
		for {
			// Poll before the closed check: a closed port still drains
			// what already arrived, like the goroutine path below.
			select {
			case pkt := <-q:
				start := clock.Now()
				wait := clock.AdvanceTo(pkt.Arrive)
				p.rec.UDNRecvWait(pkt.Len(), wait)
				p.profRecv(start, &pkt)
				s.Dequeued(p.cpu, dq)
				return pkt, nil
			default:
			}
			if p.closed.Load() {
				return Packet{}, ErrClosed
			}
			if err := s.WaitRecv(p.cpu, dq); err != nil {
				return Packet{}, err
			}
		}
	}
	timeout, timer := p.net.timeoutCh()
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case pkt := <-q:
		start := clock.Now()
		wait := clock.AdvanceTo(pkt.Arrive)
		p.rec.UDNRecvWait(pkt.Len(), wait)
		p.profRecv(start, &pkt)
		return pkt, nil
	case <-timeout:
		return Packet{}, ErrTimeout
	case <-p.doneCh():
		// Drain anything already queued before reporting closure.
		select {
		case pkt := <-q:
			start := clock.Now()
			wait := clock.AdvanceTo(pkt.Arrive)
			p.rec.UDNRecvWait(pkt.Len(), wait)
			p.profRecv(start, &pkt)
			return pkt, nil
		default:
			return Packet{}, ErrClosed
		}
	}
}

// RecvRaw blocks until a packet is available on demux queue dq and returns
// it WITHOUT merging any clock: the caller decides when the packet is
// logically processed and merges with pkt.Arrive itself. Protocol loops
// that stash out-of-order packets use this so that stashed arrivals do not
// perturb the virtual clock before they are consumed.
func (p *Port) RecvRaw(dq int) (Packet, error) {
	if dq < 0 || dq >= len(p.queues) {
		return Packet{}, fmt.Errorf("%w: %d", ErrBadQueue, dq)
	}
	q := p.queue(dq)
	if s := p.net.sched; s != nil {
		for {
			select {
			case pkt := <-q:
				p.rec.UDNRecv(pkt.Len())
				s.Dequeued(p.cpu, dq)
				return pkt, nil
			default:
			}
			if p.closed.Load() {
				return Packet{}, ErrClosed
			}
			if err := s.WaitRecv(p.cpu, dq); err != nil {
				return Packet{}, err
			}
		}
	}
	timeout, timer := p.net.timeoutCh()
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case pkt := <-q:
		p.rec.UDNRecv(pkt.Len())
		return pkt, nil
	case <-timeout:
		return Packet{}, ErrTimeout
	case <-p.doneCh():
		select {
		case pkt := <-q:
			p.rec.UDNRecv(pkt.Len())
			return pkt, nil
		default:
			return Packet{}, ErrClosed
		}
	}
}

// TryRecv is the non-blocking variant of Recv. ok reports whether a packet
// was available.
func (p *Port) TryRecv(clock *vtime.Clock, dq int) (Packet, bool, error) {
	if dq < 0 || dq >= len(p.queues) {
		return Packet{}, false, fmt.Errorf("%w: %d", ErrBadQueue, dq)
	}
	q := p.queue(dq)
	select {
	case pkt := <-q:
		start := clock.Now()
		wait := clock.AdvanceTo(pkt.Arrive)
		p.rec.UDNRecvWait(pkt.Len(), wait)
		p.profRecv(start, &pkt)
		if s := p.net.sched; s != nil {
			s.Dequeued(p.cpu, dq)
		}
		return pkt, true, nil
	default:
		if p.closed.Load() {
			return Packet{}, false, ErrClosed
		}
		return Packet{}, false, nil
	}
}

// intrServicer drains a tile's interrupt lane on a dedicated goroutine (the
// event engine services inline on the requester instead, see Interrupt),
// modeling the tile being forced to service operations (S IV.B.2). A
// vtime.Resource serializes overlapping interrupts in virtual time: a tile
// services one interrupt at a time.
type intrServicer struct {
	handler Handler
	busy    vtime.Resource

	// The request lane and the goroutine draining it exist from the first
	// interrupt raised on this tile: most runs never redirect a static
	// transfer, and a lane is ~15 KiB and a goroutine per tile otherwise.
	start  sync.Once
	reqs   chan intrRequest
	exited chan struct{} // closed when run returns; nil if never started
}

type intrRequest struct {
	pkt   Packet
	reply chan Packet // carries reply words + arrival timestamp back
}

// SetHandler installs the interrupt handler for this tile. Only chips with
// UDN interrupt support (TILE-Gx) accept a handler.
func (p *Port) SetHandler(h Handler) error {
	if !p.net.geo.Chip().UDNInterrupts {
		return ErrNoInterrupts
	}
	if p.closed.Load() {
		return ErrClosed
	}
	p.intrMu.Lock()
	defer p.intrMu.Unlock()
	if p.intrSvc != nil {
		p.intrSvc.handler = h
		return nil
	}
	p.intrSvc = &intrServicer{handler: h}
	return nil
}

// lane returns the request lane of p's servicer, starting the tile's
// interrupt context on first use. The goroutine exits when p closes, and
// p's close waits for it. A servicer that had not started by then never
// will: its lane stays nil, and requesters fall through to the closed port.
func (s *intrServicer) lane(p *Port) chan intrRequest {
	s.start.Do(func() {
		s.reqs = make(chan intrRequest, queueCap)
		s.exited = make(chan struct{})
		go s.run(p)
	})
	return s.reqs
}

// stop waits for the servicer goroutine, if one was ever started, to leave
// its handler and exit. The port's done channel must already be closed.
func (s *intrServicer) stop() {
	s.start.Do(func() {})
	if s.exited != nil {
		<-s.exited
	}
}

func (s *intrServicer) run(p *Port) {
	defer close(s.exited)
	intrOvh := vtime.FromNs(p.net.geo.Chip().UDNInterruptNs)
	for {
		select {
		case req := <-s.reqs:
			words, service := s.handler(req.pkt)
			// The tile enters the interrupt no earlier than the request's
			// arrival and no earlier than the end of the previous interrupt.
			done := s.busy.Acquire(req.pkt.Arrive, intrOvh+service)
			req.reply <- makePacket(p.cpu, req.pkt.Tag, words, done)
		case <-p.doneCh():
			return
		}
	}
}

// Interrupt raises a UDN interrupt on tile dst: the caller blocks until the
// destination tile has serviced the request and the reply has traveled
// back. The caller's clock ends at reply arrival. This is the primitive
// TSHMEM's static-variable redirection is built on.
func (p *Port) Interrupt(clock *vtime.Clock, dst int, tag uint32, words []uint64) (Packet, error) {
	if !p.net.geo.Chip().UDNInterrupts {
		return Packet{}, ErrNoInterrupts
	}
	if p.closed.Load() {
		return Packet{}, ErrClosed
	}
	dp, err := p.net.Port(dst)
	if err != nil {
		return Packet{}, err
	}
	dp.intrMu.Lock()
	svc := dp.intrSvc
	dp.intrMu.Unlock()
	if svc == nil {
		return Packet{}, ErrNoHandler
	}
	nw := len(words)
	if nw < 1 || nw > p.net.geo.Chip().UDNMaxWords {
		return Packet{}, fmt.Errorf("%w: %d words", ErrPayload, nw)
	}
	path, err := p.net.geo.Path(p.cpu, dst, nw)
	if err != nil {
		return Packet{}, err
	}
	if p.net.flt != nil {
		// Interrupts model only drop faults (a dead tile or a dropped
		// interrupt lane); slow-tile and slow-link plans leave the
		// interrupt round-trip untouched. The requester pays its injection
		// cost and learns immediately — deterministically in virtual time —
		// that no reply will ever come.
		if id, drop := p.net.flt.DropInterrupt(p.cpu, dst, clock.Now()); drop {
			t0 := clock.Now()
			clock.Advance(path.Send)
			p.profSend(clock, t0, path.Send)
			p.rec.FaultDrop(id, dst, clock.Now())
			return Packet{}, ErrTimeout
		}
	}
	t0 := clock.Now()
	clock.Advance(path.Send)
	p.profSend(clock, t0, path.Send)
	p.net.links.RecordRoute(p.cpu, dst, nw)
	if p.net.sched != nil {
		// Event engine: service the interrupt inline on the requester's
		// goroutine. The handler is written to run on a foreign goroutine
		// either way, and the single-runner schedule makes the inline call
		// race-free. The virtual math is the servicer-goroutine path's
		// exactly, including busy's serialization of overlapping
		// interrupts on the destination tile.
		pkt := makePacket(p.cpu, tag, words, clock.Now().Add(path.Wire))
		repWords, service := svc.handler(pkt)
		intrOvh := vtime.FromNs(p.net.geo.Chip().UDNInterruptNs)
		done := svc.busy.Acquire(pkt.Arrive, intrOvh+service)
		return p.finishInterrupt(clock, dst, nw, path.Hops,
			makePacket(dst, pkt.Tag, repWords, done))
	}
	if p.replyCh == nil {
		p.replyCh = make(chan Packet, 1)
	}
	req := intrRequest{
		pkt:   makePacket(p.cpu, tag, words, clock.Now().Add(path.Wire)),
		reply: p.replyCh,
	}
	timeout, timer := p.net.timeoutCh()
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case svc.lane(dp) <- req:
	case <-timeout:
		return Packet{}, ErrTimeout
	case <-dp.doneCh():
		return Packet{}, ErrClosed
	}
	select {
	case rep := <-req.reply:
		return p.finishInterrupt(clock, dst, nw, path.Hops, rep)
	case <-timeout:
		// Same stale-reply hazard as the closed case below: a reply may
		// still land on this channel after we give up.
		p.replyCh = nil
		return Packet{}, ErrTimeout
	case <-p.doneCh():
		// The servicer still owes a reply on this channel; its buffered
		// send will land after we are gone. Drop the channel so the next
		// Interrupt cannot mistake that stale reply for its own.
		p.replyCh = nil
		return Packet{}, ErrClosed
	}
}

// finishInterrupt models the interrupt reply's trip back and merges it
// into the requester's clock — the tail shared by the servicer-goroutine
// path and the event engine's inline-servicing path.
func (p *Port) finishInterrupt(clock *vtime.Clock, dst, nw, hops int, rep Packet) (Packet, error) {
	// Reply travels back over the UDN.
	repWords := max(1, rep.Len())
	back, err := p.net.geo.OneWayLatency(dst, p.cpu, repWords)
	if err != nil {
		return Packet{}, err
	}
	rep.Arrive = rep.Arrive.Add(back)
	waitStart := clock.Now()
	clock.AdvanceTo(rep.Arrive)
	// The interrupt servicer is not a profiled PE timeline, so the
	// round-trip wait carries no edge: the critical path stays on the
	// requester (documented limitation; see docs/OBSERVABILITY.md).
	p.prof.Advance(profile.CatUDNWait, waitStart, clock.Now())
	// The requester accounts the whole round-trip; the servicer
	// goroutine must not touch any recorder. The reply's route is
	// charged here too — links are shared atomics, unlike recorders.
	p.rec.UDNInterrupt(nw, repWords, hops)
	p.net.links.RecordRoute(dst, p.cpu, repWords)
	return rep, nil
}

// close shuts the port and returns once its interrupt servicer has exited:
// a requester that gave up on a reply (dropped interrupt, expired wait,
// aborted run) can leave the servicer inside its handler, which writes the
// owner's memory, and teardown must not outrun it.
func (p *Port) close() {
	p.closeOne.Do(func() {
		p.closed.Store(true)
		close(p.doneCh())
		p.intrMu.Lock()
		svc := p.intrSvc
		p.intrMu.Unlock()
		if svc != nil {
			svc.stop()
		}
	})
}
