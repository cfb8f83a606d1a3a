package udn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
	// injection: an attached Scheduler expired a parked Send or Recv, or an
	// interrupt's request was dropped. Only possible after SetFaults; the
	// caller (internal/core) converts it into a virtual-time diagnostic.
	ErrTimeout = errors.New("udn: bounded wait timed out")
)

// queueCap bounds in-flight packets per demux queue. The hardware queue
// holds up to 127 payload words, i.e. on the order of 127 minimum-sized
// packets, before the network backpressures the sender. Capacity is not
// what keeps the library's protocols deadlock-free: every receive loop
// drains its queue whenever it waits (stashing packets that arrived ahead of
// their turn), so a backpressured sender always unblocks. A queue's storage
// grows with its depth up to this bound, see demuxQueue.
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

// fill makes the zero Packet p one carrying words. Payloads up to
// inlineWords are copied into the struct body; larger ones are cloned onto
// the heap, so the caller's slice is never retained and may be reused
// immediately. It fills in place because a Packet returned by value is
// copied once more on its way into the caller's variable.
func (p *Packet) fill(src int, tag uint32, words []uint64, arrive vtime.Time) {
	p.Src, p.Tag, p.Arrive, p.nw = src, tag, arrive, int32(len(words))
	if len(words) <= inlineWords {
		copy(p.inline[:], words)
	} else {
		p.ext = append([]uint64(nil), words...)
	}
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

// Handler services a UDN interrupt on the destination tile. It runs in the
// tile's interrupt context — inline, on the requester's goroutine —
// performs the requested operation, and returns reply payload words plus
// the virtual service time the operation consumed on the remote tile.
type Handler func(req Packet) (reply []uint64, service vtime.Duration)

// TileHandler services a UDN interrupt on tile cpu as a Handler installed
// on that tile's port would: one function serves every tile of a network
// whose tiles all service interrupts alike (Network.SetTileHandler).
type TileHandler func(cpu int, req Packet) (reply []uint64, service vtime.Duration)

// Scheduler is where the network's blocking points block. Send, Recv and
// RecvRaw never block themselves: they poll, and when they would block
// they hand the caller to WaitSend/WaitRecv until a matching
// Enqueued/Dequeued notification makes progress possible, then poll again.
// A return from a wait is only a hint — the loops re-check, so
// conservative notifications are safe. A Network starts with a host
// scheduler that blocks the calling goroutine (hostSched);
// internal/core replaces it with its virtual-time calendar, which parks
// the calling PE instead.
type Scheduler interface {
	// WaitRecv parks the caller on tile cpu until a packet may be available
	// on its demux queue dq. nil means re-poll (including after Close: the
	// re-poll observes the closed port); a non-nil error — ErrTimeout —
	// means the scheduler expired this bounded wait under fault injection.
	WaitRecv(cpu, dq int) error
	// WaitSend parks the caller on tile src until space may be available in
	// destination queue (dst, dq) — hardware backpressure.
	WaitSend(src, dst, dq int) error
	// Enqueued notes that a packet landed in (dst, dq): wakes parked
	// receivers.
	Enqueued(dst, dq int)
	// Dequeued notes that a packet left (cpu, dq): wakes parked senders.
	Dequeued(cpu, dq int)
}

// hostSched is the Scheduler of a stand-alone Network, whose callers are
// free-running goroutines (this package's tests, a benchmark) rather than
// PEs of a calendar: a wait blocks the goroutine on a condition variable
// that every notification, and Close, broadcasts. It never expires a wait.
type hostSched struct {
	net  *Network
	mu   sync.Mutex
	cond sync.Cond
}

// wait blocks while blocked() holds. blocked is evaluated under h.mu and
// wake passes through h.mu after the state change it announces, so a
// change is either seen by the evaluation or broadcast to the sleeper.
func (h *hostSched) wait(blocked func() bool) {
	h.mu.Lock()
	for blocked() {
		h.cond.Wait()
	}
	h.mu.Unlock()
}

func (h *hostSched) wake() {
	h.mu.Lock()
	//lint:ignore SA2001 ordering only: see wait
	h.mu.Unlock()
	h.cond.Broadcast()
}

func (h *hostSched) WaitRecv(cpu, dq int) error {
	p := &h.net.ports[cpu]
	h.wait(func() bool { return p.queues[dq].depth() == 0 && !p.closed.Load() })
	return nil
}

func (h *hostSched) WaitSend(src, dst, dq int) error {
	p := &h.net.ports[dst]
	h.wait(func() bool { return p.queues[dq].depth() == queueCap && !p.closed.Load() })
	return nil
}

func (h *hostSched) Enqueued(dst, dq int) { h.wake() }
func (h *hostSched) Dequeued(cpu, dq int) { h.wake() }

// Network is the chip-wide UDN: one port per tile of the test-area
// geometry.
type Network struct {
	geo   mesh.Geometry
	ports []Port          // one slab; a *Port points into it
	links *mesh.LinkStats // nil disables per-link accounting
	flt   *fault.ChipView // nil disables fault injection
	sched Scheduler       // &host until SetScheduler
	host  hostSched
	intr  TileHandler // services interrupts on tiles without a Handler; nil until SetTileHandler

	// rings is what is left of the slab demux queues take their first ring
	// from (firstRing), made when the first queue of the network, or the
	// first after the slab ran out, receives a packet.
	ringMu sync.Mutex
	rings  []Packet
}

// SetScheduler replaces the default host scheduler at every blocking
// point of this network. Set before PEs start communicating.
func (n *Network) SetScheduler(s Scheduler) { n.sched = s }

// SetTileHandler installs h as the interrupt handler of every tile whose
// port has no Handler of its own, without touching a port. Only chips with
// UDN interrupt support (TILE-Gx) accept one. Set before PEs start
// communicating.
func (n *Network) SetTileHandler(h TileHandler) error {
	if !n.geo.Chip().UDNInterrupts {
		return ErrNoInterrupts
	}
	n.intr = h
	return nil
}

// SetLinkStats attaches per-directed-link utilization accounting: every
// packet's XY route is charged onto ls, and receive-queue occupancy
// high-water marks are tracked per destination tile. A nil ls (the
// default) disables accounting. Set before PEs start communicating.
func (n *Network) SetLinkStats(ls *mesh.LinkStats) { n.links = ls }

// SetFaults attaches a fault-injection view of this chip, which perturbs
// packets deterministically in virtual time. A packet a fault swallowed
// never arrives; bounding the wait for it is the attached Scheduler's job
// (the calendar expires it when nothing is left to run). A nil cv (the
// default) restores the perfect substrate. Set before PEs start
// communicating.
func (n *Network) SetFaults(cv *fault.ChipView) { n.flt = cv }

// New builds a UDN over the given test-area geometry.
func New(geo mesh.Geometry) *Network { return NewIn(geo, make([]Port, geo.Tiles())) }

// NewIn builds a UDN over the given test-area geometry whose ports are the
// elements of ports, one per tile: a launcher that recycles its launch
// state passes the slab the previous network of its shape used. Every
// element must be zero, as make leaves it or clear does once nothing uses
// the previous network any more.
func NewIn(geo mesh.Geometry, ports []Port) *Network {
	n := new(Network)
	n.Init(geo, ports)
	return n
}

// Init makes n, wherever its caller keeps it, the UDN NewIn builds over geo
// and ports: a launcher that keeps one Network per chip between launches
// re-initialises it here once nothing uses its last launch any more. The
// elements of ports must be zero, as for NewIn.
func (n *Network) Init(geo mesh.Geometry, ports []Port) {
	if len(ports) != geo.Tiles() {
		panic(fmt.Sprintf("udn: %d ports for %d tiles", len(ports), geo.Tiles()))
	}
	*n = Network{geo: geo, ports: ports}
	n.host.net, n.host.cond.L = n, &n.host.mu
	n.sched = &n.host
	for i := range n.ports {
		n.ports[i].net, n.ports[i].cpu = n, i
	}
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
	return &n.ports[cpu], nil
}

// Close shuts down every port. Pending receivers unblock with ErrClosed.
// Mirrors the teardown the paper's proposed shmem_finalize() performs:
// leaving the UDN engaged risks platform lockup.
func (n *Network) Close() {
	for i := range n.ports {
		n.ports[i].closed.Store(true)
	}
	n.host.wake()
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
	closed atomic.Bool

	// route is the path of the last (dst, words) this port sent. A protocol
	// chain sends the same signal to the same neighbour over and over, and
	// a network's geometry never changes, so the entry cannot go stale;
	// words == 0 marks it empty. Like rec it belongs to the port's one user.
	route struct {
		dst, words int
		path       mesh.PathInfo
	}

	// The tile's interrupt context: busy serializes overlapping interrupts
	// in virtual time — a tile services one interrupt at a time (S IV.B.2).
	handler Handler
	busy    vtime.Resource
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

// profSend attributes an injection advance from t0 to now: the modeled
// injection cost base goes to udn.send, any fault-injected excess to
// fault.stall.
func (p *Port) profSend(t0, now vtime.Time, base vtime.Duration) {
	if p.prof == nil {
		return
	}
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

// demuxQueue is one receive queue of a port: a ring of at most queueCap
// packets whose storage starts empty and doubles as the queue deepens.
// Most tiles never use most of their queues, and the ones they use rarely
// hold more than a few packets (an empty-body launch puts one or two in
// the barrier queue), so a tile pays for the depth it reaches — four eager
// queueCap-packet buffers per tile would dominate the host memory of a
// large mesh. The first ring, which is all most queues ever need, is a
// piece of a slab the network's queues share; a deeper one is the queue's
// own allocation.
type demuxQueue struct {
	mu   sync.Mutex
	buf  []Packet // ring storage; len is 0 or a power of two <= queueCap
	head int
	n    int
}

const queueMinBuf = 4

// firstRing carves a queue's first queueMinBuf-slot ring out of the
// network's slab. A launch's start barrier delivers the first packet to
// every tile's barrier queue, so a slab holds one ring per tile: one
// allocation where each tile used to make its own, inside the barrier. The
// ring's capacity ends where its neighbour begins.
func (n *Network) firstRing() []Packet {
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	if len(n.rings) == 0 {
		n.rings = make([]Packet, queueMinBuf*len(n.ports))
	}
	ring := n.rings[:queueMinBuf:queueMinBuf]
	n.rings = n.rings[queueMinBuf:]
	return ring
}

// push appends pkt and reports the resulting depth, or false when the
// queue is full. net is the network the queue's port belongs to.
func (q *demuxQueue) push(pkt *Packet, net *Network) (depth int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == queueCap {
		return 0, false
	}
	if q.n == len(q.buf) {
		var grown []Packet
		if len(q.buf) == 0 {
			grown = net.firstRing()
		} else {
			grown = make([]Packet, 2*len(q.buf))
		}
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = *pkt
	q.n++
	return q.n, true
}

// pop moves the oldest packet, if any, into *pkt.
func (q *demuxQueue) pop(pkt *Packet) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.n == 0 {
		return false
	}
	slot := &q.buf[q.head]
	*pkt = *slot
	slot.ext = nil // the ring must not pin a delivered heap payload
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return true
}

func (q *demuxQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
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
	if p.route.dst != dst || p.route.words != nw {
		path, err := p.net.geo.Path(p.cpu, dst, nw)
		if err != nil {
			return err
		}
		p.route.dst, p.route.words, p.route.path = dst, nw, path
	}
	arrive, ok := p.Inject(clock, dst, dq, nw, &p.route.path)
	if !ok {
		return nil
	}
	var pkt Packet
	pkt.fill(p.cpu, tag, words, arrive)
	pkt.Sent = clock.Now()
	q := &dp.queues[dq]
	for {
		if depth, ok := q.push(&pkt, p.net); ok {
			p.net.links.RecordQueueDepth(dst, depth)
			p.net.sched.Enqueued(dst, dq)
			return nil
		}
		if dp.closed.Load() {
			return ErrClosed
		}
		if err := p.net.sched.WaitSend(p.cpu, dst, dq); err != nil {
			return err
		}
	}
}

// Inject prices one nw-word packet to demux queue dq of local CPU dst along
// path: it advances the sender's clock by the injection share and returns
// the arrival time, or false when a dead tile or a stalled queue swallowed
// the packet. Every fault decision is here: Send is Inject plus queueing,
// and internal/core's computed chain barrier prices its signals with it
// under a fault plan.
func (p *Port) Inject(clock *vtime.Clock, dst, dq, nw int, path *mesh.PathInfo) (vtime.Time, bool) {
	send, wire := path.Send, path.Wire
	if p.net.flt != nil {
		s2, w2, id, drop := p.net.flt.AdjustSend(p.cpu, dst, clock.Now(), send, wire)
		if drop {
			t0 := clock.Now()
			clock.Advance(s2)
			p.profSend(t0, clock.Now(), path.Send)
			p.rec.FaultDrop(id, dst, clock.Now())
			return 0, false
		}
		if id >= 0 {
			p.rec.FaultDelay(id, dst, clock.Now(), (s2+w2)-(send+wire))
			send, wire = s2, w2
		}
	}
	t0 := clock.Now()
	clock.Advance(send)
	arrive := clock.Now().Add(wire)
	p.Injected(dst, nw, path, t0, clock.Now(), arrive)
	if p.net.flt != nil {
		a2, id, drop := p.net.flt.HoldArrive(dst, dq, arrive)
		if drop {
			p.rec.FaultDrop(id, dst, arrive)
			return 0, false
		}
		if a2 > arrive {
			p.rec.FaultDelay(id, dst, arrive, a2.Sub(arrive))
			arrive = a2
		}
	}
	return arrive, true
}

// Injected feeds the port's observers a delivered nw-word packet to local
// CPU dst along path, injected from t0 to sent and landing at arrive. Inject
// calls it, and so do internal/core's computed protocols without a fault plan.
func (p *Port) Injected(dst, nw int, path *mesh.PathInfo, t0, sent, arrive vtime.Time) {
	p.profSend(t0, sent, path.Send)
	p.rec.UDNSend(nw, path.Hops, arrive.Sub(t0))
	p.net.links.RecordRoute(p.cpu, dst, nw)
}

// take blocks until a packet is available on demux queue dq and moves it
// into *pkt: the receive loop under Recv and RecvRaw. On an error *pkt is
// untouched.
func (p *Port) take(dq int, pkt *Packet) error {
	if dq < 0 || dq >= len(p.queues) {
		return fmt.Errorf("%w: %d", ErrBadQueue, dq)
	}
	for {
		// Poll before the closed check: a closed port still drains what
		// already arrived.
		if p.queues[dq].pop(pkt) {
			p.net.sched.Dequeued(p.cpu, dq)
			return nil
		}
		if p.closed.Load() {
			return ErrClosed
		}
		if err := p.net.sched.WaitRecv(p.cpu, dq); err != nil {
			return err
		}
	}
}

// merge advances the receiver's clock to pkt's arrival and accounts the
// receive.
func (p *Port) merge(clock *vtime.Clock, pkt *Packet) {
	start := clock.Now()
	wait := clock.AdvanceTo(pkt.Arrive)
	p.rec.UDNRecvWait(pkt.Len(), wait)
	p.profRecv(start, pkt)
}

// Recv blocks until a packet is available on demux queue dq, merges the
// receiver's clock with the packet arrival time, and returns the packet.
func (p *Port) Recv(clock *vtime.Clock, dq int) (Packet, error) {
	var pkt Packet
	err := p.take(dq, &pkt)
	if err == nil {
		p.merge(clock, &pkt)
	}
	return pkt, err
}

// RecvRaw blocks until a packet is available on demux queue dq and moves
// it into the caller's *pkt WITHOUT merging any clock: the caller decides
// when the packet is logically processed and merges with pkt.Arrive itself.
// Protocol loops that stash out-of-order packets use this so that stashed
// arrivals do not perturb the virtual clock before they are consumed, and
// receive into one Packet they own for the whole loop: a library signal is
// a 112-byte struct nobody needs a second copy of.
func (p *Port) RecvRaw(dq int, pkt *Packet) error {
	err := p.take(dq, pkt)
	if err == nil {
		p.rec.UDNRecv(pkt.Len())
	}
	return err
}

// TryRecv is the non-blocking variant of Recv. ok reports whether a packet
// was available.
func (p *Port) TryRecv(clock *vtime.Clock, dq int) (Packet, bool, error) {
	if dq < 0 || dq >= len(p.queues) {
		return Packet{}, false, fmt.Errorf("%w: %d", ErrBadQueue, dq)
	}
	var pkt Packet
	if !p.queues[dq].pop(&pkt) {
		if p.closed.Load() {
			return Packet{}, false, ErrClosed
		}
		return Packet{}, false, nil
	}
	p.merge(clock, &pkt)
	p.net.sched.Dequeued(p.cpu, dq)
	return pkt, true, nil
}

// SetHandler installs the interrupt handler for this tile. Only chips with
// UDN interrupt support (TILE-Gx) accept a handler. Like Interrupt, it
// takes one caller at a time across the network: under core.Run the PE
// holding the run's baton.
func (p *Port) SetHandler(h Handler) error {
	if !p.net.geo.Chip().UDNInterrupts {
		return ErrNoInterrupts
	}
	if p.closed.Load() {
		return ErrClosed
	}
	p.handler = h
	return nil
}

// Interrupt raises a UDN interrupt on tile dst and returns once the
// destination tile has serviced the request and the reply has traveled
// back. The caller's clock ends at reply arrival. This is the primitive
// TSHMEM's static-variable redirection is built on.
//
// The destination's handler runs inline, on the caller's goroutine: the
// tile being forced to service an operation (S IV.B.2) needs no goroutine
// of its own, and a requester that gives up leaves nothing running behind
// it. Interrupts on one network take one caller at a time, so the handler
// and the destination's busy window are not locked.
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
	if dp.closed.Load() {
		return Packet{}, ErrClosed
	}
	handler := dp.handler
	if handler == nil && p.net.intr == nil {
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
	// Interrupts model only drop faults (a dead tile or a dropped interrupt
	// lane); slow-tile and slow-link plans leave the interrupt round-trip
	// untouched. The requester pays its injection cost and learns
	// immediately — deterministically in virtual time — that no reply will
	// ever come.
	id, drop := p.net.flt.DropInterrupt(p.cpu, dst, clock.Now())
	t0 := clock.Now()
	clock.Advance(path.Send)
	p.profSend(t0, clock.Now(), path.Send)
	if drop {
		p.rec.FaultDrop(id, dst, clock.Now())
		return Packet{}, ErrTimeout
	}
	p.net.links.RecordRoute(p.cpu, dst, nw)
	var pkt Packet
	pkt.fill(p.cpu, tag, words, clock.Now().Add(path.Wire))
	intrOvh := vtime.FromNs(p.net.geo.Chip().UDNInterruptNs)
	var reply []uint64
	var service vtime.Duration
	if handler != nil {
		reply, service = handler(pkt)
	} else {
		reply, service = p.net.intr(dst, pkt)
	}
	// The tile enters the interrupt no earlier than the request's arrival
	// and no earlier than the end of the previous interrupt.
	done := dp.busy.Acquire(pkt.Arrive, intrOvh+service)

	// Reply travels back over the UDN.
	var rep Packet
	rep.fill(dst, tag, reply, done)
	repWords := max(1, rep.Len())
	back, err := p.net.geo.OneWayLatency(dst, p.cpu, repWords)
	if err != nil {
		return Packet{}, err
	}
	rep.Arrive = rep.Arrive.Add(back)
	waitStart := clock.Now()
	clock.AdvanceTo(rep.Arrive)
	// The interrupted tile is not a profiled PE timeline, so the
	// round-trip wait carries no edge: the critical path stays on the
	// requester (documented limitation; see docs/OBSERVABILITY.md).
	p.prof.Advance(profile.CatUDNWait, waitStart, clock.Now())
	// The requester accounts the whole round-trip, the reply's route
	// included.
	p.rec.UDNInterrupt(nw, repWords, path.Hops)
	p.net.links.RecordRoute(dst, p.cpu, repWords)
	return rep, nil
}
