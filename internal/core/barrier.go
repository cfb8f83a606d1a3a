package core

import (
	"errors"
	"fmt"
	"maps"

	"tshmem/internal/mesh"
	"tshmem/internal/mpipe"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// ActiveSet is the OpenSHMEM active-set triplet: the PEs
// Start, Start+2^LogStride, ..., Start+(Size-1)*2^LogStride.
type ActiveSet struct {
	Start     int // PE_start
	LogStride int // logPE_stride
	Size      int // PE_size
}

// AllPEs is the active set covering every PE of an n-PE program.
func AllPEs(n int) ActiveSet { return ActiveSet{Start: 0, LogStride: 0, Size: n} }

// stride reports 2^LogStride.
func (a ActiveSet) stride() int { return 1 << a.LogStride }

// PE returns the i-th member of the active set.
func (a ActiveSet) PE(i int) int { return a.Start + i*a.stride() }

// Index reports the position of pe within the active set.
func (a ActiveSet) Index(pe int) (int, bool) {
	d := pe - a.Start
	if d < 0 || d%a.stride() != 0 {
		return 0, false
	}
	i := d / a.stride()
	if i >= a.Size {
		return 0, false
	}
	return i, true
}

// Contains reports whether pe is a member.
func (a ActiveSet) Contains(pe int) bool {
	_, ok := a.Index(pe)
	return ok
}

func (a ActiveSet) validate(npes int) error {
	if a.Start < 0 || a.LogStride < 0 || a.LogStride > 30 || a.Size < 1 {
		return fmt.Errorf("%w: {start %d, logStride %d, size %d}", ErrBadActiveSet, a.Start, a.LogStride, a.Size)
	}
	if last := a.PE(a.Size - 1); last >= npes {
		return fmt.Errorf("%w: last member PE %d >= NumPEs %d", ErrBadActiveSet, last, npes)
	}
	return nil
}

func (a ActiveSet) String() string {
	return fmt.Sprintf("{start:%d stride:2^%d size:%d}", a.Start, a.LogStride, a.Size)
}

// Barrier signal words.
const (
	sigWait uint64 = iota + 1
	sigRelease
)

// asTag derives the active-set identification the start tile encodes into
// the barrier signals so overlapping barrier calls cannot return
// out-of-order or stall (S IV.C.1). The per-set generation counter makes
// consecutive barriers on the same set distinguishable.
//
// The hash is FNV-1a over the four little-endian fields (set triplet, then
// generation), computed inline: hash/fnv's interface value heap-allocates
// per call. FNV-1a is sequential, so the state after the set's 12 bytes is
// the same for every generation: the per-PE generation counters cache it
// (setGen) and each barrier folds in only its 4 generation bytes.
func asTag(a ActiveSet, gen uint32) uint32 { return fnvFold32(asTagPrefix(a), gen) }

// asTagPrefix is asTag's FNV-1a state after the active-set triplet.
func asTagPrefix(a ActiveSet) uint32 {
	const offset32 = 2166136261
	h := fnvFold32(offset32, uint32(a.Start))
	h = fnvFold32(h, uint32(a.LogStride))
	return fnvFold32(h, uint32(a.Size))
}

// fnvFold32 continues FNV-1a state h over v's four little-endian bytes.
func fnvFold32(h, v uint32) uint32 {
	const prime32 = 16777619
	for i := 0; i < 4; i++ {
		h = (h ^ v&0xff) * prime32
		v >>= 8
	}
	return h
}

// setGen is one active set's generation counter beside the tag hash state
// every generation of that set continues from.
type setGen struct {
	gen    uint32
	prefix uint32    // asTagPrefix of the set
	chain  *chainSet // the set's computed chain barrier, found on first use (barrier counters only)
}

// next returns the set's current generation with its tag and advances the
// generation.
func (g *setGen) next() (gen, tag uint32) {
	gen = g.gen
	g.gen++
	return gen, fnvFold32(g.prefix, gen)
}

// BarrierAll suspends the PE until all PEs have reached the barrier
// (shmem_barrier_all), with the algorithm Config.BarrierAlgo selects: by
// default the UDN wait+release chain over the full active set.
func (pe *PE) BarrierAll() error {
	if err := pe.check(); err != nil {
		return err
	}
	pe.stats.Barriers++
	return pe.barrierAlgo(AllPEs(pe.n))
}

// Barrier performs a barrier over an active set (shmem_barrier). The pSync
// work array required by the OpenSHMEM signature is carried by the PSync
// argument of the collective wrappers; the UDN design needs no symmetric
// scratch, matching the paper.
func (pe *PE) Barrier(as ActiveSet) error {
	if err := pe.check(); err != nil {
		return err
	}
	if err := as.validate(pe.n); err != nil {
		return err
	}
	pe.stats.Barriers++
	return pe.barrierAlgo(as)
}

// barrierUDN is the paper's barrier design (S IV.C.1): the start tile of
// the active set generates an active-set identification, encodes it with a
// wait signal, and sends it linearly around the set; once it returns, all
// members have arrived. A release signal then travels the same chain,
// letting each tile resume as it forwards. The start tile therefore leaves
// first (best case) and the last tile leaves last (worst case), which is
// how Figure 8 reports best- and worst-case latencies.
func (pe *PE) barrierUDN(as ActiveSet) error {
	idx, ok := as.Index(pe.id)
	if !ok {
		return fmt.Errorf("%w: PE %d vs %v", ErrNotInSet, pe.id, as)
	}
	// Instrumented here, not in the API wrappers, so the barriers
	// collectives run internally are traced as well. The completion hooks
	// are called, not deferred: the chain's dozen returns put two defers
	// past what the compiler open-codes, and a run-time defer record per
	// barrier was 6 % of a synchronisation-bound run.
	start := pe.clock.Now()
	err := pe.barrierChain(as, idx)
	pe.rec.BarrierAlgoDone(stats.BarrierAlgoLinear, start, &pe.clock)
	pe.rec.OpDone(stats.OpBarrier, start, &pe.clock, 0, int(stats.NoPeer))
	return err
}

// barrierChain is barrierUDN's wait and release passes for member idx of
// the set.
func (pe *PE) barrierChain(as ActiveSet, idx int) error {
	g := pe.setGenOf(&pe.barAll, &pe.barGen, as)
	gen, tag := g.next()
	// Sanitizer rendezvous: entering a barrier completes outstanding puts;
	// the exit joins every participant's entry clock. The wait pass's full
	// loop guarantees all members enter before anyone exits.
	tok := pe.san.BarrierEnter(as.Start, as.LogStride, as.Size, gen)
	if as.Size == 1 {
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		pe.san.BarrierExit(tok)
		return nil
	}
	if pe.prog.nchips > 1 && !setOnOneChip(pe.prog, as) {
		if err := pe.barrierHier(as, tag); err != nil {
			return err
		}
		pe.san.BarrierExit(tok)
		return nil
	}
	if literal := pe.prog.literal.chain; literal != nil {
		return literal(pe, as, idx, tag, tok)
	}
	return pe.chainComputed(g, as, idx, gen, tok)
}

// The computed chain. The single-chip chain barrier moves no packets, under
// a fault plan or not: the signal is a pair of clocks in the barrier's
// instance, when it left its last sender and when it reaches the next
// member, and each member parks once. What the paper's chain of packets
// leaves in the members' clocks is a max-plus recurrence over their arrival
// clocks and per-hop costs, exact in integer vtime. So is the host
// schedule, because the ready heap is given the entries the packets give it:
//
//   - A member the wait signal finds parked is readied at its arrival clock,
//     as a packet's enqueue readies its receiver. Its turn only forwards the
//     signal, so the driver takes it (evsched.drive, chainTurn) without
//     resuming the body. A member that arrives where the signal is already
//     waiting forwards it on the spot. Either way a ready PE outside the set
//     that precedes a member still to forward runs before the barrier
//     completes.
//   - The signal coming back readies member 0 at the clock it launched it
//     with; each member, as it leaves, readies the next at the clock that one
//     forwarded the wait signal with. These turns are the bodies'.
//
// A hooked run (Program.hooked: a recorder, a profiler, link counters or a
// fault plan) prices each signal through the port that would send it
// (udn.Port.Inject): the hooks see what the packet fed them, in the same
// order per PE, and the plan stretches, holds or drops the signal as it
// would the packet. An observed run also counts each PE's barrier queue as
// the packets fill and drain it (chainQueue). An unhooked run takes the bare
// arithmetic: calling the nil-safe hooks anyway cost sync-storm 6 %.
//
// Under a plan each wait is bounded from the clock its member parks at. A
// signal past the deadline times the member out against its sender; one that
// never comes (dropped, or stalled behind a drop) times it out when the
// calendar expires the waits. The chain of packets is the oracle the
// computed chain is tested against (chain_literal_test.go).

// chainSet is what a run keeps per active set whose chain it computes: the
// chain's constants and the instances in flight.
type chainSet struct {
	as       ActiveSet
	arb, fwd vtime.Duration
	hops     []chainHop // hops[i]: member i to member (i+1) mod n

	// live holds the instances in flight by generation parity, which without
	// a fault plan suffices: nobody leaves g+1 before every member has left
	// g. Members that time out and carry on can reach g+2 while g is not done
	// (chainInst.left); Program.chainHeld keeps such a newer instance.
	live [2]chainInst
}

// chainKey names one generation of one set's computed chain.
type chainKey struct {
	set *chainSet
	gen uint32
}

// chainHop is one link of an active set's chain: what the signal from a
// member to the next costs its sender and then the wire.
type chainHop struct{ send, wire vtime.Duration }

// chainInst is one barrier in flight on the computed chain.
type chainInst struct {
	set *chainSet
	gen uint32
	// seq numbers the signal in flight among those delivered to its receiver
	// (chainQueue; observed runs only).
	seq uint16
	// left counts the members that arrived and left. Each member passes
	// through a generation once, so at the set's size the instance is done.
	left int32
	// pos is the member the wait signal is waiting at or on its way to, the
	// set's size once it is on its way back to member 0; a signal a fault
	// dropped stays with the member that sent it, which does not forward it
	// twice. sent and arrive are the clocks at which the signal, wait or
	// release, left the member that sent it last and reaches the next one.
	pos          int32
	sent, arrive vtime.Time
}

// chainQueue is a PE's barrier queue, counted as the chain of packets fills
// and drains it. A packet counts as received when the receive loop takes it
// off the queue, not when it is consumed: a loop waiting for one signal
// takes, and sets aside, any that arrives first, and a member that times out
// has taken its late signal. The queue is FIFO, so what was taken is a prefix
// of what was delivered; packets of barriers that send theirs are left out.
// The 16-bit counts wrap; only their differences, which stay small, are read.
type chainQueue struct{ delivered, taken uint16 }

// chainSetOf returns the run's chain state for as, resolving the set's hops
// on first use.
func (p *Program) chainSetOf(as ActiveSet) (*chainSet, error) {
	if set := p.chainSets[as]; set != nil {
		return set, nil
	}
	geo := p.geos[p.chipOf(as.PE(0))]
	set := &chainSet{
		as:   as,
		arb:  vtime.FromNs(p.chip.BarrierArbiterNs),
		fwd:  vtime.FromNs(p.chip.UDNSWForwardNs),
		hops: make([]chainHop, as.Size),
	}
	for i := range set.hops {
		path, err := geo.Path(p.localIdx(as.PE(i)), p.localIdx(as.PE((i+1)%as.Size)), 1)
		if err != nil {
			return nil, err
		}
		set.hops[i] = chainHop{send: path.Send, wire: path.Wire}
	}
	if p.chainSets == nil {
		p.chainSets = make(map[ActiveSet]*chainSet)
	}
	p.chainSets[as] = set
	return set, nil
}

// join returns generation gen's instance of set. The generation's first
// arrival claims the parity slot or, while the slot's instance is not done,
// a held one, dropping the held instances that are. An instance whose
// members timed out keeps where its signal got to for those still to come.
func (p *Program) join(set *chainSet, gen uint32) *chainInst {
	inst := &set.live[gen&1]
	if inst.set != nil && inst.gen == gen {
		return inst
	}
	key := chainKey{set, gen}
	if h := p.chainHeld[key]; h != nil {
		return h
	}
	if inst.set != nil && !inst.done() {
		maps.DeleteFunc(p.chainHeld, func(_ chainKey, h *chainInst) bool { return h.done() })
		if p.chainHeld == nil {
			p.chainHeld = make(map[chainKey]*chainInst)
		}
		inst = new(chainInst)
		p.chainHeld[key] = inst
	}
	*inst = chainInst{set: set, gen: gen}
	return inst
}

// done reports whether every member has been through inst.
func (inst *chainInst) done() bool { return int(inst.left) == inst.set.as.Size }

// missing lists the members inst is still waiting for.
func (inst *chainInst) missing(p *Program) []int {
	var out []int
	for i := 0; i < inst.set.as.Size; i++ {
		if pe := inst.set.as.PE(i); p.pes[pe].bar != inst {
			out = append(out, pe)
		}
	}
	return out
}

// signal readies member i with status st if it is parked in inst: it may
// not have arrived yet, and an abort or an expiry may have readied it
// already (a PE is queued ready once).
func (inst *chainInst) signal(p *Program, i int, st uint8) {
	if id := inst.set.as.PE(i); p.pes[id].bar == inst && p.sched.pes[id].state == evBlocked {
		p.sched.unpark(id, st)
	}
}

// late reports whether the signal inst holds reaches pe past the deadline
// of the wait pe is in, which starts at pe's clock (faults only).
func (inst *chainInst) late(pe *PE) bool {
	deadline := pe.waitDeadline()
	return deadline > 0 && inst.arrive > deadline
}

// forward is member i's step of the wait pass, taken with its clock at its
// arrival: member 0 launches the signal, any other merges with it and sends
// it on. The member's clock is left where the chain parks it for what comes
// next; the next member gets the signal — member 0 to start the release,
// any other for its turn to forward — unless a fault dropped it. It fails
// only when the signal reached member i late (chainRecv).
func (inst *chainInst) forward(p *Program, i int) error {
	set := inst.set
	pe := &p.pes[set.as.PE(i)]
	switch {
	case i == 0:
		pe.clock.Advance(set.arb)
	case p.hooked:
		if err := pe.chainRecv(inst, i-1); err != nil {
			return err
		}
		pe.advanceAs(profile.CatUDNSend, set.fwd)
	default:
		pe.clock.AdvanceTo(inst.arrive)
		pe.clock.Advance(set.fwd)
	}
	delivered := true
	if p.hooked {
		delivered = pe.chainSend(inst, i)
	} else {
		inst.pass(&pe.clock, i)
	}
	if delivered {
		if inst.pos = int32(i + 1); int(inst.pos) == set.as.Size {
			inst.signal(p, 0, wakeRun)
		} else {
			inst.signal(p, int(inst.pos), wakeForward)
		}
	}
	pe.chainAwait() // member 0 for the signal's return, any other for the release
	return nil
}

// chainTurn is the turn of a member readied with wakeForward, taken by the
// driver between resumes: the member forwards the wait signal and parks
// again where it was, without its body running. It reports false when the
// turn is the body's after all: the program has aborted since, and the body
// unwinds, or the signal came late, and the body times out.
func (p *Program) chainTurn(id int) bool {
	if p.aborted {
		p.sched.pes[id].wake = wakeAbort
		return false
	}
	pe := &p.pes[id]
	inst := pe.bar
	if inst.late(pe) {
		return false
	}
	idx, _ := inst.set.as.Index(id)
	p.sched.repark(id)
	_ = inst.forward(p, idx) // on time, so it cannot fail
	return true
}

// chainComputed is barrierChain's single-chip branch, for member idx of as
// at generation gen.
func (pe *PE) chainComputed(g *setGen, as ActiveSet, idx int, gen uint32, tok *sanitize.Barrier) error {
	p := pe.prog
	if p.aborted {
		return chainAborted(pe, as, gen)
	}
	if g.chain == nil {
		set, err := p.chainSetOf(as)
		if err != nil {
			return err
		}
		g.chain = set
	}
	set := g.chain
	inst := p.join(set, gen)
	pe.bar = inst
	var err error
	if idx == int(inst.pos) {
		err = inst.forward(p, idx) // the wait signal is here, or starts here
	} else {
		pe.chainAwait()
	}
	st := wakeRun
	for err == nil {
		// A forwarding turn reaches the body only with a late signal
		// (chainTurn), on which forward times the member out.
		if st = p.sched.yield(pe.id, wkChain, 0, 0); st != wakeForward {
			break
		}
		err = inst.forward(p, idx)
	}
	pe.bar = nil
	inst.left++
	switch {
	case err != nil:
		return err
	case st == wakeTimeout:
		// Nothing can run: the signal this member waits for was dropped, or
		// the chain stalled behind one that was.
		return pe.timeoutAt("barrier", -1, pe.clock.Now(), pe.waitDeadline())
	case st != wakeRun:
		return chainAborted(pe, as, gen)
	}
	// Released: member 0 by the wait signal coming back, any other by the
	// release signal from the member before it.
	if p.hooked {
		if err := pe.chainRecv(inst, (idx+as.Size-1)%as.Size); err != nil {
			return err
		}
	} else {
		pe.clock.AdvanceTo(inst.arrive)
	}
	pe.san.BarrierExit(tok)
	if idx < as.Size-1 {
		delivered := true
		if p.hooked {
			pe.advanceAs(profile.CatUDNSend, set.fwd)
			delivered = pe.chainSend(inst, idx)
		} else {
			pe.clock.Advance(set.fwd)
			inst.pass(&pe.clock, idx)
		}
		if delivered {
			inst.signal(p, idx+1, wakeRun)
		}
	}
	return nil
}

// chainRecv is a hooked member's merge with the signal member from sent: the
// hooks a consumed packet feeds. A signal past the member's deadline was
// taken off the queue all the same, and times the member out.
func (pe *PE) chainRecv(inst *chainInst, from int) error {
	peer := inst.set.as.PE(from)
	pe.chainTake(inst.seq + 1)
	start := pe.clock.Now()
	if inst.late(pe) {
		return pe.timeoutAt("barrier", peer, start, pe.waitDeadline())
	}
	pe.rec.BarrierWait(pe.clock.AdvanceTo(inst.arrive))
	pe.profMerge(profile.CatBarrierWait, start, peer, inst.sent, inst.arrive)
	return nil
}

// pass is member i's send of the signal to the next member in an unhooked
// run: the bare arithmetic, inlined into its two callers.
func (inst *chainInst) pass(clock *vtime.Clock, i int) {
	hop := &inst.set.hops[i]
	clock.Advance(hop.send)
	inst.sent = clock.Now()
	inst.arrive = inst.sent.Add(hop.wire)
}

// chainSend is pass in a hooked run: the port prices the signal as a packet
// and may drop it (false); a delivered one joins the receiver's queue.
func (pe *PE) chainSend(inst *chainInst, i int) bool {
	p := pe.prog
	hop := &inst.set.hops[i]
	next := inst.set.as.PE((i + 1) % inst.set.as.Size)
	c, dst := p.chipOf(pe.id), p.localIdx(next)
	// chainSetOf resolved this route already, so it cannot fail here.
	hops, _ := p.geos[c].HopsBetween(p.localIdx(pe.id), dst)
	pe.rec.BarrierRound()
	arrive, ok := pe.port.Inject(&pe.clock, dst, qBarrier, 1, &mesh.PathInfo{Hops: hops, Send: hop.send, Wire: hop.wire})
	if !ok {
		return false
	}
	inst.sent, inst.arrive = pe.clock.Now(), arrive
	if p.chainQ != nil {
		q := &p.chainQ[next]
		inst.seq = q.delivered
		q.delivered++
		p.links[c].RecordQueueDepth(dst, int(q.delivered-q.taken))
		// A receiver parked in this barrier takes the signal when it consumes
		// it; one parked in another, for a signal not yet delivered (a
		// delivered one readied it), takes it now.
		if to, n := &p.pes[next], &p.sched.pes[next]; to.bar != inst && n.state == evBlocked && n.kind == wkChain {
			to.chainTake(q.delivered)
		}
	}
	return true
}

// chainAwait is pe starting to wait for a signal not yet delivered: its
// receive loop takes everything queued and, until the signal comes, what
// arrives (chainSend). A signal already delivered is taken, with what is
// queued ahead of it, when consumed (chainRecv). Observed runs only.
func (pe *PE) chainAwait() {
	if q := pe.prog.chainQ; q != nil {
		pe.chainTake(q[pe.id].delivered)
	}
}

// chainTake takes pe's queued signals up to delivery n off its queue.
func (pe *PE) chainTake(n uint16) {
	if pe.prog.chainQ == nil {
		return
	}
	for q := &pe.prog.chainQ[pe.id]; int16(n-q.taken) > 0; q.taken++ {
		pe.rec.UDNRecv(1)
	}
}

func chainAborted(pe *PE, as ActiveSet, gen uint32) error {
	return fmt.Errorf("tshmem: program aborted while PE %d waited in barrier %v generation %d", pe.id, as, gen)
}

// setOnOneChip reports whether every member of the active set shares one
// chip. Ranks are block-distributed over chips, so the first and last
// members suffice.
func setOnOneChip(p *Program, as ActiveSet) bool {
	return p.chipOf(as.PE(0)) == p.chipOf(as.PE(as.Size-1))
}

// barrierHier is the multi-chip barrier of the mPIPE extension: a UDN
// wait+release chain within each chip, with the per-chip leaders
// synchronized over the mPIPE fabric in between.
func (pe *PE) barrierHier(as ActiveSet, tag uint32) error {
	// Partition the set by chip, preserving set order.
	myChip := pe.prog.chipOf(pe.id)
	var members []int // my chip's members
	var leaders []int // first member per chip, in order of appearance
	lastChip := -1
	for i := 0; i < as.Size; i++ {
		g := as.PE(i)
		c := pe.prog.chipOf(g)
		if c != lastChip {
			leaders = append(leaders, g)
			lastChip = c
		}
		if c == myChip {
			members = append(members, g)
		}
	}
	pos := 0
	for i, m := range members {
		if m == pe.id {
			pos = i
		}
	}
	n := len(members)
	fwd := vtime.FromNs(pe.prog.chip.UDNSWForwardNs)

	if pos == 0 {
		// Chip leader: gather my chip's arrivals with the UDN ring.
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		if n > 1 {
			if err := pe.sendBarrier(members[1], tag, sigWait); err != nil {
				return err
			}
			if err := pe.recvBarrier(tag, sigWait); err != nil {
				return err
			}
		}
		// Leaders synchronize over mPIPE: leader 0 collects and releases.
		if leaders[0] == pe.id {
			for i := 1; i < len(leaders); i++ {
				if _, err := pe.recvFab(tag); err != nil {
					return err
				}
			}
			for i := 1; i < len(leaders); i++ {
				pe.rec.BarrierRound()
				if err := pe.sendFab(leaders[i], tag, []uint64{sigRelease}); err != nil {
					return err
				}
			}
		} else {
			pe.rec.BarrierRound()
			if err := pe.sendFab(leaders[0], tag, []uint64{sigWait}); err != nil {
				return err
			}
			if _, err := pe.recvFab(tag); err != nil {
				return err
			}
		}
		// Release my chip's chain.
		if n > 1 {
			pe.advanceAs(profile.CatUDNSend, fwd)
			return pe.sendBarrier(members[1], tag, sigRelease)
		}
		return nil
	}

	// Chip member: forward the wait ring, block for release, forward it.
	if err := pe.recvBarrier(tag, sigWait); err != nil {
		return err
	}
	pe.advanceAs(profile.CatUDNSend, fwd)
	if err := pe.sendBarrier(members[(pos+1)%n], tag, sigWait); err != nil {
		return err
	}
	if err := pe.recvBarrier(tag, sigRelease); err != nil {
		return err
	}
	if pos < n-1 {
		pe.advanceAs(profile.CatUDNSend, fwd)
		return pe.sendBarrier(members[pos+1], tag, sigRelease)
	}
	return nil
}

// recvFab receives the next mPIPE control message carrying tag, stashing
// messages of other in-flight operations. Under fault injection the wait
// is bounded (op "mpipe").
func (pe *PE) recvFab(tag uint32) (mpipe.Msg, error) {
	start := pe.clock.Now()
	deadline := pe.waitDeadline()
	for i, m := range pe.fabPending {
		if m.Tag == tag {
			pe.fabPending = append(pe.fabPending[:i], pe.fabPending[i+1:]...)
			return pe.consumeFab(m, start, deadline)
		}
	}
	for {
		m, err := pe.prog.fabric.RecvRaw(pe.id)
		if err != nil {
			if errors.Is(err, mpipe.ErrTimeout) {
				return mpipe.Msg{}, pe.timeoutAt("mpipe", -1, start, deadline)
			}
			return mpipe.Msg{}, err
		}
		if m.Tag == tag {
			return pe.consumeFab(m, start, deadline)
		}
		pe.fabPending = append(pe.fabPending, m)
	}
}

// consumeFab merges the clock with a fabric message's arrival, enforcing
// the virtual deadline when fault injection bounds the wait.
func (pe *PE) consumeFab(m mpipe.Msg, start vtime.Time, deadline vtime.Time) (mpipe.Msg, error) {
	if deadline > 0 && m.Arrive > deadline {
		return mpipe.Msg{}, pe.timeoutAt("mpipe", m.SrcPE, start, deadline)
	}
	waitStart := pe.clock.Now()
	pe.rec.BarrierWait(pe.clock.AdvanceTo(m.Arrive))
	pe.profMerge(profile.CatBarrierWait, waitStart, m.SrcPE, m.Sent, m.Arrive)
	return m, nil
}

// recvBarrier receives the next barrier signal carrying tag, stashing
// signals for other (overlapping) barrier instances until their turn.
// Under fault injection the wait is bounded: a signal that never arrives
// (a fault dropped it, or the chain stalled behind one that was — the
// calendar expires the wait once nothing can run) or that arrives
// virtually past the deadline surfaces as a timeout instead of deadlocking
// the chain.
func (pe *PE) recvBarrier(tag uint32, want uint64) error {
	start := pe.clock.Now()
	deadline := pe.waitDeadline()
	for i := range pe.barPending {
		if pkt := &pe.barPending[i]; pkt.Tag == tag && pkt.Word(0) == want {
			err := pe.consumeBarrier(pkt, start, deadline)
			pe.barPending = append(pe.barPending[:i], pe.barPending[i+1:]...)
			return err
		}
	}
	var pkt udn.Packet
	for {
		if err := pe.port.RecvRaw(qBarrier, &pkt); err != nil {
			if errors.Is(err, udn.ErrTimeout) {
				return pe.timeoutAt("barrier", -1, start, deadline)
			}
			return err
		}
		if pkt.Tag == tag && pkt.Len() == 1 && pkt.Word(0) == want {
			return pe.consumeBarrier(&pkt, start, deadline)
		}
		pe.barPending = append(pe.barPending, pkt)
	}
}

// consumeBarrier merges the clock with a barrier signal's arrival,
// enforcing the virtual deadline when fault injection bounds the wait.
func (pe *PE) consumeBarrier(pkt *udn.Packet, start vtime.Time, deadline vtime.Time) error {
	if deadline > 0 && pkt.Arrive > deadline {
		return pe.timeoutAt("barrier", pe.globalSrc(pkt.Src), start, deadline)
	}
	waitStart := pe.clock.Now()
	pe.rec.BarrierWait(pe.clock.AdvanceTo(pkt.Arrive))
	pe.profMerge(profile.CatBarrierWait, waitStart, pe.globalSrc(pkt.Src), pkt.Sent, pkt.Arrive)
	return nil
}

// BarrierRootRelease is the alternative barrier design the paper evaluated
// and rejected (S IV.C.1): the wait pass is the same linear chain, but the
// start tile then *broadcasts* the release, sending one standalone UDN
// message to every member instead of letting the chain forward it. Each
// standalone send pays the full software send-call cost, which serializes
// at the root — "latencies were two times slower", so TSHMEM kept the
// chain. Exposed for the fig8c ablation.
func (pe *PE) BarrierRootRelease(as ActiveSet) error {
	if err := pe.check(); err != nil {
		return err
	}
	if err := as.validate(pe.n); err != nil {
		return err
	}
	idx, ok := as.Index(pe.id)
	if !ok {
		return fmt.Errorf("%w: PE %d vs %v", ErrNotInSet, pe.id, as)
	}
	if pe.prog.nchips > 1 && !setOnOneChip(pe.prog, as) {
		return fmt.Errorf("%w: root-release barrier is single-chip only", ErrNotSupported)
	}
	pe.stats.Barriers++
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpBarrier, start, &pe.clock, 0, int(stats.NoPeer))
	n := as.Size
	gen, tag := pe.nextBarGen(as)
	tok := pe.san.BarrierEnter(as.Start, as.LogStride, as.Size, gen)
	if n == 1 {
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		pe.san.BarrierExit(tok)
		return nil
	}
	fwd := vtime.FromNs(pe.prog.chip.UDNSWForwardNs)
	sendCall := vtime.FromNs(pe.prog.chip.UDNSendCallNs)

	if idx == 0 {
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		if err := pe.sendBarrier(as.PE(1), tag, sigWait); err != nil {
			return err
		}
		if err := pe.recvBarrier(tag, sigWait); err != nil {
			return err
		}
		pe.san.BarrierExit(tok)
		// Broadcast the release: one standalone send per member,
		// serialized at the root.
		for k := 1; k < n; k++ {
			pe.advanceAs(profile.CatUDNSend, sendCall)
			if err := pe.sendBarrier(as.PE(k), tag, sigRelease); err != nil {
				return err
			}
		}
		return nil
	}
	// Member: forward the wait chain, then block for the root's release.
	if err := pe.recvBarrier(tag, sigWait); err != nil {
		return err
	}
	pe.advanceAs(profile.CatUDNSend, fwd)
	if err := pe.sendBarrier(as.PE((idx+1)%n), tag, sigWait); err != nil {
		return err
	}
	if err := pe.recvBarrier(tag, sigRelease); err != nil {
		return err
	}
	pe.san.BarrierExit(tok)
	return nil
}
