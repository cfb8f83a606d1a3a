package core

import (
	"errors"
	"fmt"

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
// (shmem_barrier_all). With Config.Barrier == TMCSpinBarrier it uses the
// TMC spin barrier — the TILE-Gx optimization the paper proposes in its
// open-issues discussion; otherwise it runs the UDN wait+release chain over
// the full active set.
func (pe *PE) BarrierAll() error {
	if err := pe.check(); err != nil {
		return err
	}
	pe.stats.Barriers++
	if a := pe.prog.cfg.BarrierAlgo; a != BarrierAlgoDefault {
		return pe.barrierAlgo(AllPEs(pe.n))
	}
	if pe.prog.cfg.Barrier == TMCSpinBarrier {
		return pe.barrierSpin(AllPEs(pe.n))
	}
	return pe.barrierUDN(AllPEs(pe.n))
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
	if a := pe.prog.cfg.BarrierAlgo; a != BarrierAlgoDefault && a != BarrierAlgoLinear {
		return pe.barrierAlgo(as)
	}
	return pe.barrierUDN(as)
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
	n := as.Size
	g := pe.setGenOf(&pe.barAll, &pe.barGen, as)
	gen, tag := g.next()
	// Sanitizer rendezvous: entering a barrier completes outstanding puts;
	// the exit joins every participant's entry clock. The wait pass's full
	// loop guarantees all members enter before anyone exits.
	tok := pe.san.BarrierEnter(as.Start, as.LogStride, as.Size, gen)
	if n == 1 {
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
	if pe.prog.packetless {
		return pe.chainComputed(g, as, idx, gen, tok)
	}
	next := as.PE((idx + 1) % n)
	fwd := vtime.FromNs(pe.prog.chip.UDNSWForwardNs)

	if idx == 0 {
		// Start tile: generate the active-set ID, launch the wait pass,
		// collect it from the last tile, then launch the release pass.
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		if err := pe.sendBarrier(next, tag, sigWait); err != nil {
			return err
		}
		if err := pe.recvBarrier(tag, sigWait); err != nil {
			return err
		}
		pe.san.BarrierExit(tok)
		pe.advanceAs(profile.CatUDNSend, fwd)
		return pe.sendBarrier(next, tag, sigRelease)
	}

	// Member tile: forward the wait signal, then block for the release.
	if err := pe.recvBarrier(tag, sigWait); err != nil {
		return err
	}
	pe.advanceAs(profile.CatUDNSend, fwd)
	if err := pe.sendBarrier(next, tag, sigWait); err != nil {
		return err
	}
	if err := pe.recvBarrier(tag, sigRelease); err != nil {
		return err
	}
	pe.san.BarrierExit(tok)
	if idx < n-1 {
		pe.advanceAs(profile.CatUDNSend, fwd)
		return pe.sendBarrier(next, tag, sigRelease)
	}
	return nil
}

// The computed chain. A run without a fault plan (Program.packetless) moves
// no packets for the single-chip chain above: the signal is a clock kept in
// the barrier's instance, and each member parks once. What the chain leaves
// in its members' clocks is a max-plus recurrence over their arrival clocks
// and per-hop constants, and vtime is integers, so the result is exact. So
// is the host schedule, because the ready heap is given the entries the
// literal chain gives it:
//
//   - A member the wait signal finds parked is readied at its arrival clock,
//     as the packet's enqueue readies the literal receiver. Its turn only
//     forwards the signal, so the driver takes it (evsched.drive, chainTurn)
//     without resuming the body. A member that arrives where the signal is
//     already waiting forwards it on the spot. Either way a ready PE outside
//     the set that precedes a member still to forward runs before the
//     barrier completes, here as there.
//   - The signal coming back readies member 0 at the clock it launched it
//     with; each member, as it leaves, readies the next at the clock that one
//     forwarded the wait signal with. These turns are the bodies'.
//
// A hooked run (Program.hooked) has recorders, a profiler or link counters
// that counted each of the literal chain's packets. Its steps feed them what
// the packets fed, in the same order per PE, as replayChip does for start_pes:
// chainRecv is a consumed signal, chainSend a sent one, and the receive-queue
// depth the link counters sample is a count of signals sent to a PE and not
// yet consumed (Program.chainQueued). An unhooked run takes the bare
// arithmetic: calling the nil-safe hooks anyway cost sync-storm 6 %.
//
// The literal chain is the form whose packets fault plans drop; under an
// armed empty plan it is the oracle the computed form is tested against
// (TestChainBarrierMatchesLiteral), with every observer on and off.

// chainHop is one link of an active set's chain: what the signal from a
// member to the next costs its sender and then the wire.
type chainHop struct{ send, wire vtime.Duration }

// chainSet is what a run keeps per active set whose chain it computes: the
// chain's constants and the instances in flight.
type chainSet struct {
	as       ActiveSet
	arb, fwd vtime.Duration
	hops     []chainHop // hops[i]: member i to member (i+1) mod n

	// live holds the instances in flight, by generation parity. Two slots
	// suffice: a member reaches generation g+1 only by leaving g, so g+1
	// completes only once g is empty, and nobody reaches g+2 before that.
	live [2]chainInst
}

// chainInst is one barrier in flight on the computed chain.
type chainInst struct {
	set *chainSet
	gen uint32
	// inside counts the members that arrived and have not left; a slot with
	// nobody inside is free.
	inside int
	// pos is the member the wait signal is waiting at or on its way to, the
	// set's size once it is on its way back to member 0. sig is the clock at
	// which the signal, wait or release, left the member that sent it last.
	pos int
	sig vtime.Time
}

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

// join returns generation gen's instance of the set, claiming its slot for
// the generation's first arrival.
func (set *chainSet) join(gen uint32) (*chainInst, error) {
	inst := &set.live[gen&1]
	if inst.inside == 0 {
		*inst = chainInst{set: set, gen: gen}
	} else if inst.gen != gen {
		return nil, fmt.Errorf("tshmem: internal: barrier %v generation %d entered with generation %d in flight",
			set.as, gen, inst.gen)
	}
	return inst, nil
}

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
// not have arrived yet, and an abort may have readied it already (a PE is
// queued ready once).
func (inst *chainInst) signal(p *Program, i int, st uint8) {
	if id := inst.set.as.PE(i); p.pes[id].bar == inst && p.sched.pes[id].state == evBlocked {
		p.sched.unpark(id, st)
	}
}

// forward is member i's step of the wait pass, taken with its clock at its
// arrival: member 0 launches the signal, any other merges with it and sends
// it on. The member's clock is left where the literal chain parks it for
// what comes next; the next member gets the signal — member 0 to start the
// release, any other for its turn to forward.
func (inst *chainInst) forward(p *Program, i int) {
	set := inst.set
	pe := &p.pes[set.as.PE(i)]
	clock := &pe.clock
	switch {
	case i == 0:
		clock.Advance(set.arb)
	case p.hooked:
		pe.chainRecv(set, i-1, inst.sig)
		pe.advanceAs(profile.CatUDNSend, set.fwd)
	default:
		clock.AdvanceTo(inst.sig.Add(set.hops[i-1].wire))
		clock.Advance(set.fwd)
	}
	if p.hooked {
		pe.chainSend(set, i)
	} else {
		clock.Advance(set.hops[i].send)
	}
	inst.sig, inst.pos = clock.Now(), i+1
	if inst.pos == set.as.Size {
		inst.signal(p, 0, wakeRun)
	} else {
		inst.signal(p, inst.pos, wakeForward)
	}
}

// chainTurn is the turn of a member readied with wakeForward, taken by the
// driver between resumes: the member forwards the wait signal and parks
// again where it was, without its body running. It reports false if the
// program has aborted since, when the turn is the body's after all, to
// unwind.
func (p *Program) chainTurn(id int) bool {
	if p.aborted {
		p.sched.pes[id].wake = wakeAbort
		return false
	}
	inst := p.pes[id].bar
	idx, _ := inst.set.as.Index(id)
	p.sched.repark(id)
	inst.forward(p, idx)
	return true
}

// chainComputed is barrierChain's single-chip branch without packets, for
// member idx of as at generation gen. The steps are barrierChain's.
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
	inst, err := set.join(gen)
	if err != nil {
		return err
	}
	inst.inside++
	pe.bar = inst
	if idx == inst.pos {
		inst.forward(p, idx) // the wait signal is here, or starts here
	}
	st := p.sched.yield(pe.id, wkChain, 0, 0)
	pe.bar = nil
	inst.inside--
	if st != wakeRun {
		// The only wakes of this wait are the release and an abort.
		return chainAborted(pe, as, gen)
	}
	// Released: member 0 by the wait signal coming back, any other by the
	// release signal from the member before it.
	prev := (idx + as.Size - 1) % as.Size
	if p.hooked {
		pe.chainRecv(set, prev, inst.sig)
	} else {
		pe.clock.AdvanceTo(inst.sig.Add(set.hops[prev].wire))
	}
	pe.san.BarrierExit(tok)
	if idx < as.Size-1 {
		if p.hooked {
			pe.advanceAs(profile.CatUDNSend, set.fwd)
			pe.chainSend(set, idx)
		} else {
			pe.clock.Advance(set.fwd + set.hops[idx].send)
		}
		inst.sig = pe.clock.Now()
		inst.signal(p, idx+1, wakeRun)
	}
	return nil
}

// chainRecv is a hooked member's merge with the signal member from sent at
// sig: the hooks recvBarrier and consumeBarrier feed for the packet.
func (pe *PE) chainRecv(set *chainSet, from int, sig vtime.Time) {
	arrive := sig.Add(set.hops[from].wire)
	pe.rec.UDNRecv(1)
	if q := pe.prog.chainQueued; q != nil {
		q[pe.id]--
	}
	waitStart := pe.clock.Now()
	pe.rec.BarrierWait(pe.clock.AdvanceTo(arrive))
	pe.profMerge(profile.CatBarrierWait, waitStart, set.as.PE(from), sig, arrive)
}

// chainSend is hooked member i's send of the signal to the next member: the
// hooks sendBarrier and Port.Send feed for the packet.
func (pe *PE) chainSend(set *chainSet, i int) {
	p := pe.prog
	hop := set.hops[i]
	pe.rec.BarrierRound()
	pe.advanceAs(profile.CatUDNSend, hop.send)
	if p.links == nil {
		return // profiled only: nothing below counts
	}
	next := set.as.PE((i + 1) % set.as.Size)
	c, src, dst := p.chipOf(pe.id), p.localIdx(pe.id), p.localIdx(next)
	// chainSetOf resolved this route already, so it cannot fail here.
	hops, _ := p.geos[c].HopsBetween(src, dst)
	pe.rec.UDNSend(1, hops, hop.send+hop.wire)
	p.links[c].RecordRoute(src, dst, 1)
	p.chainQueued[next]++
	p.links[c].RecordQueueDepth(dst, int(p.chainQueued[next]))
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
