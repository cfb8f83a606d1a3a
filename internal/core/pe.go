package core

import (
	"errors"
	"fmt"
	"slices"

	"tshmem/internal/alloc"
	"tshmem/internal/arch"
	"tshmem/internal/mpipe"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/tmc"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// UDN demux queue assignment within TSHMEM (four queues per tile).
const (
	qBarrier = 0 // barrier wait/release signal chain
	qInit    = 1 // start_pes partition-address exchange
	qColl    = 2 // collective control signals
	qApp     = 3 // reserved for applications (unused by the library)
)

// Stats counts the traffic a PE generated.
type Stats struct {
	Puts, Gets         int64
	PutBytes, GetBytes int64
	Barriers           int64
	Collectives        int64
	Atomics            int64
	Redirects          int64 // static-variable transfers serviced via UDN interrupts
	Flops, IntOps      int64
}

// PE is one processing element: a coroutine bound one-to-one to a tile,
// holding its virtual clock, its UDN port, and its symmetric partition.
// All TSHMEM operations hang off the PE (or take it as their first
// argument, for the generic ones). A PE must only be used from the body
// Run called with it.
type PE struct {
	_ noCopy // a run's PEs are elements of one slice and point into themselves (heap)

	prog *Program
	id   int
	n    int

	clock vtime.Clock
	port  *udn.Port

	hint int // concurrency hint for the memory model (set by collectives)

	// Generation counters distinguish overlapping barrier/collective
	// instances on the same active set. The all-PEs set — every
	// BarrierAll and most collectives — bypasses the maps with dedicated
	// counters; the maps serve subset active sets only and are nil until
	// the PE first synchronizes on one (setGenOf).
	barAll      setGen
	collAll     setGen
	barGen      map[ActiveSet]*setGen
	barPending  []udn.Packet // stashed signals of overlapping barrier instances
	bar         *chainInst   // the computed chain barrier this PE has arrived at and not left
	collGen     map[ActiveSet]*setGen
	collPending []udn.Packet
	fabPending  []mpipe.Msg // stashed cross-chip control messages
	finalized   bool
	// observed says the PE's data-path ops run their observer tails
	// (observe.go): it has a recorder, a profiler or sanitizer hooks, or the
	// run has a fault plan. Set once, in newProgram; it sits in the padding
	// after finalized.
	observed bool

	stats Stats
	rec   *stats.Recorder   // substrate observability; nil unless Config.Observe
	san   *sanitize.PEHooks // happens-before checker; nil unless Config.Sanitize
	prof  *profile.Recorder // causal profiler; nil unless Config.Profile

	// heap manages the PE's symmetric partition. It lives in the PE (and the
	// PEs of a run in one slice, Program.pes), so neither may be copied.
	heap alloc.Allocator
}

// noCopy makes go vet's copylocks check report any copy of a struct holding
// it: `for _, pe := range p.pes` compiles, copies a whole PE every turn
// and calls methods on the copy.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// profMerge attributes a cross-PE clock merge to the causal profiler:
// idle before the peer published at sent is blamed on cat, the in-flight
// tail on mesh, carrying the happens-before edge to (peer, sent).
func (pe *PE) profMerge(cat profile.Category, start vtime.Time, peer int, sent, arrive vtime.Time) {
	if pe.prof == nil {
		return
	}
	pe.prof.Merge(cat, start, sanitize.Edge{
		PE: int32(pe.id), Peer: int32(peer), Sent: sent, Arrive: arrive,
	})
}

// allPEsSet reports whether as is the full-program active set, the case
// the generation-counter fast path serves.
func (pe *PE) allPEsSet(as ActiveSet) bool {
	return as.Start == 0 && as.LogStride == 0 && as.Size == pe.n
}

// setGenOf returns as's generation counter: all for the full-program set,
// otherwise its entry in *subsets, map and entry made on first use.
func (pe *PE) setGenOf(all *setGen, subsets *map[ActiveSet]*setGen, as ActiveSet) *setGen {
	if pe.allPEsSet(as) {
		return all
	}
	g := (*subsets)[as]
	if g == nil {
		if *subsets == nil {
			*subsets = make(map[ActiveSet]*setGen)
		}
		g = &setGen{prefix: asTagPrefix(as)}
		(*subsets)[as] = g
	}
	return g
}

// nextBarGen returns the barrier generation for as with its tag and
// advances the generation.
func (pe *PE) nextBarGen(as ActiveSet) (gen, tag uint32) {
	return pe.setGenOf(&pe.barAll, &pe.barGen, as).next()
}

// MyPE reports this PE's number (the OpenSHMEM _my_pe).
func (pe *PE) MyPE() int { return pe.id }

// NumPEs reports the number of PEs (the OpenSHMEM _num_pes).
func (pe *PE) NumPEs() int { return pe.n }

// Chip reports the processor the program runs on.
func (pe *PE) Chip() *arch.Chip { return pe.prog.chip }

// Program returns the shared program state.
func (pe *PE) Program() *Program { return pe.prog }

// Now reports the PE's current virtual time.
func (pe *PE) Now() vtime.Time { return pe.clock.Now() }

// Stats returns a copy of the PE's traffic counters.
func (pe *PE) Stats() Stats { return pe.stats }

// Counters returns a copy of the PE's substrate counters. It is the zero
// value unless the run was configured with Config.Observe (or Trace).
func (pe *PE) Counters() stats.Counters { return pe.rec.Counters() }

// locality classifies remotePE relative to this PE — for RMA accounting,
// and as the one self / same-chip / cross-chip decision a transfer or an
// atomic makes.
func (pe *PE) locality(remotePE int) stats.Locality {
	switch {
	case remotePE == pe.id:
		return stats.SelfPE
	case pe.prog.sameChip(pe.id, remotePE):
		return stats.SameChip
	default:
		return stats.CrossChip
	}
}

// Tile reports the physical CPU number of the tile this PE is bound to on
// its chip.
func (pe *PE) Tile() int {
	phys, err := pe.prog.geos[pe.prog.chipOf(pe.id)].PhysicalCPU(pe.prog.localIdx(pe.id))
	if err != nil {
		// The launcher validated the binding; this cannot fail.
		panic(err)
	}
	return phys
}

// ChipIndex reports which chip hosts this PE (0 on single-chip runs).
func (pe *PE) ChipIndex() int { return pe.prog.chipOf(pe.id) }

// ChipOf reports which chip hosts the given PE rank, letting multi-chip
// applications reason about transfer locality.
func (pe *PE) ChipOf(rank int) (int, error) {
	if err := pe.checkPE(rank); err != nil {
		return 0, err
	}
	return pe.prog.chipOf(rank), nil
}

// sendUDN sends words on demux queue q to PE dst, which must share this
// PE's chip (the UDN is chip-local).
func (pe *PE) sendUDN(dst, q int, tag uint32, words []uint64) error {
	if !pe.prog.sameChip(pe.id, dst) {
		return fmt.Errorf("tshmem: internal: UDN send from PE %d to PE %d crosses chips", pe.id, dst)
	}
	start := pe.clock.Now()
	err := pe.port.Send(&pe.clock, pe.prog.localIdx(dst), q, tag, words)
	if errors.Is(err, udn.ErrTimeout) {
		return pe.timeoutAt("udn.send", dst, start, start.Add(pe.prog.waitBudget))
	}
	return err
}

// sendFab sends a control message over the mPIPE fabric, attributing the
// injection advance to the profiler (the fabric itself has no per-PE
// recorder hookup, unlike the UDN port).
func (pe *PE) sendFab(dst int, tag uint32, words []uint64) error {
	t0 := pe.clock.Now()
	err := pe.prog.fabric.Send(&pe.clock, pe.id, dst, tag, words)
	pe.prof.Advance(profile.CatUDNSend, t0, pe.clock.Now())
	return err
}

// sendBarrier sends one wait/release signal on the barrier queue, counting
// it as a barrier round.
func (pe *PE) sendBarrier(dst int, tag uint32, word uint64) error {
	pe.rec.BarrierRound()
	return pe.sendUDN(dst, qBarrier, tag, []uint64{word})
}

// advanceAs advances the virtual clock by d and blames the span on cat in
// the causal profiler's ledger. The barrier algorithms use it for their
// modeled software send/forward costs, which would otherwise degrade into
// the compute residual and hide the very term the chain-vs-dissemination
// crossover turns on.
func (pe *PE) advanceAs(cat profile.Category, d vtime.Duration) {
	t0 := pe.clock.Now()
	pe.clock.Advance(d)
	pe.prof.Advance(cat, t0, pe.clock.Now())
}

// globalSrc translates a UDN packet's source (a chip-local tile index) to
// the sender's global rank.
func (pe *PE) globalSrc(localSrc int) int {
	return pe.prog.chipOf(pe.id)*pe.prog.perChip + localSrc
}

// startPEs is the per-PE half of start_pes(): each tile reports its
// partition's starting address to every other tile on its chip via the UDN
// (Section IV.A) — an exchange the launcher has walked (replayStartPEs),
// leaving each PE its clock and, under a fault plan, the timeout that
// stopped it (walked) — and one barrier, chip-spanning on multi-chip runs,
// completes initialization.
func (pe *PE) startPEs(walked error) error {
	// The handshake began at virtual time zero.
	defer pe.rec.OpDone(stats.OpInit, 0, &pe.clock, 0, int(stats.NoPeer))
	if literal := pe.prog.literal.startPEs; walked == nil && literal != nil {
		walked = literal(pe)
	}
	if walked != nil {
		return walked
	}
	return pe.BarrierAll()
}

// replayStartPEs computes what the exchange leaves in every PE's clock
// without moving a packet. An unhooked run takes the round walk (replayChip),
// a pure function of the geometry, from the replay cache (engine.go) when an
// earlier run of the process walked the same mesh shape. A hooked run walks
// the exchange turn by turn (replayTurns), feeding its hooks, and neither
// reads nor fills the cache. It runs on the launcher before any PE starts, so
// it owns every clock, recorder and calendar structure it touches.
func (p *Program) replayStartPEs(errs []error) error {
	for c, geo := range p.geos {
		first, peers := c*p.perChip, p.chipPEs(c)
		if p.hooked {
			if err := p.replayTurns(c, errs[first:first+peers]); err != nil {
				return err
			}
			continue
		}
		key := replayKey{route: geo.RouteKey(), peers: peers}
		now := replayLookup(key)
		if now == nil {
			var err error
			if now, err = p.replayChip(c); err != nil {
				return err
			}
			replayStore(key, now)
		}
		for me, t := range now {
			p.pes[first+me].clock.Set(t)
		}
	}
	return nil
}

// replayChip walks chip c's handshake in bare arithmetic and returns the
// clock it leaves each of the chip's PEs with. In round r every PE p injects
// one word toward p+r and then merges with the report from p-r, so three
// vectors (each PE's clock, when it finished injecting, when the report
// addressed to it lands) carry a round, and peers-1 rounds carry the
// handshake. It calls no hook: testing the recorders at each step was worth
// 18 % of the benchmark's 256-PE launch (2.97 -> 2.45 ms, 10 of 10
// alternating pairs, PR 12).
func (p *Program) replayChip(c int) ([]vtime.Time, error) {
	geo, peers := p.geos[c], p.chipPEs(c)
	now := make([]vtime.Time, peers)
	sent := make([]vtime.Time, peers)
	arrive := make([]vtime.Time, peers)
	for r := 1; r < peers; r++ {
		// Sender and receiver walk the row-major tile order r apart, so
		// their coordinate offset — all the mesh model prices a route
		// by — holds until one of them starts a new row or the receiver
		// wraps to tile 0. One route lookup serves each such run.
		for me := 0; me < peers; {
			dst := (me + r) % peers
			run := min(geo.Width-me%geo.Width, geo.Width-dst%geo.Width, peers-me, peers-dst)
			path, err := geo.Path(me, dst, 1)
			if err != nil {
				return nil, err
			}
			for end := me + run; me < end; me, dst = me+1, dst+1 {
				sent[me] = now[me].Add(path.Send)
				arrive[dst] = sent[me].Add(path.Wire)
			}
		}
		for me := range now {
			now[me] = vtime.Max(sent[me], arrive[me])
		}
	}
	return now, nil
}

// initQueueCap is the depth of a udn demux queue, past which Port.Send parks
// its sender (TestInitQueueCapIsUDNs).
const initQueueCap = 128

// initPkt is a start_pes report: its chip-local sender, when it left, when it lands.
type initPkt struct {
	src          int
	sent, arrive vtime.Time
}

// initTurn is one PE's loop state in the turn walk.
type initTurn struct {
	r     int        // the round under way; past the last once through or stopped
	sent  bool       // round r's report is out and its receive under way
	wait  bool       // parked: the report round r awaits is not in
	start vtime.Time // when round r's receive began
	inbox []initPkt  // reports not yet merged, in queue order: the first taken stashed, the rest queued
	taken int
}

// replayTurns walks chip c's handshake as the literal exchange runs it, turn
// by turn in the calendar's host order, which decides what a PE that times
// out had taken off its queue (the receive counter counts it, the queue
// high-water mark samples it): the least (clock, rank) ready PE, on the run's
// own ready heap, sends and merges until the report it awaits is not in; a
// report queued readies its parked receiver; when none is ready every parked
// PE times out at once. Each report is priced by Port.Inject on its sender's
// clock, where a fault plan stretches, holds or drops it. A report past
// start + WaitBudget, or one that never comes, times its receiver out against
// the sender (in errs, indexed like the chip's PEs); it sends nothing more.
//
// The literal's senders park behind a queue of initQueueCap reports, which
// only a chip of over ~8 000 PEs fills: the deepest queue holds ~1.4 sqrt(n)
// (22 at 256 PEs, 44 at 1024, 90 at 4096, with or without a plan). Parking
// moves no output without a plan; under one the walk refuses the launch.
func (p *Program) replayTurns(c int, errs []error) error {
	geo, first := p.geos[c], c*p.perChip
	pes := p.pes[first : first+p.chipPEs(c)]
	peers, s := len(pes), p.sched
	turns := make([]initTurn, peers)
	for me := range turns {
		turns[me].r = 1
		s.pushReady(first + me)
	}
	for len(s.ready) > 0 {
		me := s.popReady() - first
		pe, t := &pes[me], &turns[me]
		for t.r < peers {
			dst, src := (me+t.r)%peers, (me-t.r+peers)%peers
			if !t.sent {
				path, err := geo.Path(me, dst, 1)
				if err != nil {
					return err
				}
				if arrive, ok := pe.port.Inject(&pe.clock, dst, qInit, 1, &path); ok {
					q := &turns[dst]
					if len(q.inbox)-q.taken == initQueueCap && p.flt != nil {
						return fmt.Errorf("tshmem: internal: start_pes under a fault plan would park PE %d on PE %d's full report queue", first+me, first+dst)
					}
					q.inbox = append(q.inbox, initPkt{src: me, sent: pe.clock.Now(), arrive: arrive})
					if p.links != nil && p.flt != nil { // queue depths sampled under a plan only
						p.links[c].RecordQueueDepth(dst, len(q.inbox)-q.taken)
					}
					if q.wait {
						q.wait = false
						s.pushReady(first + dst)
					}
				}
				t.sent, t.start = true, pe.clock.Now()
			}
			i := slices.IndexFunc(t.inbox[:t.taken], func(k initPkt) bool { return k.src == src })
			for ; i < 0 && t.taken < len(t.inbox); t.taken++ {
				pe.rec.UDNRecv(1)
				if t.inbox[t.taken].src == src {
					i = t.taken
				}
			}
			if t.wait = i < 0; t.wait {
				break
			}
			pkt := t.inbox[i]
			t.inbox, t.taken = slices.Delete(t.inbox, i, i+1), t.taken-1
			if deadline := t.start.Add(p.waitBudget); p.flt != nil && pkt.arrive > deadline {
				errs[me] = pe.timeoutAt("init", first+src, t.start, deadline)
				t.r = peers
				break
			}
			pe.clock.AdvanceTo(pkt.arrive) // from t.start: taking reports moves no clock
			pe.profMerge(profile.CatUDNWait, t.start, first+src, pkt.sent, pkt.arrive)
			t.r, t.sent = t.r+1, false
		}
	}
	for me := range turns {
		if t := &turns[me]; t.wait {
			errs[me] = pes[me].timeoutAt("init", first+(me-t.r+peers)%peers, t.start, t.start.Add(p.waitBudget))
		}
	}
	return nil
}

// Finalize implements the shmem_finalize() extension the paper proposes:
// a collective that quiesces communication so the launcher can safely tear
// down the UDN. After Finalize the PE must not issue further operations.
func (pe *PE) Finalize() error {
	if pe.finalized {
		return ErrFinalized
	}
	pe.Quiet()
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	pe.finalized = true
	return nil
}

// check guards every operation entry point.
func (pe *PE) check() error {
	if pe.finalized {
		return ErrFinalized
	}
	return nil
}

func (pe *PE) checkPE(target int) error {
	if target < 0 || target >= pe.n {
		return fmt.Errorf("%w: %d (NumPEs %d)", ErrBadPE, target, pe.n)
	}
	return nil
}

// ComputeFlops charges the virtual cost of n floating-point operations on
// this chip. The application case studies count their real arithmetic
// through this (Figures 13-14); the TILEPro pays its softfloat penalty
// here.
func (pe *PE) ComputeFlops(n int64) {
	if n <= 0 {
		return
	}
	pe.stats.Flops += n
	pe.clock.Advance(vtime.FromNs(float64(n) * pe.prog.chip.FlopNs))
}

// ComputeIntOps charges the virtual cost of n integer/ALU operations.
func (pe *PE) ComputeIntOps(n int64) {
	if n <= 0 {
		return
	}
	pe.stats.IntOps += n
	pe.clock.Advance(vtime.FromNs(float64(n) * pe.prog.chip.IntOpNs))
}

// ComputeRandomAccesses charges n dependent poorly-local memory accesses
// (e.g. the serialized transpose of the 2D-FFT case study).
func (pe *PE) ComputeRandomAccesses(n int64) {
	pe.clock.Advance(pe.prog.model.RandomAccessCost(n))
}

// AlignClocks synchronizes every PE's virtual clock to a common instant
// (the latest arrival plus the TMC spin-barrier cost). It is a
// simulation-control helper for the benchmark harness, which needs all PEs
// to enter a measured operation at the same virtual time — the equivalent
// of the paper's measurement methodology. It is not part of OpenSHMEM.
func (pe *PE) AlignClocks() error {
	if err := pe.check(); err != nil {
		return err
	}
	tok := pe.san.SpinEnter()
	if err := pe.spinWait("align"); err != nil {
		return err
	}
	pe.san.BarrierExit(tok)
	return nil
}

// spinWait enters the program-wide TMC spin barrier: an arrival registers
// without blocking, the completing member computes the release and wakes
// the parked ones, and under fault injection a wait the calendar expired
// withdraws its arrival and times out. A rendezvous that does complete
// keeps its exact unbounded virtual timing (see docs/ROBUSTNESS.md for the
// caveat that the UDN chain barrier, not the spin barrier, is the
// instrument for virtual-deadline experiments). The spin rendezvous has no
// single releasing peer, so the span carries no happens-before edge: the
// critical path stays on this PE.
func (pe *PE) spinWait(op string) error {
	s := pe.prog.sched
	start := pe.clock.Now()
	bar := pe.prog.spinBar
	gen, rel, done := bar.Arrive(start)
	if done {
		pe.clock.AdvanceTo(rel)
		pe.prof.Advance(profile.CatBarrierWait, start, pe.clock.Now())
		s.wake(wkSpin, int64(gen), 0)
		return nil
	}
	for {
		st := s.yield(pe.id, wkSpin, int64(gen), 0)
		// Check completion before the wake status: the generation may
		// have closed in the same step that expired or aborted us.
		if r, ok := bar.Released(gen); ok {
			pe.clock.AdvanceTo(r)
			pe.prof.Advance(profile.CatBarrierWait, start, pe.clock.Now())
			return nil
		}
		switch st {
		case wakeAbort:
			// Return with the clock unchanged; the caller's next operation
			// observes the abort.
			return nil
		case wakeTimeout:
			if bar.Withdraw(gen) {
				return pe.timeoutAt(op, -1, start, start.Add(pe.prog.waitBudget))
			}
		}
	}
}

// yieldSpin lets other PEs make progress while this PE spins on a
// contended CAS lock: a ready-state hand-off (the spinner's modeled
// backoff grows its clock every retry, so the calendar eventually prefers
// the holder).
func (pe *PE) yieldSpin() { pe.prog.sched.yieldReady(pe.id) }

// Quiet waits until all outstanding puts issued by this PE are complete and
// visible (shmem_quiet), modeled with tmc_mem_fence (Section IV.C.2).
func (pe *PE) Quiet() {
	start := pe.clock.Now()
	tmc.MemFence(&pe.clock, pe.prog.model)
	pe.san.Quiet()
	pe.rec.OpDone(stats.OpFence, start, &pe.clock, 0, int(stats.NoPeer))
}

// Fence ensures ordering of puts to each PE (shmem_fence). TSHMEM aliases
// it to Quiet, giving it the stronger semantics (Section IV.C.2).
func (pe *PE) Fence() { pe.Quiet() }

// ChargeStream charges the excess cost of a memory pass of bytes that is
// part of a loop with total working set ws bytes, beyond the per-transfer
// cost already charged: sustained bandwidth follows the working set when a
// loop keeps evicting its own data. Applications with root-serialized
// gathers (the CBIR case study) use this to model cache thrash.
func (pe *PE) ChargeStream(bytes, ws int64) {
	extra := pe.prog.model.StreamCost(bytes, ws, sharedMode) -
		pe.prog.model.CopyCost(bytes, sharedMode, 1)
	if extra > 0 {
		pe.clock.Advance(extra)
	}
}

// WithConcurrency declares that this PE is entering an application phase
// in which c PEs stream through the shared-memory system simultaneously
// (for example, everyone putting a block to a gather root). The memory
// model degrades per-stream bandwidth accordingly, as it does inside the
// library's own collectives. It returns a restore function.
func (pe *PE) WithConcurrency(c int) (restore func()) {
	return pe.setHint(c)
}

// setHint establishes the concurrency hint for the memory model while a
// collective phase with c simultaneous streams runs; it returns a restore
// function.
func (pe *PE) setHint(c int) func() {
	old := pe.hint
	if c < 1 {
		c = 1
	}
	pe.hint = c
	return func() { pe.hint = old }
}

func (pe *PE) curHint() int {
	if pe.hint < 1 {
		return 1
	}
	return pe.hint
}
