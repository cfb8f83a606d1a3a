package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"tshmem/internal/alloc"
	"tshmem/internal/cache"
	"tshmem/internal/mesh"
	"tshmem/internal/mpipe"
	"tshmem/internal/profile"
	"tshmem/internal/stats"
	"tshmem/internal/tmc"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// Engine names the execution engine behind Run (Config.Engine). There is
// one. Until PR 15 a second engine ran every PE as a free-running goroutine
// blocking on channels and condition variables; it cost a second copy of
// every modeled wait, and the host parallelism it bought inside a run
// helped only bodies dominated by host arithmetic (docs/PERFORMANCE.md,
// "Closed decisions", keeps the measurements), so it was removed. The type
// stays, one-valued, because the frozen benchmark/ package compiles
// against it; a later benchmark PR removes it together with the `_event`
// metric twins.
type Engine int

// EngineEvent is the virtual-time calendar (evsched): parked PEs scheduled
// one at a time, least (virtual clock, rank) first. The zero value.
const EngineEvent Engine = 0

func (e Engine) String() string {
	if e == EngineEvent {
		return "event"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves an engine name: "", "default" and "event" all name
// the calendar.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default", "event":
		return EngineEvent, nil
	case "goroutine":
		return 0, fmt.Errorf("tshmem: the goroutine engine was removed in PR 15; the event calendar is the only engine (valid: event)")
	}
	return 0, fmt.Errorf("tshmem: unknown engine %q (valid: event)", s)
}

// Engines lists every execution engine.
func Engines() []Engine { return []Engine{EngineEvent} }

// Run admission. Because the calendar owns a run's whole lifecycle, it can
// schedule simulations, not just PEs: each Run holds an admission token
// from before its arena is checked out until teardown, capping how many
// simulations are resident at once at a small multiple of GOMAXPROCS. A
// concurrent storm of Run calls then executes in near run-to-completion
// order — only a handful of arenas are ever live, however many runs are in
// flight — instead of every run's arena staying resident while the host
// timeslices among them. Callers observe nothing but Run blocking, which
// it does anyway; virtual time is untouched. The width is fixed at init:
// runs that (unusually) synchronize with each other through host-side
// channels must fit inside it together.
var evAdmission = make(chan struct{}, evAdmissionWidth())

func evAdmissionWidth() int {
	if w := 2 * runtime.GOMAXPROCS(0); w > 2 {
		return w
	}
	return 2
}

// Launch recycling: every Run checks a launch shell out of a process-wide
// pool and back in at teardown. A shell is everything a launch builds that
// the next launch of the same shape would build again: the common-memory
// segment with its launch-time mappings (the scratch arena and each PE's
// partition, whose offsets are a function of the shape), the per-PE slabs
// — the PEs, the UDN ports, the calendar's nodes and ready heap, the watch
// hubs, the symmetry slots and the PEs' outcomes — the per-word and
// per-link tables a run fills (the hubs' stamp tables, the lock and
// counter-barrier maps, each chip's link counters), and the run itself: the
// Program with its copy-cost memo, calendar, networks, cost model, spin
// barrier, scratch allocator and interrupt handlers, which each launch
// re-initialises from its Config (Program.launch). A warm launch then
// allocates only its Report, and pays for zeroing what the previous tenant
// wrote instead of for allocating (and the runtime clearing) a fresh
// multi-megabyte segment, a few hundred kilobytes of slabs and a stamp page
// per word a flag or atomic touches.
//
// Correctness rests on a zeroing invariant — every pooled shell is exactly
// what a fresh one is. Check-in restores it by re-zeroing only what the
// finished run can have written: each PE heap and the scratch arena up to
// its allocator's high-water mark, plus any mappings the run created after
// launch, which it also unmaps; then launchShell.reset, which newShell runs
// too, clears the slabs, empties the tables and zeroes the Program's run
// state, memo included. The tables keep what they grew to: a hub zeroes the
// stamp pages the run made and clears their directory entries, the maps are
// cleared (their buckets stay), the link counters keep their zeroed blocks,
// and the chain sets and counter-barrier instances wait, emptied, for the
// next run to take them. It runs
// once every PE has exited; nothing else ever writes the segment (interrupt
// handlers run inline on the requesting PE).
//
// The emptied tables are not an exception to the invariant: no code can
// tell a kept table from a fresh one (stamp and await read a cleared page
// entry as a missing one; a map or a LinkStats holds no entry), nor the
// rebuilt pieces from new ones (the cost model is rebuilt from the launch's
// chip, never kept for an equal *arch.Chip: callers copy chips and edit the
// copies).
// TestRecycledShellIsFresh is the oracle. Two things a shell keeps across
// launches are the invariant's only exceptions, and neither can reach a
// run's output:
//   - the start_pes replay (replayEntry), one per chip: what the handshake
//     left in the chip's clocks and the hops of its all-PEs chain, with the
//     key it was walked for. A launch reads it only under an equal key, and
//     walks the handshake again otherwise.
//   - the observer buffers' capacity: each rank's trace event buffer and
//     profile segment stream, which teardown takes back from the recorders
//     once the report has copied them out (stats.MergeEvents and
//     profile.Assemble copy; a Report never holds a per-PE buffer), and
//     which the next traced or profiled launch of the shape — or of another
//     shape, whose shell holds none (arenaCheckout) — hands its recorders
//     emptied, so they start at the capacity their rank last grew to.
//
// The visible consequence (documented on Run): once Run returns, local
// views of its symmetric memory (MustLocal / Local), its *PE values and
// their ports are dead — they may already belong to another run.
//
// The pool holds at most arenaPoolBudget bytes of shells — segments, slabs,
// tables, replays and buffers, each shell's counted at its check-in — whatever mix
// of shapes the process launches, and evicts the least recently checked-in
// shell first; a shell larger than the budget is never pooled. The constant
// comes from the benchmark's sweep workload, which cycles through five
// shapes, 44 MiB of segments together (the slabs add kilobytes): it
// allocates 275 / 211 / 6 / 6 / 6 MiB per pass under a budget of 16 / 32 /
// 48 / 64 / 1024 MiB (a cycle that does not fit is the worst case for
// least-recently-used eviction), so 64 MiB is the working set plus room for
// a second segment of its commonest size (12 MiB) when two runs overlap,
// and more buys nothing.
const arenaPoolBudget = 64 << 20

// launchShape is what a shell is a function of: the segment's size and
// layout, and how many PEs and chips its slabs serve.
type launchShape struct {
	segment            int64
	npes, nchips       int
	heapPerPE, scratch int64
}

// shapeOf returns the shape of a launch of the filled-in cfg.
func shapeOf(cfg *Config) launchShape {
	// Each mapping may burn up to one page of alignment padding.
	return launchShape{
		segment: cfg.ScratchBytes + int64(cfg.NPEs)*(cfg.HeapPerPE+4096) + 64<<10,
		npes:    cfg.NPEs, nchips: cfg.NChips,
		heapPerPE: cfg.HeapPerPE, scratch: cfg.ScratchBytes,
	}
}

// launchShell is one launch's recyclable state (see arenaPool). Between
// launches every slab is zero but for the hubs' tables, every table is
// empty, the segment is zero and mapped up to mapFloor (the scratch arena at
// scratchAt, then the partitions), and prog is the Program reset leaves:
// its shape's, bound to no Config.
type launchShell struct {
	shape launchShape
	cm    *tmc.CommonMemory

	// prog is the run: a launch binds it to its Config (Program.launch), and
	// check-in resets it. The rest of this block is what it is built from,
	// rebuilt in place by each launch: the chip's cost model, the calendar,
	// the spin barrier, the scratch arena's allocator, each chip's network
	// with the adapter that parks its waits in the calendar, and each chip's
	// interrupt handler, bound to prog once. begin is prog's calendar's
	// begin, a method value made once: a go statement on it allocates
	// nothing.
	prog      Program
	model     cache.Model
	sched     evsched
	spinBar   tmc.Barrier
	scratch   alloc.Allocator
	nets      []udn.Network
	udnScheds []udnSched
	intr      []udn.TileHandler
	begin     func()

	scratchAt int64    // common-memory offset of the scratch arena
	mapFloor  int64    // end of the launch-time mappings
	partBase  []int64  // common-memory offset of each PE's partition
	parts     [][]byte // each PE's partition as a window of common memory

	pes    []PE
	ports  []udn.Port // every chip's ports, chip after chip; sized by the last launch's geometries
	nodes  []evNode
	ready  []int32    // the calendar's ready heap, empty with room for every PE
	hubs   []watchHub // each with its stamp tables, emptied (watchHub.reset)
	phases []phaseRun
	errs   []error

	// The run's lock and barrier maps (Program.ctrBars and the rest),
	// cleared, and each chip's link counters, emptied (mesh.LinkStats.Clear),
	// nil before an observed launch. entries is the most entries the maps
	// and the hubs' sub-word stamps held at a check-in: the buckets they
	// keep; pageBytes is what the hubs' page tables held at the last one.
	ctrBars    map[ctrKey]*ctrInst
	lockHolder map[int64]int
	lockRel    map[int64]lockRelStamp
	mcsNext    map[int64]map[int]*mcsWaiter
	links      []*mesh.LinkStats
	entries    int
	pageBytes  int64

	// Emptied objects a run takes before it allocates one: the chain sets
	// and counter-barrier instances of earlier runs, and the PEs' chain
	// queues (Program.chainQ), nil before an observed launch.
	chainFree []*chainSet
	ctrFree   []*ctrInst
	chainQ    []chainQueue

	// Kept across launches: the zeroing invariant's two exceptions.
	replay []replayEntry   // by chip
	events [][]stats.Event // by rank, for at least npes ranks after a traced launch; nil before one
	segs   [][]profile.Seg // by rank, for at least npes ranks after a profiled launch; nil before one
	size   int64           // bytes() at its check-in, less any buffers a launch took since
}

// replayKey names one chip's start_pes handshake: the numbers
// mesh.Geometry.Path reads and how many PEs exchange. It is a value, never
// a *arch.Chip: callers copy chips and edit the copies.
type replayKey struct {
	route mesh.RouteKey
	peers int
}

// replayEntry is what handshake key leaves behind (replayStartPEs): each
// PE's clock after the exchange and the hops of the chain barrier across
// them (chainHops). The zero entry matches no key: a chip has a PE.
type replayEntry struct {
	key    replayKey
	clocks []vtime.Time
	hops   []chainHop // hops[i]: local PE i to (i+1) mod peers, one word
}

// newShell builds a shell of shape sh from nothing: a fresh segment with
// the launch-time mappings made, and zeroed slabs.
func newShell(sh launchShape) (*launchShell, error) {
	cm, err := tmc.NewCommonMemory(sh.segment)
	if err != nil {
		return nil, err
	}
	n := sh.npes
	s := &launchShell{
		shape: sh, cm: cm,
		partBase: make([]int64, n), parts: make([][]byte, n),
		pes: make([]PE, n), nodes: make([]evNode, n), ready: make([]int32, 0, n),
		hubs: make([]watchHub, n), phases: make([]phaseRun, n), errs: make([]error, n),
		ctrBars: make(map[ctrKey]*ctrInst), lockHolder: make(map[int64]int),
		lockRel: make(map[int64]lockRelStamp), mcsNext: make(map[int64]map[int]*mcsWaiter),
		links:  make([]*mesh.LinkStats, sh.nchips),
		replay: make([]replayEntry, sh.nchips),
		nets:   make([]udn.Network, sh.nchips), udnScheds: make([]udnSched, sh.nchips),
		intr: make([]udn.TileHandler, sh.nchips),
	}
	p := &s.prog
	p.nchips, p.perChip = sh.nchips, (sh.npes+sh.nchips-1)/sh.nchips
	p.nets = make([]*udn.Network, sh.nchips)
	for c := range s.nets {
		base := c * p.perChip
		p.nets[c] = &s.nets[c]
		s.udnScheds[c] = udnSched{s: &s.sched, rankBase: base}
		// The handler of the chip's interrupts, which redirected
		// static-variable transfers raise (S IV.B.2): it hands each
		// request to the PE on the interrupted tile.
		s.intr[c] = func(cpu int, req udn.Packet) ([]uint64, vtime.Duration) {
			return p.pes[base+cpu].serviceInterrupt(req)
		}
	}
	s.begin = s.sched.begin
	if s.scratchAt, err = cm.Map(sh.scratch, 4096); err != nil {
		return nil, err
	}
	if err := cm.MapEach(sh.heapPerPE, 4096, s.partBase); err != nil {
		return nil, err
	}
	for i, off := range s.partBase {
		if s.parts[i], err = cm.Slice(off, sh.heapPerPE); err != nil {
			return nil, err
		}
	}
	s.mapFloor = cm.MapEnd()
	s.reset()
	return s, nil
}

// reset makes the shell what the next launch of its shape starts from:
// the slabs and the run's tables cleared, the chain sets and
// counter-barrier instances the run made set aside for the next one, and
// prog the Program of the shape with every piece of run state zero — its
// copy-cost memo included — holding the shell's storage. newShell calls it
// too, so a new shell and a recycled one are made ready by the same code.
// Check-in calls it once the run's dirty spans are re-zeroed (they need the
// PEs' heaps).
func (s *launchShell) reset() {
	p := &s.prog
	clear(s.pes)
	clear(s.ports)
	clear(s.nodes)
	if p.phased {
		clear(s.phases)
	}
	clear(s.errs)
	if p.cfg.Observe {
		for _, ls := range s.links {
			ls.Clear()
		}
		clear(s.chainQ)
	}
	for _, set := range p.chainSets {
		s.chainFree = append(s.chainFree, set)
	}
	clear(p.chainSets)
	clear(p.chainHeld)
	for _, inst := range s.ctrBars {
		s.ctrFree = append(s.ctrFree, inst)
	}
	clear(s.ctrBars)
	clear(s.lockHolder)
	clear(s.lockRel)
	clear(s.mcsNext)
	p.statics.reset()
	// The calendar and the networks drop what they held of the caller's (its
	// body, its fault plan, its recorders); launch re-initialises them. The
	// calendar's counts stay readable until then: tests read its parks.
	s.sched.body, s.sched.errs = nil, nil
	clear(s.nets)
	*p = Program{
		shell: s, nchips: p.nchips, perChip: p.perChip,
		geos: p.geos[:0], nets: p.nets, model: &s.model,
		partBase: s.partBase, parts: s.parts, partSize: s.shape.heapPerPE,
		scratchAt: s.scratchAt, scratch: &s.scratch, spinBar: &s.spinBar,
		statics: p.statics, hubs: s.hubs, phases: s.phases,
		ctrBars: s.ctrBars, lockHolder: s.lockHolder, lockRel: s.lockRel, mcsNext: s.mcsNext,
		chainSets: p.chainSets, chainHeld: p.chainHeld,
		sched: &s.sched, pes: s.pes,
	}
}

// portSlab returns the shell's ports as a zero slab of tiles ports, making
// a new one when the last launch's geometries had another tile count.
func (s *launchShell) portSlab(tiles int) []udn.Port {
	if len(s.ports) != tiles {
		s.ports = make([]udn.Port, tiles)
	}
	return s.ports
}

// linkStats returns chip c's link counters for an area of geo: the ones the
// shell keeps, emptied at check-in, or new ones it keeps from now on.
func (s *launchShell) linkStats(c int, geo mesh.Geometry) *mesh.LinkStats {
	if s.links[c] == nil {
		s.links[c] = mesh.NewLinkStats(geo)
	} else {
		s.links[c].Reset(geo)
	}
	return s.links[c]
}

// mapEntryBytes is what one entry of a kept map is counted at: a slot with
// its key and value, its control byte and the load factor's headroom.
const mapEntryBytes = 32

// bytes reports what the shell holds: itself with its Program, its
// segment, its slabs, its tables, its replay and its observer buffers'
// capacities.
func (s *launchShell) bytes() int64 {
	perPE := unsafe.Sizeof(s.partBase[0]) + unsafe.Sizeof(s.parts[0]) + unsafe.Sizeof(s.pes[0]) +
		unsafe.Sizeof(s.nodes[0]) + unsafe.Sizeof(s.ready[0]) + unsafe.Sizeof(s.hubs[0]) +
		unsafe.Sizeof(s.phases[0]) + unsafe.Sizeof(s.errs[0])
	n := int64(unsafe.Sizeof(*s)) + s.cm.Size() + int64(s.shape.npes)*int64(perPE) + int64(len(s.ports))*int64(unsafe.Sizeof(udn.Port{}))
	n += s.pageBytes + int64(s.entries)*mapEntryBytes
	for _, ls := range s.links {
		if ls != nil {
			n += ls.Bytes()
		}
	}
	for _, e := range s.replay {
		n += int64(cap(e.clocks))*int64(unsafe.Sizeof(vtime.Time(0))) + int64(cap(e.hops))*int64(unsafe.Sizeof(chainHop{}))
	}
	n += int64(len(s.events)+len(s.segs)) * int64(unsafe.Sizeof(s.events))
	for _, b := range s.events {
		n += int64(cap(b)) * int64(unsafe.Sizeof(stats.Event{}))
	}
	for _, b := range s.segs {
		n += int64(cap(b)) * int64(unsafe.Sizeof(profile.Seg{}))
	}
	return n
}

var arenaPool struct {
	sync.Mutex
	free []*launchShell // least recently checked in first; sizes sum to <= arenaPoolBudget
}

// arenaCheckout returns a shell of shape sh, as a fresh one would be: the
// most recently pooled one of that shape, or a new one. When the launch
// records (traced or profiled) and that shell holds no observer buffers, it
// takes those of the most recently checked-in shell that does, so that runs
// of different shapes in turn record into one set of buffers, warm in the
// cache: with a set per shape, the benchmark's observed workload, which
// cycles through three shapes, took 15 % longer (wall_s on a 2-vCPU Xeon,
// one build with the hand-over switched off and on, 9 of 10 pairs).
func arenaCheckout(sh launchShape, records bool) (*launchShell, error) {
	var s *launchShell
	var events [][]stats.Event
	var segs [][]profile.Seg
	arenaPool.Lock()
	for i := len(arenaPool.free) - 1; i >= 0; i-- {
		if arenaPool.free[i].shape == sh {
			s = arenaPool.free[i]
			arenaPool.free = slices.Delete(arenaPool.free, i, i+1)
			break
		}
	}
	if records && (s == nil || s.events == nil && s.segs == nil) {
		for i := len(arenaPool.free) - 1; i >= 0; i-- {
			if d := arenaPool.free[i]; d.events != nil || d.segs != nil {
				events, segs, d.events, d.segs = d.events, d.segs, nil, nil
				d.size = d.bytes()
				break
			}
		}
	}
	arenaPool.Unlock()
	if s == nil {
		var err error
		if s, err = newShell(sh); err != nil {
			return nil, err
		}
	}
	if events != nil || segs != nil {
		s.events, s.segs = events, segs
	}
	return s, nil
}

// arenaCheckin takes the observer buffers back from the finished run's
// recorders, empties the hubs' stamp tables, re-zeroes the run's dirty
// spans, unmaps what it mapped after launch, clears the slabs and the other
// tables and pools the shell for the next launch of the same shape,
// evicting older shells to stay within arenaPoolBudget.
func arenaCheckin(p *Program) {
	s := p.shell
	entries := len(s.ctrBars) + len(s.lockHolder) + len(s.lockRel) + len(s.mcsNext)
	s.pageBytes = 0
	for i := range s.pes {
		if p.cfg.Trace {
			s.events[i] = s.pes[i].rec.Events()
		}
		if p.cfg.Profile {
			s.segs[i] = s.pes[i].prof.Segs()
		}
		h := &s.hubs[i]
		entries += len(h.odd)
		s.pageBytes += h.bytes()
		h.reset()
	}
	s.entries = max(s.entries, entries)
	if s.size = s.bytes(); s.size > arenaPoolBudget {
		return
	}
	buf := s.cm.Bytes()
	zero := func(off, end int64) {
		if end > off {
			clear(buf[off:end])
		}
	}
	zero(s.scratchAt, s.scratchAt+p.scratch.HighWater())
	for i := range s.pes {
		zero(s.partBase[i], s.partBase[i]+s.pes[i].heap.HighWater())
	}
	// Mappings created after launch could be written anywhere; launch-time
	// mappings end at mapFloor and are covered by the spans above.
	zero(s.mapFloor, s.cm.Truncate(s.mapFloor))
	s.reset()

	arenaPool.Lock()
	defer arenaPool.Unlock()
	arenaPool.free = append(arenaPool.free, s)
	var held int64
	for _, s := range arenaPool.free {
		held += s.size
	}
	for held > arenaPoolBudget {
		held -= arenaPool.free[0].size
		arenaPool.free = slices.Delete(arenaPool.free, 0, 1)
	}
}

// Wait kinds: what a parked PE is blocked on. Wakers address parked PEs
// by (kind, a, b); a wake is only a hint to re-check — every wait site
// re-evaluates its predicate after waking, so a spurious or collided
// wake is merely a wasted poll, never a correctness problem.
const (
	wkUDNRecv uint8 = iota + 1 // a = global PE, b = demux queue
	wkUDNSend                  // a = global dst PE, b = demux queue (backpressure)
	wkFabRecv                  // a = global PE (mPIPE inbox)
	wkFabSend                  // a = global dst PE (mPIPE backpressure)
	wkSpin                     // a = spin-barrier generation
	wkHub                      // a = watch-hub index (WaitUntil, ticket lock)
	wkCtr                      // a = counter-barrier instance tag
	wkMCS                      // a = lock offset, b = predecessor rank
	wkChain                    // a computed chain barrier: the PE's bar field names the instance

	numWaitKinds
)

// Wake statuses a resumed PE finds in its node.
const (
	wakeRun     uint8 = iota // scheduled normally: proceed / re-check
	wakeTimeout              // quiescence expired this bounded wait (faults)
	wakeAbort                // the program aborted while parked
	wakeForward              // a chain barrier's wait signal reached it: the turn is the driver's (Program.turn)
	wakeStep                 // released from a collective's inner barrier: the driver takes its step (Program.turn)
)

// PE states in the calendar.
const (
	evReady   uint8 = iota // runnable, waiting in the ready heap
	evRunning              // resumed by the driver (at most one per run)
	evBlocked              // parked on a wait tag
	evDone                 // exited
)

// evNode is one PE's slot in the calendar.
type evNode struct {
	state uint8
	kind  uint8 // wait tag, valid while evBlocked
	wake  uint8 // status the PE reads when it is next resumed
	a, b  int64
	clock *vtime.Clock
	co    *peWorker // the coroutine running this PE's body
}

// evsched is the calendar every run executes on: a cooperative scheduler
// over the run's PEs, whose bodies are coroutines (workpool.go). One driver
// loop per run (drive) resumes the ready PE with the least (virtual clock,
// rank); the PE performs its modeled work (advancing its own virtual clock),
// wakes peers whose waits it satisfied, and suspends back into the driver
// by yielding or exiting. The execution order is therefore a pure function
// of the modeled times — deterministic regardless of GOMAXPROCS or host
// load — and a hand-off is two coroutine switches that never enter the Go
// scheduler: no run queue, no wake-up of another host thread.
//
// Every blocking point in the library parks here, and nowhere else: the
// wait sites own the cost-model, profiler, and timeout code, the calendar
// only decides who runs next.
//
// Calendar state belongs to the baton holder, which is whichever of the
// driver and the one resumed PE is executing: the two alternate on a single
// logical thread, each switch ordering everything before it ahead of
// everything after it (iter.Pull's switch is race-instrumented as a
// release/acquire pair), so nothing here is locked or atomic. The launcher
// touches the calendar only before it starts the driver and after the
// driver has signalled done.
type evsched struct {
	prog *Program
	pes  []evNode

	// ready is a binary min-heap of the evReady ranks, least (virtual clock,
	// rank) at the root. Ranks are compared through their nodes' clocks — 4
	// bytes per PE — which is sound because a ready PE's clock cannot move
	// until it is resumed: only a PE's own body advances its clock.
	ready []int32

	nlive   int  // PEs not yet retired by the driver
	resumed int  // the PE the driver is inside a resume of, or -1
	timed   bool // faults armed: quiescence expires bounded waits

	// running counts the resumes in progress, maxRunning its peak — which
	// must stay 1 (Report.MaxRunnablePEs): a second driver loop started
	// while a PE is still resumed, the one way a takeover could go wrong,
	// would read 2.
	running, maxRunning int

	// parked counts the evBlocked PEs per wait kind. Most wakes find nobody
	// parked on their kind — every packet enqueue, dequeue and watched
	// store issues one — and return on this count instead of scanning the
	// calendar.
	parked [numWaitKinds]int

	// parks counts the PEs' parks over the run (yield): one coroutine switch
	// out and, later, one back in each. A hand-off (yieldReady), a turn the
	// driver takes (Program.turn: a forwarding one or a collective's step) and
	// a start barrier the launcher folded (foldStart) park nobody. Tests read
	// it; nothing reports it.
	parks int

	body func(*PE) error // what every PE runs, set by Run before begin
	errs []error         // each PE's outcome

	// done is sent on by the driver once every PE has retired. It outlives
	// init, so a shell's calendar makes it once.
	done chan struct{}
}

// init makes s the calendar of p over the zero nodes, one per PE, and an
// empty ready heap with room for all of them.
func (s *evsched) init(p *Program, nodes []evNode, ready []int32) {
	done := s.done
	if done == nil {
		done = make(chan struct{}, 1)
	}
	*s = evsched{prog: p, pes: nodes, ready: ready[:0], nlive: len(nodes), resumed: -1, done: done}
}

// readyBefore orders two ready ranks by (virtual clock, rank).
func (s *evsched) readyBefore(x, y int32) bool {
	tx, ty := s.pes[x].clock.Now(), s.pes[y].clock.Now()
	return tx < ty || tx == ty && x < y
}

// pushReady marks PE id ready and adds it to the ready heap.
func (s *evsched) pushReady(id int) {
	s.pes[id].state = evReady
	h := append(s.ready, int32(id))
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.readyBefore(h[i], h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	s.ready = h
}

// popReady removes and returns the least (clock, rank) of the ready heap,
// which must not be empty.
func (s *evsched) popReady() int {
	h := s.ready
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s.readyBefore(h[c+1], h[c]) {
			c++
		}
		if !s.readyBefore(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.ready = h
	return int(top)
}

// begin binds every PE's body to a coroutine, queues the PEs as ready and
// drives the run to completion. Run calls it after the start_pes replay set
// the clocks and it set s.body and s.errs, so the first resume
// deterministically goes to the least (clock, rank), and on a goroutine
// started for the purpose, never its caller's, for two reasons:
//
//   - The runtime kills the process when a coroutine is resumed by a
//     goroutine whose OS-thread lock state differs from its creator's, and
//     pooled workers outlive the run that made them. Creator and resumer
//     must therefore both be goroutines that are never locked; Run's caller
//     may be.
//   - iter.Pull re-raises a body's runtime.Goexit in whoever resumed it
//     (see drive), which must not unwind the caller.
func (s *evsched) begin() {
	checkoutWorkers(s.pes)
	for i := range s.prog.pes {
		s.pes[i].co.task = peTask{prog: s.prog, pe: &s.prog.pes[i], body: s.body, errs: s.errs}
		s.pushReady(i)
	}
	s.drive()
}

// drive is the run's driver loop: resume the least ready PE, take the baton
// back when it yields or exits, retire it if it exited, until no PE is
// live. Quiescence — no ready PE but live ones, all parked — means no
// blocked wait can ever be satisfied (nothing is running to satisfy it), so
// no host timer is needed to find that out: under fault injection every
// bounded wait expires at once (each lands its clock on its own
// start+WaitBudget deadline); without faults the program is deadlocked and
// is aborted.
//
// Two kinds of turn are the driver's own, taken here between resumes, the PE
// left parked (Program.turn): a member of a computed chain barrier readied
// with wakeForward is due only to pass the wait signal on, and one readied
// with wakeStep, released from a collective's inner barrier, is due only to
// run the collective's next step and arrive at its next barrier.
//
// Every piece of driver state lives in the calendar, so the loop can be
// picked up by another goroutine, and once per body that leaves through
// runtime.Goexit (a t.FailNow inside a body) it is: the dying coroutine
// runs its deferred calls — the PE's error is recorded, the program
// aborted, the node marked done — and iter.Pull then re-raises the Goexit
// here, unwinding this goroutine out of resume. The deferred takeover
// retires the dead PE and hands the loop to a fresh goroutine, which
// resumes the aborted peers until each has unwound. Whichever goroutine
// finds no PE live returns the run's workers (returnWorkers) and sends on
// done, its last touch of the calendar.
func (s *evsched) drive() {
	defer func() {
		id := s.resumed
		if id < 0 {
			returnWorkers(s.pes)
			s.done <- struct{}{}
			return
		}
		// Leave the resume before handing on: the successor must find the
		// calendar as the loop below leaves it between resumes (when the
		// dead PE was the last one live it goes straight to closing done).
		s.resumed = -1
		s.running--
		s.nlive--
		go s.drive()
	}()
	for s.nlive > 0 {
		if len(s.ready) == 0 {
			if s.timed {
				s.unparkAll(wakeTimeout)
			} else {
				s.resolveDeadlock()
			}
		}
		id := s.popReady()
		n := &s.pes[id]
		if n.wake >= wakeForward && s.prog.turn(id) {
			continue
		}
		n.state = evRunning
		s.resumed = id
		s.running++
		s.maxRunning = max(s.maxRunning, s.running)
		n.co.next()
		s.running--
		s.resumed = -1
		if n.state == evDone {
			s.nlive--
		}
	}
}

// yield parks the running PE on a wait tag and suspends it into the
// driver, which resumes the next ready PE. It returns the wake status the
// calendar left for it; on wakeRun (possibly spurious) the caller re-checks
// its predicate and may yield again.
//
// Only PE id's own body parks it: called from anywhere else — a turn the
// driver takes, say, which must never park — it panics.
func (s *evsched) yield(id int, kind uint8, a, b int64) uint8 {
	s.mustBeResumed(id)
	n := &s.pes[id]
	n.state = evBlocked
	n.kind, n.a, n.b = kind, a, b
	s.parked[kind]++
	s.parks++
	n.co.yield(struct{}{})
	st := n.wake
	n.wake = wakeRun
	return st
}

// repark puts a readied PE the driver has just popped back on the wait it
// was readied from, without having resumed it.
func (s *evsched) repark(id int) {
	n := &s.pes[id]
	n.state, n.wake = evBlocked, wakeRun
	s.parked[n.kind]++
}

// leads reports whether running PE id precedes every ready PE in (clock,
// rank) order, i.e. would be the next one resumed if it were queued.
func (s *evsched) leads(id int) bool {
	return len(s.ready) == 0 || s.readyBefore(int32(id), s.ready[0])
}

// yieldReady lets every ready PE that precedes the running one in (clock,
// rank) order run first — runtime.Gosched for modeled spin loops. The
// caller stays schedulable, so this can never quiesce; a caller that is
// itself the least ready PE would be resumed straight away and does not
// switch at all.
func (s *evsched) yieldReady(id int) {
	s.mustBeResumed(id)
	if s.leads(id) {
		return
	}
	s.pushReady(id)
	s.pes[id].co.yield(struct{}{})
}

// mustBeResumed panics unless the driver is inside a resume of PE id.
func (s *evsched) mustBeResumed(id int) {
	if s.resumed != id {
		panic(fmt.Sprintf("tshmem: PE %d parks outside its own resume (resumed: PE %d; -1 is the driver's own turn)", id, s.resumed))
	}
}

// exit marks a finished PE done; the driver retires it when the PE's
// coroutine next suspends, which is at once.
func (s *evsched) exit(id int) { s.pes[id].state = evDone }

// unpark moves a parked PE back to the ready set; st is what it reads when
// it is next resumed. Every exit from evBlocked goes through here so the
// parked counts stay exact.
func (s *evsched) unpark(id int, st uint8) {
	n := &s.pes[id]
	n.wake = st
	s.parked[n.kind]--
	s.pushReady(id)
}

// wake marks every PE blocked on (kind, a, b) ready. The caller is the
// running PE and keeps running: the woken PEs compete (by clock, then rank)
// once it yields or exits.
func (s *evsched) wake(kind uint8, a, b int64) {
	if s.parked[kind] == 0 {
		return
	}
	lo, hi := 0, len(s.pes)
	if kind == wkUDNRecv || kind == wkFabRecv {
		// Receive waits are keyed on the waiter's own rank: PE a is the
		// only one that can be parked here.
		lo, hi = int(a), int(a)+1
	}
	for i := lo; i < hi; i++ {
		n := &s.pes[i]
		if n.state == evBlocked && n.kind == kind && n.a == a && n.b == b {
			s.unpark(i, wakeRun)
		}
	}
}

// unparkAll readies every parked PE with status st.
func (s *evsched) unparkAll(st uint8) {
	for i := range s.pes {
		if s.pes[i].state == evBlocked {
			s.unpark(i, st)
		}
	}
}

// maxDeadlockLines caps the per-PE lines of a deadlock report.
const maxDeadlockLines = 16

// resolveDeadlock handles true quiescence without fault injection: every
// live PE is parked on a wait no peer can ever satisfy. The calendar sees
// the global state, so instead of hanging it aborts the run with an error
// that names each blocked PE's wait and, where the waits' owners are known
// and close one, a wait-for cycle. It runs on the driver, between resumes,
// and the abort below readies every parked PE for the driver's next pops.
func (s *evsched) resolveDeadlock() {
	var b strings.Builder
	b.WriteString("tshmem: deadlock: every live PE is blocked on a wait no peer can satisfy")
	lines := 0
	for i := range s.pes {
		if s.pes[i].state != evBlocked {
			continue
		}
		if lines++; lines <= maxDeadlockLines {
			fmt.Fprintf(&b, "\n  PE %d: %s", i, s.waitString(i))
		}
	}
	if lines > maxDeadlockLines {
		fmt.Fprintf(&b, "\n  ... and %d more", lines-maxDeadlockLines)
	}
	if cyc := s.waitCycle(); cyc != nil {
		b.WriteString("\n  wait-for cycle:")
		for i, pe := range cyc {
			if i > 0 {
				b.WriteString(" ->")
			}
			fmt.Fprintf(&b, " PE %d", pe)
		}
	}
	s.prog.abort(errors.New(b.String()))
	// abort is once-only; if it already ran (a PE parked during teardown,
	// after the abort's wakes), ready the parked PEs ourselves.
	s.unparkAll(wakeAbort)
}

// waitString names what blocked PE i is parked on.
func (s *evsched) waitString(i int) string {
	switch n := &s.pes[i]; n.kind {
	case wkUDNRecv:
		return fmt.Sprintf("udn.recv queue %d", n.b)
	case wkUDNSend:
		return fmt.Sprintf("udn.send to PE %d queue %d (full)", n.a, n.b)
	case wkFabRecv:
		return "mpipe.recv"
	case wkFabSend:
		return fmt.Sprintf("mpipe.send to PE %d (inbox full)", n.a)
	case wkSpin:
		return fmt.Sprintf("spin barrier generation %d", n.a)
	case wkHub:
		return fmt.Sprintf("wait_until hub %d", n.a)
	case wkCtr:
		return fmt.Sprintf("counter barrier tag %#x", n.a)
	case wkMCS:
		return fmt.Sprintf("lock @%#x behind PE %d", n.a, n.b)
	case wkChain:
		inst := s.prog.pes[i].bar
		return fmt.Sprintf("barrier %v generation %d, missing PEs %v", inst.set.as, inst.gen, inst.missing(s.prog))
	}
	return fmt.Sprintf("wait kind %d", s.pes[i].kind)
}

// waitsFor lists the PEs whose progress would end blocked PE i's wait, for
// the waits that have such owners: the predecessor in an MCS queue, the
// receiver of a backpressured send, the members a counter or chain barrier
// is still missing. A receive or a polled word (WaitUntil, a ticket lock) can be
// satisfied by any PE and has none.
func (s *evsched) waitsFor(i int) []int {
	switch n := &s.pes[i]; n.kind {
	case wkMCS:
		return []int{int(n.b)}
	case wkUDNSend, wkFabSend:
		return []int{int(n.a)}
	case wkCtr:
		for k, inst := range s.prog.ctrBars {
			if int64(asTag(k.as, k.gen)) != n.a {
				continue
			}
			var missing []int
			for m := 0; m < k.as.Size; m++ {
				pe := k.as.PE(m)
				if !slices.ContainsFunc(inst.arr, func(a ctrArrival) bool { return a.pe == pe }) {
					missing = append(missing, pe)
				}
			}
			return missing
		}
	case wkChain:
		return s.prog.pes[i].bar.missing(s.prog)
	}
	return nil
}

// waitCycle finds one cycle among the blocked PEs' waitsFor edges, as the
// ranks along it with the first repeated at the end, or nil.
func (s *evsched) waitCycle() []int {
	nodes := s.pes
	const (
		unseen = iota
		onPath
		done
	)
	mark := make([]uint8, len(nodes))
	var path []int
	var visit func(i int) bool
	visit = func(i int) bool {
		mark[i] = onPath
		path = append(path, i)
		for _, j := range s.waitsFor(i) {
			if nodes[j].state != evBlocked {
				continue
			}
			if mark[j] == onPath {
				path = append(path[slices.Index(path, j):], j)
				return true
			}
			if mark[j] == unseen && visit(j) {
				return true
			}
		}
		mark[i] = done
		path = path[:len(path)-1]
		return false
	}
	for i := range nodes {
		if nodes[i].state == evBlocked && mark[i] == unseen && visit(i) {
			return path
		}
	}
	return nil
}

// udnSched adapts the calendar to one chip's UDN blocking points;
// chip-local CPU numbers translate to global ranks through rankBase.
// Wait* park the calling PE and map a quiescence expiry to the package's
// own timeout error (a nil return means re-poll — after an abort the
// re-poll observes the closed port, preserving the drain-then-ErrClosed
// semantics). Enqueued/Dequeued wake parked receivers and backpressured
// senders.
type udnSched struct {
	s        *evsched
	rankBase int
}

func (u *udnSched) WaitRecv(cpu, dq int) error {
	id := u.rankBase + cpu
	if u.s.yield(id, wkUDNRecv, int64(id), int64(dq)) == wakeTimeout {
		return udn.ErrTimeout
	}
	return nil
}

func (u *udnSched) WaitSend(src, dst, dq int) error {
	if u.s.yield(u.rankBase+src, wkUDNSend, int64(u.rankBase+dst), int64(dq)) == wakeTimeout {
		return udn.ErrTimeout
	}
	return nil
}

func (u *udnSched) Enqueued(dst, dq int) { u.s.wake(wkUDNRecv, int64(u.rankBase+dst), int64(dq)) }
func (u *udnSched) Dequeued(cpu, dq int) { u.s.wake(wkUDNSend, int64(u.rankBase+cpu), int64(dq)) }

// fabSched adapts the calendar to the mPIPE fabric's blocking points
// (inboxes are addressed by global rank, so no translation).
type fabSched struct{ s *evsched }

func (f *fabSched) WaitRecv(pe int) error {
	if f.s.yield(pe, wkFabRecv, int64(pe), 0) == wakeTimeout {
		return mpipe.ErrTimeout
	}
	return nil
}

func (f *fabSched) WaitSend(src, dst int) error {
	if f.s.yield(src, wkFabSend, int64(dst), 0) == wakeTimeout {
		return mpipe.ErrTimeout
	}
	return nil
}

func (f *fabSched) Enqueued(pe int) { f.s.wake(wkFabRecv, int64(pe), 0) }
func (f *fabSched) Dequeued(pe int) { f.s.wake(wkFabSend, int64(pe), 0) }
