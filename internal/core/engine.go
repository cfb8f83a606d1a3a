package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"unsafe"

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
// "Execution model", keeps the measurements), so it was removed. The type
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
// pool and back in at teardown. A shell is what newProgram builds that the
// next launch of the same shape would build again: the common-memory
// segment with its launch-time mappings (the scratch arena and each PE's
// partition, whose offsets are a function of the shape), and the per-PE
// slabs — the PEs, the UDN ports, the calendar's nodes and ready heap, the
// watch hubs, the symmetry slots and the PEs' outcomes. A launch then pays
// for zeroing what the previous tenant wrote instead of for allocating
// (and the runtime clearing) a fresh multi-megabyte segment and a few
// hundred kilobytes of slabs.
//
// Correctness rests on a zeroing invariant — every pooled shell is exactly
// what a fresh one is. Check-in restores it by re-zeroing only what the
// finished run can have written: each PE heap and the scratch arena up to
// its allocator's high-water mark, plus any mappings the run created after
// launch, which it also unmaps; and by clearing the slabs. It runs once
// every PE has exited; nothing else ever writes the segment (interrupt
// handlers run inline on the requesting PE).
//
// Two things a shell keeps across launches are the invariant's only
// exceptions, and neither can reach a run's output:
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
// replays and buffers, each shell's counted at its check-in — whatever mix
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
// launches every slab is zero and the segment is zero and mapped up to
// mapFloor: the scratch arena at scratchAt, then the partitions.
type launchShell struct {
	shape launchShape
	cm    *tmc.CommonMemory

	scratchAt int64    // common-memory offset of the scratch arena
	mapFloor  int64    // end of the launch-time mappings
	partBase  []int64  // common-memory offset of each PE's partition
	parts     [][]byte // each PE's partition as a window of common memory

	pes      []PE
	ports    []udn.Port // every chip's ports, chip after chip; sized by the last launch's geometries
	nodes    []evNode
	ready    []int32 // the calendar's ready heap, empty with room for every PE
	hubs     []watchHub
	symCheck []int64
	errs     []error

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
		hubs: make([]watchHub, n), symCheck: make([]int64, n), errs: make([]error, n),
		replay: make([]replayEntry, sh.nchips),
	}
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
	return s, nil
}

// portSlab returns the shell's ports as a zero slab of tiles ports, making
// a new one when the last launch's geometries had another tile count.
func (s *launchShell) portSlab(tiles int) []udn.Port {
	if len(s.ports) != tiles {
		s.ports = make([]udn.Port, tiles)
	}
	return s.ports
}

// bytes reports what the shell holds: its segment, its slabs, its replay
// and its observer buffers' capacities.
func (s *launchShell) bytes() int64 {
	perPE := unsafe.Sizeof(s.partBase[0]) + unsafe.Sizeof(s.parts[0]) + unsafe.Sizeof(s.pes[0]) +
		unsafe.Sizeof(s.nodes[0]) + unsafe.Sizeof(s.ready[0]) + unsafe.Sizeof(s.hubs[0]) +
		unsafe.Sizeof(s.symCheck[0]) + unsafe.Sizeof(s.errs[0])
	n := s.cm.Size() + int64(s.shape.npes)*int64(perPE) + int64(len(s.ports))*int64(unsafe.Sizeof(udn.Port{}))
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
// recorders, re-zeroes its dirty spans, unmaps what it mapped after launch,
// clears the slabs and pools the shell for the next launch of the same
// shape, evicting older shells to stay within arenaPoolBudget.
func arenaCheckin(p *Program) {
	s := p.shell
	for i := range s.pes {
		if p.cfg.Trace {
			s.events[i] = s.pes[i].rec.Events()
		}
		if p.cfg.Profile {
			s.segs[i] = s.pes[i].prof.Segs()
		}
	}
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
	clear(s.pes)
	clear(s.ports)
	clear(s.nodes)
	clear(s.hubs)
	clear(s.symCheck)
	clear(s.errs)

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
	wakeForward              // a chain barrier's wait signal reached it: the turn is the driver's (chainTurn)
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
	// out and, later, one back in each. A hand-off (yieldReady), a forwarding
	// turn the driver takes (chainTurn) and a start barrier the launcher
	// folded (foldStart) park nobody. Tests read it; nothing reports it.
	parks int

	done chan struct{} // closed by the driver once every PE has retired
}

// newEvsched makes the calendar of p over the zero nodes, one per PE, and
// an empty ready heap with room for all of them.
func newEvsched(p *Program, nodes []evNode, ready []int32) *evsched {
	return &evsched{prog: p, pes: nodes, ready: ready[:0], nlive: len(nodes), resumed: -1,
		done: make(chan struct{})}
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
// the clocks, so the first resume deterministically goes to the least
// (clock, rank), and on a goroutine started for the purpose, never its
// caller's, for two reasons:
//
//   - The runtime kills the process when a coroutine is resumed by a
//     goroutine whose OS-thread lock state differs from its creator's, and
//     pooled workers outlive the run that made them. Creator and resumer
//     must therefore both be goroutines that are never locked; Run's caller
//     may be.
//   - iter.Pull re-raises a body's runtime.Goexit in whoever resumed it
//     (see drive), which must not unwind the caller.
func (s *evsched) begin(body func(*PE) error, errs []error) {
	checkoutWorkers(s.pes)
	for i := range s.prog.pes {
		s.pes[i].co.task = peTask{prog: s.prog, pe: &s.prog.pes[i], body: body, errs: errs}
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
// One kind of turn is the driver's own: a member of a computed chain barrier
// readied with wakeForward is due only to pass the wait signal on, which
// chainTurn does here, between resumes, leaving the PE parked.
//
// Every piece of driver state lives in the calendar, so the loop can be
// picked up by another goroutine, and once per body that leaves through
// runtime.Goexit (a t.FailNow inside a body) it is: the dying coroutine
// runs its deferred calls — the PE's error is recorded, the program
// aborted, the node marked done — and iter.Pull then re-raises the Goexit
// here, unwinding this goroutine out of resume. The deferred takeover
// retires the dead PE and hands the loop to a fresh goroutine, which
// resumes the aborted peers until each has unwound. Whichever goroutine
// finds no PE live returns the run's workers (returnWorkers) and signals
// done.
func (s *evsched) drive() {
	defer func() {
		id := s.resumed
		if id < 0 {
			returnWorkers(s.pes)
			close(s.done)
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
		if n.wake == wakeForward && s.prog.chainTurn(id) {
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
func (s *evsched) yield(id int, kind uint8, a, b int64) uint8 {
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
	if s.leads(id) {
		return
	}
	s.pushReady(id)
	s.pes[id].co.yield(struct{}{})
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
