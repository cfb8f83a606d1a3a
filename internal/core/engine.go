package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"tshmem/internal/mpipe"
	"tshmem/internal/tmc"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// Engine selects the execution engine behind Run (Config.Engine).
//
// Both engines execute the same PE bodies against the same cost models
// and produce byte-identical reports (a cross-engine test matrix asserts
// this; docs/PERFORMANCE.md explains why it holds). They differ only in
// how the host schedules the PEs:
//
//   - EngineGoroutine (the default) runs every PE as a free-running
//     goroutine that blocks on channels and condition variables at each
//     modeled wait. Simple, but a run keeps NPEs goroutines runnable and
//     contending, which caps how many simulations a host can run at once.
//   - EngineEvent parks every PE and lets a virtual-time calendar grant
//     a single run baton to the ready PE with the least (virtual clock,
//     rank). Exactly one PE goroutine per run is ever runnable, there is
//     no host-level contention between PEs, and the execution order is
//     deterministic by construction instead of by virtual-time
//     tie-breaking across racing goroutines.
type Engine int

const (
	// EngineGoroutine: one free-running host goroutine per PE (legacy).
	EngineGoroutine Engine = iota
	// EngineEvent: parked PEs scheduled one at a time by a virtual-time
	// calendar; O(1) runnable goroutines per run.
	EngineEvent

	numEngines
)

var engineNames = [numEngines]string{"goroutine", "event"}

func (e Engine) String() string {
	if int(e) >= 0 && int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine resolves a -engine flag value. Empty and "default" select
// the goroutine engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default":
		return EngineGoroutine, nil
	}
	for i, n := range engineNames {
		if s == n {
			return Engine(i), nil
		}
	}
	return 0, fmt.Errorf("tshmem: unknown engine %q (valid: %s)",
		s, joinNames(engineNames[:]))
}

// Engines lists every execution engine in declaration order.
func Engines() []Engine {
	out := make([]Engine, 0, numEngines)
	for e := EngineGoroutine; e < numEngines; e++ {
		out = append(out, e)
	}
	return out
}

// Run admission for the event engine. Because the calendar owns a run's
// whole lifecycle, the event engine can schedule simulations, not just
// PEs: each event-engine Run holds an admission token from before its
// arena is allocated until teardown, capping how many simulations are
// resident at once at a small multiple of GOMAXPROCS. A concurrent storm
// of Run calls then executes in near run-to-completion order — only a
// handful of arenas are ever live, however many runs are in flight —
// instead of every run's arena staying resident while the host
// timeslices among them. Callers observe nothing but Run blocking, which
// it does anyway; virtual time is untouched. The width is fixed at init:
// event-engine runs that (unusually) synchronize with each other through
// host-side channels must fit inside it together. The goroutine engine
// stays free-running for compatibility.
var evAdmission = make(chan struct{}, evAdmissionWidth())

func evAdmissionWidth() int {
	if w := 2 * runtime.GOMAXPROCS(0); w > 2 {
		return w
	}
	return 2
}

// Arena recycling: every Run, on either engine, checks its common-memory
// segment out of a process-wide pool and back in at teardown, so a launch
// pays for zeroing the bytes the previous tenant wrote instead of for
// allocating (and the runtime clearing) a fresh multi-megabyte segment.
// Correctness rests on a zeroing invariant — every pooled segment is
// entirely zero, exactly like a fresh one. Check-in restores the invariant
// by re-zeroing only what the finished run can have written: each PE heap
// and scratch shard up to its allocator's high-water mark, plus any
// mappings the run created after launch. It runs once the run is
// quiescent: every PE goroutine has exited and closeNets has waited out
// the interrupt servicers, the only other writers of the segment.
//
// The visible consequence (documented on Run): once Run returns, local
// views of its symmetric memory (MustLocal / Local) are dead — the segment
// may already be backing another run.
//
// The pool holds at most arenaPoolBudget bytes, whatever mix of sizes the
// process launches, and evicts the least recently checked-in segment
// first; a segment larger than the budget is never pooled. The constant
// comes from the benchmark's sweep workload, which cycles through five
// segment sizes, 44 MiB together: it allocates 358 / 264 / 49 / 49 / 49
// MiB per pass under a budget of 16 / 32 / 48 / 64 / 1024 MiB (a cycle
// that does not fit is the worst case for least-recently-used eviction),
// so 64 MiB is the working set plus room for a second segment of its
// commonest size (12 MiB) when two runs overlap, and more buys nothing.
const arenaPoolBudget = 64 << 20

var arenaPool struct {
	sync.Mutex
	free []*tmc.CommonMemory // least recently checked in first; sizes sum to <= arenaPoolBudget
}

// arenaCheckout returns an all-zero common-memory segment of exactly
// total bytes, reusing the most recently pooled one of that size.
func arenaCheckout(total int64) (*tmc.CommonMemory, error) {
	arenaPool.Lock()
	for i := len(arenaPool.free) - 1; i >= 0; i-- {
		if cm := arenaPool.free[i]; cm.Size() == total {
			arenaPool.free = slices.Delete(arenaPool.free, i, i+1)
			arenaPool.Unlock()
			cm.Reset()
			return cm, nil
		}
	}
	arenaPool.Unlock()
	return tmc.NewCommonMemory(total)
}

// arenaCheckin re-zeroes the finished run's dirty spans and pools its
// segment for the next launch of the same shape, evicting older segments
// to stay within arenaPoolBudget.
func arenaCheckin(p *Program) {
	size := p.cm.Size()
	if size > arenaPoolBudget {
		return
	}
	buf := p.cm.Bytes()
	zero := func(off, end int64) {
		if end > off {
			clear(buf[off:end])
		}
	}
	for i := range p.scratchSmall {
		s := &p.scratchSmall[i]
		zero(p.scratchAt+s.base, p.scratchAt+s.base+s.arena.HighWater())
	}
	zero(p.scratchAt+p.scratchBig.base, p.scratchAt+p.scratchBig.base+p.scratchBig.arena.HighWater())
	for i, pe := range p.pes {
		zero(p.partBase[i], p.partBase[i]+pe.heap.HighWater())
	}
	// Mappings created after launch could be written anywhere; launch-time
	// mappings end at mapFloor and are covered by the spans above.
	zero(p.mapFloor, p.cm.MapEnd())

	arenaPool.Lock()
	defer arenaPool.Unlock()
	arenaPool.free = append(arenaPool.free, p.cm)
	var held int64
	for _, cm := range arenaPool.free {
		held += cm.Size()
	}
	for held > arenaPoolBudget {
		held -= arenaPool.free[0].Size()
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
	wkMCSSucc                  // a = lock offset, b = releaser rank

	numWaitKinds
)

// Wake statuses delivered with the run baton.
const (
	wakeRun     uint8 = iota // scheduled normally: proceed / re-check
	wakeTimeout              // quiescence expired this bounded wait (faults)
	wakeAbort                // the program aborted while parked
)

// PE states in the calendar.
const (
	evReady   uint8 = iota // runnable, competing for the baton
	evRunning              // holds the baton (at most one per run)
	evBlocked              // parked on a wait tag
	evDone                 // exited
)

// evNode is one PE's slot in the calendar.
type evNode struct {
	state uint8
	kind  uint8 // wait tag, valid while evBlocked
	wake  uint8 // status to deliver with the next grant
	a, b  int64
	clock *vtime.Clock
	park  chan uint8 // cap 1: a grant never blocks and is never lost
}

// evsched is the event engine's calendar: a cooperative single-baton
// scheduler over the run's PEs. Exactly one PE is evRunning at any time;
// it performs its modeled work (advancing its own virtual clock), wakes
// peers whose waits it satisfied, and hands the baton back by yielding
// or exiting. Grants always go to the ready PE with the least (virtual
// clock, rank), so the execution order is a pure function of the modeled
// times — deterministic regardless of GOMAXPROCS or host load.
//
// Every blocking point in the library parks here instead of on a
// channel; the wait sites keep their exact cost-model, profiler, and
// timeout code, so virtual time is identical to the goroutine engine's.
type evsched struct {
	prog *Program
	mu   sync.Mutex
	pes  []evNode

	nlive   int  // PEs not yet evDone
	running int  // PEs holding the baton: 0 or 1 between handoffs
	timed   bool // faults armed: quiescence expires bounded waits

	// parked counts the evBlocked PEs per wait kind. Most wakes find nobody
	// parked on their kind — every packet enqueue, dequeue and watched
	// store issues one — and return on this count instead of scanning the
	// calendar.
	parked [numWaitKinds]int

	maxRunning int   // peak of running — must stay 1
	handoffs   int64 // total grants, for the scheduling-overhead bench
}

func newEvsched(p *Program, n int) *evsched {
	s := &evsched{prog: p, pes: make([]evNode, n), nlive: n}
	for i := range s.pes {
		s.pes[i].park = make(chan uint8, 1)
	}
	return s
}

// enter parks a freshly spawned PE goroutine until the calendar grants
// it the baton for the first time. Nodes start evReady, so the grant
// comes from begin (or from an earlier PE's yield) — the buffered park
// channel makes grant-before-park safe.
func (s *evsched) enter(id int) {
	<-s.pes[id].park
}

// begin hands out the first baton. Run calls it after spawning every PE,
// so the initial grant deterministically goes to the least (clock, rank)
// no matter how the host interleaves goroutine startup.
func (s *evsched) begin() {
	s.mu.Lock()
	dl := s.dispatchLocked()
	s.mu.Unlock()
	if dl {
		s.resolveDeadlock()
	}
}

// yield parks the running PE on a wait tag and hands the baton to the
// next ready PE. It returns the wake status the calendar delivered; on
// wakeRun (possibly spurious) the caller re-checks its predicate and may
// yield again.
func (s *evsched) yield(id int, kind uint8, a, b int64) uint8 {
	s.mu.Lock()
	n := &s.pes[id]
	n.state = evBlocked
	n.kind, n.a, n.b = kind, a, b
	s.parked[kind]++
	s.running--
	dl := s.dispatchLocked()
	s.mu.Unlock()
	if dl {
		s.resolveDeadlock()
	}
	return <-n.park
}

// yieldReady re-queues the running PE as ready and hands the baton on —
// the event engine's runtime.Gosched for modeled spin loops. The caller
// stays schedulable, so this can never quiesce.
func (s *evsched) yieldReady(id int) {
	s.mu.Lock()
	n := &s.pes[id]
	n.state = evReady
	s.running--
	s.dispatchLocked()
	s.mu.Unlock()
	<-n.park
}

// exit retires a finished PE and hands the baton on.
func (s *evsched) exit(id int) {
	s.mu.Lock()
	s.pes[id].state = evDone
	s.nlive--
	s.running--
	dl := false
	if s.nlive > 0 {
		dl = s.dispatchLocked()
	}
	s.mu.Unlock()
	if dl {
		s.resolveDeadlock()
	}
}

// readyLocked moves a parked PE back to the ready set; st is delivered
// with its next grant. Every exit from evBlocked goes through here so the
// parked counts stay exact.
func (s *evsched) readyLocked(id int, st uint8) {
	n := &s.pes[id]
	n.state = evReady
	n.wake = st
	s.parked[n.kind]--
}

// wake marks every PE blocked on (kind, a, b) ready. The caller holds
// the baton, so no grant happens here: the woken PEs compete (by clock,
// then rank) at the caller's next yield or exit.
func (s *evsched) wake(kind uint8, a, b int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
			s.readyLocked(i, wakeRun)
		}
	}
}

// dispatchLocked grants the baton to the ready PE with the least
// (virtual clock, rank). Quiescence — no ready PE but blocked ones —
// means no blocked wait can ever be satisfied (nothing is running to
// satisfy it): under fault injection every bounded wait expires at once
// (each lands its clock on its own start+WaitBudget deadline, exactly
// like the goroutine engine's independent grace timers); without faults
// the program is deadlocked and the caller must resolve it outside the
// lock (reported by the return value).
func (s *evsched) dispatchLocked() (deadlocked bool) {
	if s.running > 0 {
		return false
	}
	if s.grantLocked() {
		return false
	}
	if s.timed {
		expired := false
		for i := range s.pes {
			if s.pes[i].state == evBlocked {
				s.readyLocked(i, wakeTimeout)
				expired = true
			}
		}
		if expired && s.grantLocked() {
			return false
		}
	}
	for i := range s.pes {
		if s.pes[i].state == evBlocked {
			return true
		}
	}
	return false
}

// grantLocked picks the ready PE with the least (clock, rank) and sends
// it the baton, reporting whether a grant happened. Reading a parked
// PE's clock is safe: its owner last wrote it before parking under this
// mutex.
func (s *evsched) grantLocked() bool {
	best := -1
	var bt vtime.Time
	for i := range s.pes {
		n := &s.pes[i]
		if n.state != evReady {
			continue
		}
		if t := n.clock.Now(); best < 0 || t < bt {
			best, bt = i, t
		}
	}
	if best < 0 {
		return false
	}
	n := &s.pes[best]
	n.state = evRunning
	s.running++
	if s.running > s.maxRunning {
		s.maxRunning = s.running
	}
	s.handoffs++
	st := n.wake
	n.wake = wakeRun
	n.park <- st
	return true
}

// resolveDeadlock handles true quiescence without fault injection: every
// live PE is parked on a wait no peer can ever satisfy. The goroutine
// engine would hang here; the calendar sees the global state and aborts
// the run with a diagnosis instead (documented divergence —
// docs/PERFORMANCE.md).
func (s *evsched) resolveDeadlock() {
	s.prog.abort(fmt.Errorf("tshmem: deadlock: every live PE is blocked on a wait no peer can satisfy"))
	// abort is once-only; if it already ran (a PE parked during teardown,
	// after the abort hook's wakes), re-issue the abort wakes ourselves.
	s.abortWake()
}

// abortWake marks every parked PE ready with an abort status and, if no
// PE holds the baton (quiescence resolution), grants one. Called from
// Program.abort.
func (s *evsched) abortWake() {
	s.mu.Lock()
	for i := range s.pes {
		if s.pes[i].state == evBlocked {
			s.readyLocked(i, wakeAbort)
		}
	}
	if s.running == 0 {
		s.grantLocked()
	}
	s.mu.Unlock()
}

// maxRunningPeak reports the peak number of simultaneously runnable PEs
// the calendar granted — 1 by construction.
func (s *evsched) maxRunningPeak() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxRunning
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
