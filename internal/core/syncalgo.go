package core

import (
	"fmt"
	"sort"

	"tshmem/internal/profile"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// BarrierAlgo selects the algorithm behind Barrier and BarrierAll
// (Config.BarrierAlgo). The zero value, BarrierAlgoLinear, is the paper's
// chain. Collective operations keep their internal barriers on the linear
// chain regardless — the paper's collectives are built on it, and pinning
// them keeps collective latencies comparable across sweeps.
//
// The algorithms charge honest modeled costs through the same cost model
// as the rest of the library: standalone UDN sends pay the full software
// send-call cost (arch.Chip.UDNSendCallNs), chain forwards the cheaper
// hot-loop forward cost (UDNSWForwardNs), and shared-counter traffic pays
// mesh transit plus the atomic service time at the counter's home tile.
// The crossovers the sweep tooling reports (tshmem-bench -sweep-algos,
// docs/SYNC.md) fall out of those constants, they are not asserted.
type BarrierAlgo int

const (
	// BarrierAlgoLinear is the paper's barrier (S IV.C.1): a linear
	// wait+release signal chain over the UDN. O(n) chained forwards.
	BarrierAlgoLinear BarrierAlgo = iota
	// BarrierAlgoSpin is the TMC spin barrier (S III.D): a shared-counter
	// rendezvous with the chip's calibrated latency model — the optimization
	// the paper proposes for the TILE-Gx, where it outperforms the chain
	// (S IV.E). Program-wide only; subset active sets return ErrNotSupported.
	BarrierAlgoSpin
	// BarrierAlgoCounter is a sense-reversing central counter barrier:
	// every member atomically increments a counter homed at the set's
	// start tile and spins on a sense word. Increments serialize at the
	// home tile (O(n) atomics), the release invalidation fans out one
	// line copy at a time. Supports subsets and multi-chip sets.
	BarrierAlgoCounter
	// BarrierAlgoDissemination is the dissemination barrier: ceil(log2 n)
	// rounds in which member i signals member (i+2^k) mod n and waits for
	// the symmetric signal. O(log n) rounds of standalone UDN sends; no
	// release phase. Single chip only.
	BarrierAlgoDissemination
	// BarrierAlgoTournament is the tournament barrier: statically paired
	// winners absorb losers' arrival signals over ceil(log2 n) rounds,
	// then the champion's wakeup signals travel back down the bracket.
	// Single chip only.
	BarrierAlgoTournament
	// BarrierAlgoMCSTree is the MCS tree barrier: arrivals climb a 4-ary
	// tree (children signal parents), the wakeup descends a binary tree.
	// Single chip only.
	BarrierAlgoMCSTree

	numBarrierAlgos
)

// barrierAlgoNames are the canonical CLI/stats names, indexed by
// BarrierAlgo.
var barrierAlgoNames = [numBarrierAlgos]string{
	"linear", "tmc-spin", "counter", "dissemination", "tournament", "mcs-tree",
}

func (a BarrierAlgo) String() string {
	if int(a) < len(barrierAlgoNames) {
		return barrierAlgoNames[a]
	}
	return fmt.Sprintf("BarrierAlgo(%d)", int(a))
}

// statsID maps the algorithm to its stats enumeration. The two enums are
// kept in declaration order; a test asserts the names line up.
func (a BarrierAlgo) statsID() stats.BarrierAlgoID { return stats.BarrierAlgoID(a) }

// ParseBarrierAlgo resolves a -barrier-algo flag value. Empty and
// "default" select the linear chain.
func ParseBarrierAlgo(s string) (BarrierAlgo, error) {
	switch s {
	case "", "default":
		return BarrierAlgoLinear, nil
	case "spin":
		return BarrierAlgoSpin, nil
	case "mcstree", "mcs":
		return BarrierAlgoMCSTree, nil
	}
	for i, n := range barrierAlgoNames {
		if s == n {
			return BarrierAlgo(i), nil
		}
	}
	return 0, fmt.Errorf("tshmem: unknown barrier algorithm %q (valid: %s)",
		s, joinNames(barrierAlgoNames[:]))
}

// BarrierAlgos lists every barrier algorithm in declaration order — the
// sweep tooling and CI iterate this.
func BarrierAlgos() []BarrierAlgo {
	out := make([]BarrierAlgo, 0, numBarrierAlgos)
	for a := BarrierAlgoLinear; a < numBarrierAlgos; a++ {
		out = append(out, a)
	}
	return out
}

// LockAlgo selects the implementation behind SetLock/ClearLock/TestLock
// (Config.LockAlgo). The zero value, LockAlgoCAS, is the legacy
// compare-and-swap spin lock with exponential backoff. All algorithms
// arbitrate through the lock variable's instance on PE 0, like the
// original, so they interoperate with the same symmetric lock objects.
type LockAlgo int

const (
	// LockAlgoCAS: compare-and-swap spin loop with exponential backoff on
	// the retry delay. Cheap uncontended; contended acquisition order is
	// unfair and every retry is a full round trip to the lock's home.
	LockAlgoCAS LockAlgo = iota
	// LockAlgoTicket: a ticket lock (fetch-add a ticket, spin until the
	// serving number reaches it). FIFO-fair; one atomic per acquire and
	// release, but every waiter refetches the serving word on handoff.
	LockAlgoTicket
	// LockAlgoMCS: an MCS queue lock (swap into a tail word, spin on a
	// local flag, direct handoff to the successor). FIFO-fair with O(1)
	// handoff traffic — the release signals exactly one waiter.
	LockAlgoMCS

	numLockAlgos
)

var lockAlgoNames = [numLockAlgos]string{"cas", "ticket", "mcs"}

func (a LockAlgo) String() string {
	if int(a) < len(lockAlgoNames) {
		return lockAlgoNames[a]
	}
	return fmt.Sprintf("LockAlgo(%d)", int(a))
}

// statsID maps the algorithm to its stats enumeration (same order).
func (a LockAlgo) statsID() stats.LockAlgoID { return stats.LockAlgoID(a) }

// ParseLockAlgo resolves a -lock-algo flag value.
func ParseLockAlgo(s string) (LockAlgo, error) {
	switch s {
	case "", "default":
		return LockAlgoCAS, nil
	}
	for i, n := range lockAlgoNames {
		if s == n {
			return LockAlgo(i), nil
		}
	}
	return 0, fmt.Errorf("tshmem: unknown lock algorithm %q (valid: %s)",
		s, joinNames(lockAlgoNames[:]))
}

// LockAlgos lists every lock algorithm in declaration order.
func LockAlgos() []LockAlgo {
	out := make([]LockAlgo, 0, numLockAlgos)
	for a := LockAlgoCAS; a < numLockAlgos; a++ {
		out = append(out, a)
	}
	return out
}

func joinNames(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// Signal words of the message-passing barrier algorithms, disjoint from
// the chain's sigWait/sigRelease and from each other so overlapping
// instances and rounds demultiplex by (tag, word) alone.
const (
	sigDissBase   uint64 = 0x10 // + round: dissemination round-k signal
	sigTourArrive uint64 = 0x40 // + round: tournament loser arrival
	sigTourWake   uint64 = 0x60 // + round: tournament wakeup
	sigMCSArrive  uint64 = 0x80 // + child slot (0..3): MCS-tree arrival
	sigMCSWake    uint64 = 0xa0 // MCS-tree wakeup
)

// barrierAlgo dispatches the barrier algorithm Config.BarrierAlgo selects.
// Callers have already validated the active set and counted the entry.
func (pe *PE) barrierAlgo(as ActiveSet) error {
	switch pe.prog.cfg.BarrierAlgo {
	case BarrierAlgoLinear:
		return pe.barrierUDN(as)
	case BarrierAlgoSpin:
		return pe.barrierSpin(as)
	case BarrierAlgoCounter:
		return pe.barrierCounter(as)
	case BarrierAlgoDissemination:
		return pe.barrierDissemination(as)
	case BarrierAlgoTournament:
		return pe.barrierTournament(as)
	case BarrierAlgoMCSTree:
		return pe.barrierMCSTree(as)
	}
	return fmt.Errorf("tshmem: unknown barrier algorithm %d", int(pe.prog.cfg.BarrierAlgo))
}

// runBarrierAlgo is the shared skeleton of the algorithm library's
// barriers: active-set membership, operation accounting, the per-set
// generation counter, the sanitizer rendezvous, and the single-member
// fast path. body runs the algorithm's signal pattern; returning nil
// means the barrier released this PE (every member has entered), which is
// exactly what the sanitizer exit asserts.
func (pe *PE) runBarrierAlgo(as ActiveSet, id stats.BarrierAlgoID,
	body func(idx, n int, gen uint32, tag uint32) error) error {
	idx, ok := as.Index(pe.id)
	if !ok {
		return fmt.Errorf("%w: PE %d vs %v", ErrNotInSet, pe.id, as)
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpBarrier, start, &pe.clock, 0, int(stats.NoPeer))
	defer pe.rec.BarrierAlgoDone(id, start, &pe.clock)
	n := as.Size
	gen, tag := pe.nextBarGen(as)
	tok := pe.san.BarrierEnter(as.Start, as.LogStride, as.Size, gen)
	if n == 1 {
		pe.clock.Advance(vtime.FromNs(pe.prog.chip.BarrierArbiterNs))
		pe.san.BarrierExit(tok)
		return nil
	}
	if err := body(idx, n, gen, tag); err != nil {
		return err
	}
	pe.san.BarrierExit(tok)
	return nil
}

// barrierSpin backs a barrier with the program-wide TMC spin barrier. The
// TMC primitive rendezvouses every PE of the program, so only the all-PEs
// active set is supported.
func (pe *PE) barrierSpin(as ActiveSet) error {
	if !pe.allPEsSet(as) {
		return fmt.Errorf("%w: the TMC spin barrier is program-wide; subset %v needs a subset-capable algorithm (linear, counter, dissemination, tournament, mcs-tree)",
			ErrNotSupported, as)
	}
	start := pe.clock.Now()
	tok := pe.san.SpinEnter()
	if err := pe.spinWait("spin-barrier"); err != nil {
		return err
	}
	pe.san.BarrierExit(tok)
	pe.rec.BarrierAlgoDone(stats.BarrierAlgoSpin, start, &pe.clock)
	pe.rec.OpDone(stats.OpBarrier, start, &pe.clock, 0, int(stats.NoPeer))
	return nil
}

// barrierDissemination runs the dissemination barrier: in round k, member
// i sends a standalone UDN signal to member (i+2^k) mod n and waits for
// the matching signal from (i-2^k) mod n. After ceil(log2 n) rounds every
// member transitively heard from every other, so there is no release
// phase. Each round pays one full software send call, which is why the
// chain wins at small n and dissemination wins once (2n-1) forwards cost
// more than log2(n) send calls.
func (pe *PE) barrierDissemination(as ActiveSet) error {
	return pe.runBarrierAlgo(as, stats.BarrierAlgoDissemination,
		func(idx, n int, _ uint32, tag uint32) error {
			sendCall := vtime.FromNs(pe.prog.chip.UDNSendCallNs)
			for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
				pe.advanceAs(profile.CatUDNSend, sendCall)
				if err := pe.sendBarrier(as.PE((idx+dist)%n), tag, sigDissBase+uint64(k)); err != nil {
					return err
				}
				if err := pe.recvBarrier(tag, sigDissBase+uint64(k)); err != nil {
					return err
				}
			}
			return nil
		})
}

// barrierTournament runs the tournament barrier. In arrival round k the
// member whose set index has bit k set (and all lower bits clear) loses:
// it signals the winner at idx-2^k and waits for a wakeup. Winners absorb
// their partner's arrival and advance. The champion (index 0) sees the
// last arrival, then the wakeup signals retrace the bracket in reverse
// round order, each winner waking the partner it beat.
func (pe *PE) barrierTournament(as ActiveSet) error {
	return pe.runBarrierAlgo(as, stats.BarrierAlgoTournament,
		func(idx, n int, _ uint32, tag uint32) error {
			sendCall := vtime.FromNs(pe.prog.chip.UDNSendCallNs)
			rounds := 0
			for 1<<rounds < n {
				rounds++
			}
			lossRound := rounds // the champion never loses
			for k := 0; k < rounds; k++ {
				bit := 1 << k
				if idx&bit != 0 {
					pe.advanceAs(profile.CatUDNSend, sendCall)
					if err := pe.sendBarrier(as.PE(idx-bit), tag, sigTourArrive+uint64(k)); err != nil {
						return err
					}
					lossRound = k
					break
				}
				if partner := idx + bit; partner < n {
					if err := pe.recvBarrier(tag, sigTourArrive+uint64(k)); err != nil {
						return err
					}
				}
				// No partner in range: a bye — advance to the next round.
			}
			if lossRound < rounds {
				if err := pe.recvBarrier(tag, sigTourWake+uint64(lossRound)); err != nil {
					return err
				}
			}
			for k := lossRound - 1; k >= 0; k-- {
				if partner := idx + 1<<k; partner < n {
					pe.advanceAs(profile.CatUDNSend, sendCall)
					if err := pe.sendBarrier(as.PE(partner), tag, sigTourWake+uint64(k)); err != nil {
						return err
					}
				}
			}
			return nil
		})
}

// barrierMCSTree runs the MCS tree barrier: arrivals climb a 4-ary tree
// (member i waits for children 4i+1..4i+4, then signals parent
// (i-1)/4), and the root's wakeup descends a binary tree (i wakes 2i+1
// and 2i+2). The wide arrival tree amortizes receive costs; the binary
// wakeup halves the release fan-out depth versus the chain.
func (pe *PE) barrierMCSTree(as ActiveSet) error {
	return pe.runBarrierAlgo(as, stats.BarrierAlgoMCSTree,
		func(idx, n int, _ uint32, tag uint32) error {
			sendCall := vtime.FromNs(pe.prog.chip.UDNSendCallNs)
			for c := 1; c <= 4; c++ {
				if 4*idx+c >= n {
					break
				}
				if err := pe.recvBarrier(tag, sigMCSArrive+uint64(c-1)); err != nil {
					return err
				}
			}
			if idx != 0 {
				pe.advanceAs(profile.CatUDNSend, sendCall)
				if err := pe.sendBarrier(as.PE((idx-1)/4), tag, sigMCSArrive+uint64((idx-1)%4)); err != nil {
					return err
				}
				if err := pe.recvBarrier(tag, sigMCSWake); err != nil {
					return err
				}
			}
			for _, child := range [2]int{2*idx + 1, 2*idx + 2} {
				if child >= n {
					break
				}
				pe.advanceAs(profile.CatUDNSend, sendCall)
				if err := pe.sendBarrier(as.PE(child), tag, sigMCSWake); err != nil {
					return err
				}
			}
			return nil
		})
}

// syncOneway reports the one-way transit cost of a one-word message
// between this PE's tile and PE dst's tile; across chips it is the mPIPE
// fabric's per-transfer data cost.
func (pe *PE) syncOneway(dst int) vtime.Duration {
	if dst == pe.id {
		return 0
	}
	if pe.prog.sameChip(pe.id, dst) {
		lat, err := pe.prog.geos[pe.prog.chipOf(pe.id)].OneWayLatency(
			pe.prog.localIdx(pe.id), pe.prog.localIdx(dst), 1)
		if err != nil {
			// The launcher validated the geometry; this cannot fail.
			panic(err)
		}
		return lat
	}
	return pe.prog.fabric.DataCost(0)
}

// Sense-reversing counter barrier.
//
// The counter and sense word live (conceptually) in the start member's
// partition: each member's fetch-and-increment travels to that home tile,
// the increments serialize at the home's cache controller (one
// AtomicCost each, exactly like the atomics elsewhere in the library),
// and the last increment flips the sense word. The release invalidation
// then fans out: every spinner's next poll misses and refetches the
// sense line, serviced one copy at a time (a quarter of the atomic
// service per copy — the copy-out share without the read-modify-write),
// nearer tiles first. The rendezvous below computes those times exactly;
// the functional rendezvous is real (no PE proceeds before all arrived).

// ctrKey identifies one counter-barrier instance.
type ctrKey struct {
	as  ActiveSet
	gen uint32
}

// ctrArrival is one member's registration: when its increment reaches the
// counter's home tile, and the transit cost back to it.
type ctrArrival struct {
	pe     int
	reach  vtime.Time
	oneway vtime.Duration
}

// ctrInst is the shared state of one in-flight counter barrier.
type ctrInst struct {
	need int
	arr  []ctrArrival
	done bool               // the last member arrived
	exit map[int]vtime.Time // departure time per member, set at completion
	left int                // members yet to read their exit time
}

// ctrArrive registers one member, completing the instance when it is the
// last; completed reports whether it was.
func (p *Program) ctrArrive(k ctrKey, need int, a ctrArrival, atomicCost vtime.Duration) (inst *ctrInst, completed bool) {
	inst = p.ctrBars[k]
	if inst == nil {
		inst = &ctrInst{need: need}
		p.ctrBars[k] = inst
	}
	inst.arr = append(inst.arr, a)
	if len(inst.arr) == inst.need {
		inst.complete(atomicCost)
	}
	return inst, inst.done
}

// complete serializes the increments at the home tile and
// computes every member's departure. Ordering is by (arrival time, PE),
// so the outcome is independent of the order members registered in.
func (inst *ctrInst) complete(atomicCost vtime.Duration) {
	sort.Slice(inst.arr, func(i, j int) bool {
		if inst.arr[i].reach != inst.arr[j].reach {
			return inst.arr[i].reach < inst.arr[j].reach
		}
		return inst.arr[i].pe < inst.arr[j].pe
	})
	var svc vtime.Time
	for _, a := range inst.arr {
		if a.reach > svc {
			svc = a.reach
		}
		svc = svc.Add(atomicCost)
	}
	release := svc // the n-th increment observes the full count and flips the sense
	byDist := append([]ctrArrival(nil), inst.arr...)
	sort.Slice(byDist, func(i, j int) bool {
		if byDist[i].oneway != byDist[j].oneway {
			return byDist[i].oneway < byDist[j].oneway
		}
		return byDist[i].pe < byDist[j].pe
	})
	lineSvc := atomicCost / 4
	inst.exit = make(map[int]vtime.Time, len(byDist))
	for i, a := range byDist {
		inst.exit[a.pe] = release.Add(vtime.Duration(i+1)*lineSvc + a.oneway)
	}
	inst.left = inst.need
	inst.done = true
}

// ctrWithdraw takes a timed-out member's arrival back, mirroring
// tmc.Barrier.Withdraw: if the instance completed in the meantime it
// reports false and the caller takes the normal exit instead.
func (p *Program) ctrWithdraw(k ctrKey, inst *ctrInst, pe int) bool {
	if inst.done {
		return false
	}
	for i, a := range inst.arr {
		if a.pe == pe {
			inst.arr = append(inst.arr[:i], inst.arr[i+1:]...)
			break
		}
	}
	if len(inst.arr) == 0 {
		delete(p.ctrBars, k)
	}
	return true
}

// ctrExit reads a member's departure time, deleting the instance once
// every member has read its own.
func (p *Program) ctrExit(k ctrKey, inst *ctrInst, pe int) vtime.Time {
	t := inst.exit[pe]
	inst.left--
	if inst.left == 0 {
		delete(p.ctrBars, k)
	}
	return t
}

// ctrAwait parks in the calendar until the counter-barrier instance
// completes (the last arriver wakes the set, keyed on the barrier tag).
// A quiescence expiry that successfully withdraws the arrival reports
// completed=false; a withdrawal that lost to completion loops and takes
// the normal exit.
func (pe *PE) ctrAwait(k ctrKey, inst *ctrInst, tag uint32) (completed, aborted bool) {
	for {
		if inst.done {
			return true, false
		}
		switch pe.prog.sched.yield(pe.id, wkCtr, int64(tag), 0) {
		case wakeAbort:
			return false, true
		case wakeTimeout:
			if pe.prog.ctrWithdraw(k, inst, pe.id) {
				return false, false
			}
		}
	}
}

// barrierCounter runs the sense-reversing counter barrier. Multi-chip
// active sets are supported: remote-chip increments pay the mPIPE data
// cost instead of the mesh transit.
func (pe *PE) barrierCounter(as ActiveSet) error {
	return pe.runBarrierAlgo(as, stats.BarrierAlgoCounter,
		func(idx, n int, gen uint32, tag uint32) error {
			home := as.PE(0)
			start := pe.clock.Now()
			deadline := pe.waitDeadline()
			oneway := pe.syncOneway(home)
			k := ctrKey{as: as, gen: gen}
			inst, last := pe.prog.ctrArrive(k, n,
				ctrArrival{pe: pe.id, reach: start.Add(oneway), oneway: oneway},
				// Each arrival is a fetch-and-increment at the home tile,
				// so chips without native RMW pay the emulation premium.
				pe.prog.model.AtomicRMWCost())
			if last {
				// Wake the parked members before taking the exit itself.
				pe.prog.sched.wake(wkCtr, int64(tag), 0)
			}
			completed, aborted := pe.ctrAwait(k, inst, tag)
			if aborted {
				return fmt.Errorf("tshmem: program aborted while PE %d waited in a counter barrier", pe.id)
			}
			if !completed {
				return pe.timeoutAt("barrier", -1, start, deadline)
			}
			exit := pe.prog.ctrExit(k, inst, pe.id)
			if deadline > 0 && exit > deadline {
				return pe.timeoutAt("barrier", -1, start, deadline)
			}
			// The counter rendezvous has no single releasing peer (the
			// exit time is derived from the whole arrival set), so the
			// span carries no edge.
			waitStart := pe.clock.Now()
			pe.rec.BarrierWait(pe.clock.AdvanceTo(exit))
			pe.prof.Advance(profile.CatBarrierWait, waitStart, pe.clock.Now())
			return nil
		})
}

// Lock-algorithm shared state.

// mcsWaiter is one PE blocked in an MCS lock queue; wake is the
// predecessor's handoff once got is set.
type mcsWaiter struct {
	pe   int
	wake mcsWake
	got  bool
}

// mcsWake is an MCS handoff: the virtual time at which it reaches the
// successor's tile, plus the releaser's identity and clock at release so
// the successor can emit a happens-before edge to its timeline.
type mcsWake struct {
	wake vtime.Time // arrival at the successor
	sent vtime.Time // releaser's clock at the handoff
	from int        // releaser's global rank
}

// lockAcquired records a successful acquisition: holder bookkeeping (the
// error ClearLock returns on misuse), the sanitizer's lock clock, and the
// per-algorithm acquire-latency histogram.
func (pe *PE) lockAcquired(off int64, a stats.LockAlgoID, start vtime.Time) {
	pe.prog.lockHolder[off] = pe.id
	pe.san.LockAcquired(off)
	pe.rec.LockDone(a, start, &pe.clock)
}

// lockHolderCheck verifies the caller holds the lock and clears the
// holder record; releasing a lock one does not hold is an error (the
// diagnostic counterpart lives in the sanitizer).
func (pe *PE) lockHolderCheck(off int64) error {
	holder, ok := pe.prog.lockHolder[off]
	if ok && holder == pe.id {
		delete(pe.prog.lockHolder, off)
	}
	if !ok {
		return fmt.Errorf("tshmem: PE %d cleared a lock it does not hold", pe.id)
	}
	if holder != pe.id {
		return fmt.Errorf("tshmem: PE %d cleared a lock held by %d", pe.id, holder)
	}
	return nil
}

// clearLockHolder drops the holder record after a CAS-algorithm release
// (which derives its misuse error from the swapped word instead).
func (p *Program) clearLockHolder(off int64, pe int) {
	if h, ok := p.lockHolder[off]; ok && h == pe {
		delete(p.lockHolder, off)
	}
}

// Ticket lock: the lock word packs the next-ticket counter in the high 32
// bits and the now-serving number in the low 32.
const ticketInc int64 = 1 << 32

// setLockTicket acquires the ticket lock: one fetch-add draws a ticket,
// then the caller spins until the serving half reaches it. The handoff
// time is published by the releaser before the serving word is bumped, so
// the waiter's clock merge is deterministic (later ticket draws by other
// arrivals never move it).
func (pe *PE) setLockTicket(lock Ref[int64]) error {
	if err := pe.check(); err != nil {
		return err
	}
	if pe.san.LockSelfAcquire(lock.off, pe.clock.Now()) {
		return fmt.Errorf("tshmem: PE %d SetLock on a lock it already holds (self-deadlock)", pe.id)
	}
	start := pe.clock.Now()
	old, err := FAdd(pe, lock, ticketInc, 0)
	if err != nil {
		return err
	}
	my := uint32(uint64(old) >> 32)
	if serving := uint32(uint64(old)); serving == my {
		pe.lockFreeVisible(lock.off)
		pe.lockAcquired(lock.off, stats.LockAlgoTicket, start)
		return nil
	} else {
		pe.rec.LockRetries(int64(my - serving))
	}
	deadline := pe.waitDeadline()
	off := lock.off
	w := wordAt[int64](pe.partBytes(0), off)
	check := func() bool { return uint32(*w) == my }
	_, st := pe.await(0, off, check)
	switch st {
	case hubAborted:
		return fmt.Errorf("tshmem: program aborted while PE %d waited for a ticket lock", pe.id)
	case hubTimedOut:
		return pe.timeoutAt("lock", -1, start, deadline)
	}
	if rel := pe.prog.lockReleaseStamp(off); rel.t > 0 {
		if t := rel.t.Add(pe.syncOneway(0)); t > pe.clock.Now() {
			waitStart := pe.clock.Now()
			pe.clock.AdvanceTo(t)
			pe.profMerge(profile.CatLockWait, waitStart, int(rel.pe), rel.t, t)
		}
	}
	if deadline > 0 && pe.clock.Now() > deadline {
		return pe.timeoutAt("lock", -1, start, deadline)
	}
	pe.san.AtomicEdge(0, off)
	pe.lockAcquired(lock.off, stats.LockAlgoTicket, start)
	return nil
}

// clearLockTicket bumps the serving number. The release's visibility time
// is published first so the woken waiter reads it, not the hub's running
// maximum (which later ticket draws keep advancing).
func (pe *PE) clearLockTicket(lock Ref[int64]) error {
	if err := pe.check(); err != nil {
		return err
	}
	pe.san.LockRelease(lock.off, pe.clock.Now())
	if err := pe.lockHolderCheck(lock.off); err != nil {
		return err
	}
	start := pe.clock.Now()
	w, err := atomicTarget(pe, lock, 0)
	if err != nil {
		return err
	}
	now := pe.clock.Now()
	pe.prog.setLockRelease(lock.off, now, pe.id)
	*w++
	if pe.observed {
		pe.atomicObserved(start, lock.off, sizeOf[int64](), 0, true)
	}
	pe.prog.publish(0, lock.off, now, pe.id)
	return nil
}

// testLockTicket attempts a non-blocking ticket acquisition: a charged
// read of the word, then a conditional ticket draw only when the lock is
// free. A lost race reports the lock as held, like shmem_test_lock.
func (pe *PE) testLockTicket(lock Ref[int64]) (bool, error) {
	start := pe.clock.Now()
	old, err := FAdd(pe, lock, 0, 0)
	if err != nil {
		return false, err
	}
	if uint32(uint64(old)) != uint32(uint64(old)>>32) {
		return true, nil
	}
	got, err := CSwap(pe, lock, old, old+ticketInc, 0)
	if err != nil {
		return false, err
	}
	if got != old {
		return true, nil
	}
	pe.lockFreeVisible(lock.off)
	pe.lockAcquired(lock.off, stats.LockAlgoTicket, start)
	return false, nil
}

// lockFreeVisible merges the previous release's visibility into the
// acquirer's clock on a fast-path acquire: no PE can observe the lock
// word free before the release store became visible at the lock's home
// and the line travelled back. Every release path (CAS swap, ticket
// serving bump, MCS tail free) publishes through setLockRelease, so the
// contended makespans of the three algorithms diverge honestly instead
// of all collapsing onto overlapping critical sections.
func (pe *PE) lockFreeVisible(off int64) {
	if rel := pe.prog.lockReleaseStamp(off); rel.t > 0 {
		if t := rel.t.Add(pe.syncOneway(0)); t > pe.clock.Now() {
			waitStart := pe.clock.Now()
			pe.clock.AdvanceTo(t)
			pe.profMerge(profile.CatLockWait, waitStart, int(rel.pe), rel.t, t)
		}
	}
}

// lockRelStamp is a lock release's visibility time plus the releasing
// PE's global rank (for the acquirer's happens-before edge).
type lockRelStamp struct {
	t  vtime.Time
	pe int32
}

func (p *Program) setLockRelease(off int64, t vtime.Time, pe int) {
	if t > p.lockRel[off].t {
		p.lockRel[off] = lockRelStamp{t: t, pe: int32(pe)}
	}
}

func (p *Program) lockReleaseStamp(off int64) lockRelStamp {
	return p.lockRel[off]
}

// MCS queue lock: the lock word is the queue tail (holder-or-last-waiter
// PE + 1, 0 when free). The per-waiter "next" pointers of the hardware
// algorithm are host-side registrations keyed by (lock offset,
// predecessor); the handoff carries the exact virtual time at which the
// predecessor's release reaches the successor's tile, so waiters spin on
// a local flag and the release traffic is one line transfer.

// setLockMCS acquires the MCS lock.
func (pe *PE) setLockMCS(lock Ref[int64]) error {
	if err := pe.check(); err != nil {
		return err
	}
	if pe.san.LockSelfAcquire(lock.off, pe.clock.Now()) {
		return fmt.Errorf("tshmem: PE %d SetLock on a lock it already holds (self-deadlock)", pe.id)
	}
	start := pe.clock.Now()
	old, err := Swap(pe, lock, int64(pe.id)+1, 0)
	if err != nil {
		return err
	}
	if old == 0 {
		pe.lockFreeVisible(lock.off)
		pe.lockAcquired(lock.off, stats.LockAlgoMCS, start)
		return nil
	}
	pred := int(old) - 1
	pe.rec.LockRetries(1)
	w := &mcsWaiter{pe: pe.id}
	pe.prog.mcsRegister(lock.off, pred, w)
	deadline := pe.waitDeadline()
	wake, st := pe.mcsAwait(lock.off, pred, w)
	switch st {
	case wakeAbort:
		return fmt.Errorf("tshmem: program aborted while PE %d waited for an MCS lock", pe.id)
	case wakeTimeout:
		pe.prog.mcsUnregister(lock.off, pred, w)
		return pe.timeoutAt("lock", pred, start, deadline)
	}
	waitStart := pe.clock.Now()
	pe.clock.AdvanceTo(wake.wake)
	pe.profMerge(profile.CatLockWait, waitStart, wake.from, wake.sent, wake.wake)
	if deadline > 0 && pe.clock.Now() > deadline {
		return pe.timeoutAt("lock", pred, start, deadline)
	}
	pe.san.AtomicEdge(0, lock.off)
	pe.lockAcquired(lock.off, stats.LockAlgoMCS, start)
	return nil
}

// clearLockMCS releases the MCS lock: free the tail if no successor
// queued, otherwise hand the lock off directly to the successor. A waiter
// swaps itself into the tail and registers behind its predecessor without
// parking in between, so a tail that names somebody else means the
// successor is registered — unless it has been and gone: its bounded wait
// expired under a fault plan and it withdrew. New arrivals then queue behind
// the withdrawn PE, nobody can ever register behind this one, and the
// release is a bounded wait that cannot complete.
func (pe *PE) clearLockMCS(lock Ref[int64]) error {
	if err := pe.check(); err != nil {
		return err
	}
	pe.san.LockRelease(lock.off, pe.clock.Now())
	if err := pe.lockHolderCheck(lock.off); err != nil {
		return err
	}
	start := pe.clock.Now()
	deadline := pe.waitDeadline()
	old, err := CSwap(pe, lock, int64(pe.id)+1, 0, 0)
	if err != nil {
		return err
	}
	if old == int64(pe.id)+1 {
		pe.prog.setLockRelease(lock.off, pe.clock.Now(), pe.id)
		return nil
	}
	w := pe.prog.mcsNext[lock.off][pe.id]
	if w == nil {
		if pe.prog.aborted {
			return fmt.Errorf("tshmem: program aborted while PE %d released an MCS lock", pe.id)
		}
		return pe.timeoutAt("lock", -1, start, deadline)
	}
	handoff := mcsWake{
		// The release's successor probe is a read-modify-write of the
		// waiter's flag word: emulated-RMW chips charge the premium here.
		wake: pe.clock.Now().Add(pe.syncOneway(w.pe) + pe.prog.model.AtomicRMWCost()),
		sent: pe.clock.Now(),
		from: pe.id,
	}
	pe.prog.mcsHandoff(lock.off, pe.id, w, handoff)
	pe.rec.LockHandoff()
	return nil
}

// mcsRegister notes that w waits behind predecessor pred on the lock at
// off.
func (p *Program) mcsRegister(off int64, pred int, w *mcsWaiter) {
	m := p.mcsNext[off]
	if m == nil {
		m = make(map[int]*mcsWaiter)
		p.mcsNext[off] = m
	}
	m[pred] = w
}

// mcsUnregister removes w's registration behind pred, if it is still
// there: a timed-out waiter withdrawing, or a handoff consuming it.
func (p *Program) mcsUnregister(off int64, pred int, w *mcsWaiter) {
	if m := p.mcsNext[off]; m != nil && m[pred] == w {
		delete(m, pred)
		if len(m) == 0 {
			delete(p.mcsNext, off)
		}
	}
}

// mcsHandoff removes the successor's registration and delivers the wake
// time.
func (p *Program) mcsHandoff(off int64, pred int, w *mcsWaiter, wake mcsWake) {
	p.mcsUnregister(off, pred, w)
	w.wake, w.got = wake, true
	p.sched.wake(wkMCS, off, int64(pred))
}

// mcsAwait parks until the predecessor's handoff lands in w. An expiry or
// abort takes a handoff delivered in the same step before reporting.
func (pe *PE) mcsAwait(off int64, pred int, w *mcsWaiter) (mcsWake, uint8) {
	for st := wakeRun; ; st = pe.prog.sched.yield(pe.id, wkMCS, off, int64(pred)) {
		wake, got := w.wake, w.got
		if got {
			return wake, wakeRun
		}
		if st != wakeRun {
			return mcsWake{}, st
		}
	}
}
