package core

import (
	"fmt"

	"tshmem/internal/profile"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// AtomicT constrains the types with swap support in OpenSHMEM 1.0
// (int, long, long long, float, double).
type AtomicT interface {
	~int32 | ~int64 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// AtomicInt constrains the integer-only atomics (cswap, fadd, finc, add,
// inc).
type AtomicInt interface {
	~int32 | ~int64 | ~uint32 | ~uint64
}

// atomicTarget resolves element 0 of target on PE tpe for an atomic
// operation and charges the transit+service cost: the requesting tile sends
// the operation to the line's home and gets the old value back.
func atomicTarget[T Elem](pe *PE, target Ref[T], tpe int) ([]byte, int64, error) {
	if !wordOn(pe, target, tpe) {
		return nil, 0, atomicTargetErr(pe, target, tpe)
	}
	pe.stats.Atomics++
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpAtomic, start, &pe.clock, sizeOf[T](), tpe)
	// Round trip to the target tile plus the atomic service time; across
	// chips the round trip rides the mPIPE fabric.
	switch pe.locality(tpe) {
	case stats.SameChip:
		lat, err := pe.prog.geos[pe.prog.chipOf(pe.id)].OneWayLatency(
			pe.prog.localIdx(pe.id), pe.prog.localIdx(tpe), 1)
		if err != nil {
			return nil, 0, err
		}
		pe.clock.Advance(2 * lat)
	case stats.CrossChip:
		pe.clock.Advance(2 * pe.prog.fabric.DataCost(0))
	}
	// Every operation through here is a fetch-op (swap/cswap/fadd/...):
	// chips without native RMW (Epiphany) pay the TESTSET emulation
	// premium, and the emulation is surfaced in the counters.
	pe.clock.Advance(pe.prog.model.AtomicRMWCost())
	if pe.prog.chip.AtomicRMWEmulated {
		pe.rec.AtomicEmulated()
	}
	// Atomics on one word mutually order the PEs touching it (the fetch-op
	// serializes at the line's home tile); the hook merges clocks both ways.
	pe.san.AtomicEdge(tpe, target.off)
	return pe.partBytes(tpe), target.off, nil
}

// atomicTargetErr names the condition wordOn rejected an atomic's target
// for, in the order the operation checks them.
func atomicTargetErr[T Elem](pe *PE, target Ref[T], tpe int) error {
	if err := pe.check(); err != nil {
		return err
	}
	if err := pe.checkPE(tpe); err != nil {
		return err
	}
	if !target.valid() || target.kind != dynamicRef {
		return fmt.Errorf("%w: atomics need dynamic symmetric objects", ErrStatic)
	}
	if target.n < 1 {
		return fmt.Errorf("%w: empty target", ErrBounds)
	}
	return fmt.Errorf("%w: dynamic ref beyond partition", ErrBounds)
}

// Swap atomically writes value into target on PE tpe and returns the old
// value (shmem_swap).
func Swap[T AtomicT](pe *PE, target Ref[T], value T, tpe int) (T, error) {
	var zero T
	part, off, err := atomicTarget(pe, target, tpe)
	if err != nil {
		return zero, err
	}
	var old uint64
	pe.prog.hubs[tpe].publish(off, pe.clock.Now(), pe.id, func() bool {
		if sizeOf[T]() == 4 {
			old = uint64(atomicSwap32(part, off, uint32(toBits(value))))
		} else {
			old = atomicSwap64(part, off, toBits(value))
		}
		// Re-merge after the swap landed: a concurrent atomic that slipped
		// in between atomicTarget's edge and ours is now ordered before us.
		pe.san.AtomicEdge(tpe, off)
		return true
	})
	return fromBits[T](old), nil
}

// CSwap atomically writes value into target on PE tpe if the current value
// equals cond, returning the prior value (shmem_cswap).
func CSwap[T AtomicInt](pe *PE, target Ref[T], cond, value T, tpe int) (T, error) {
	var zero T
	part, off, err := atomicTarget(pe, target, tpe)
	if err != nil {
		return zero, err
	}
	es := sizeOf[T]()
	for {
		var curBits uint64
		if es == 4 {
			curBits = uint64(atomicLoad32(part, off))
		} else {
			curBits = atomicLoad64(part, off)
		}
		cur := fromBits[T](curBits)
		if cur != cond {
			// A failed compare writes nothing and wakes nobody: it stays
			// off the hub (contended CAS locks spin through here).
			return cur, nil
		}
		if pe.prog.hubs[tpe].publish(off, pe.clock.Now(), pe.id, func() bool {
			var swapped bool
			if es == 4 {
				swapped = atomicCAS32(part, off, uint32(curBits), uint32(toBits(value)))
			} else {
				swapped = atomicCAS64(part, off, curBits, toBits(value))
			}
			if swapped {
				pe.san.AtomicEdge(tpe, off)
			}
			return swapped
		}) {
			return cur, nil
		}
	}
}

// FAdd atomically adds value to target on PE tpe and returns the prior
// value (shmem_fadd).
func FAdd[T AtomicInt](pe *PE, target Ref[T], value T, tpe int) (T, error) {
	var zero T
	part, off, err := atomicTarget(pe, target, tpe)
	if err != nil {
		return zero, err
	}
	es := sizeOf[T]()
	var cur T
	pe.prog.hubs[tpe].publish(off, pe.clock.Now(), pe.id, func() bool {
		// The add is a CAS loop on the word itself: block puts write
		// this memory without going through the hub.
		for {
			var curBits uint64
			if es == 4 {
				curBits = uint64(atomicLoad32(part, off))
			} else {
				curBits = atomicLoad64(part, off)
			}
			cur = fromBits[T](curBits)
			next := cur + value
			var swapped bool
			if es == 4 {
				swapped = atomicCAS32(part, off, uint32(curBits), uint32(toBits(next)))
			} else {
				swapped = atomicCAS64(part, off, curBits, toBits(next))
			}
			if swapped {
				pe.san.AtomicEdge(tpe, off)
				return true
			}
		}
	})
	return cur, nil
}

// FInc atomically increments target on PE tpe and returns the prior value
// (shmem_finc).
func FInc[T AtomicInt](pe *PE, target Ref[T], tpe int) (T, error) {
	return FAdd(pe, target, 1, tpe)
}

// Add atomically adds value to target on PE tpe (shmem_add).
func Add[T AtomicInt](pe *PE, target Ref[T], value T, tpe int) error {
	_, err := FAdd(pe, target, value, tpe)
	return err
}

// Inc atomically increments target on PE tpe (shmem_inc).
func Inc[T AtomicInt](pe *PE, target Ref[T], tpe int) error {
	_, err := FAdd(pe, target, 1, tpe)
	return err
}

// SetLock acquires a distributed lock (shmem_set_lock). The lock is a
// symmetric long variable arbitrated through the instance on PE 0; the
// algorithm is selected by Config.LockAlgo (docs/SYNC.md). The default is
// a compare-and-swap loop with exponential backoff.
func (pe *PE) SetLock(lock Ref[int64]) error {
	switch pe.prog.cfg.LockAlgo {
	case LockAlgoTicket:
		return pe.setLockTicket(lock)
	case LockAlgoMCS:
		return pe.setLockMCS(lock)
	}
	if err := pe.check(); err != nil {
		return err
	}
	// Re-acquiring a held lock spins forever on hardware; under the
	// sanitizer the misuse is diagnosed and the call fails instead of
	// deadlocking the run.
	if pe.san.LockSelfAcquire(lock.off, pe.clock.Now()) {
		return fmt.Errorf("tshmem: PE %d SetLock on a lock it already holds (self-deadlock)", pe.id)
	}
	start := pe.clock.Now()
	backoff := vtime.Duration(pe.prog.chip.Cycles(50))
	for {
		old, err := CSwap(pe, lock, 0, int64(pe.id)+1, 0)
		if err != nil {
			return err
		}
		if old == 0 {
			pe.lockFreeVisible(lock.off)
			pe.lockAcquired(lock.off, stats.LockAlgoCAS, start)
			return nil
		}
		pe.rec.LockRetries(1)
		if pe.prog.aborted.Load() {
			return fmt.Errorf("tshmem: program aborted while PE %d waited for a lock", pe.id)
		}
		// Contended: model the retry delay and let other PEs run.
		t0 := pe.clock.Now()
		pe.clock.Advance(backoff)
		pe.prof.Advance(profile.CatLockWait, t0, pe.clock.Now())
		if backoff < vtime.Microsecond {
			backoff *= 2
		}
		pe.yieldSpin()
	}
}

// ClearLock releases a lock held by this PE (shmem_clear_lock).
func (pe *PE) ClearLock(lock Ref[int64]) error {
	switch pe.prog.cfg.LockAlgo {
	case LockAlgoTicket:
		return pe.clearLockTicket(lock)
	case LockAlgoMCS:
		return pe.clearLockMCS(lock)
	}
	if err := pe.check(); err != nil {
		return err
	}
	// Diagnose before the swap: the unconditional store below destroys the
	// real holder's ownership whether or not we held the lock.
	pe.san.LockRelease(lock.off, pe.clock.Now())
	old, err := Swap(pe, lock, int64(0), 0)
	if err != nil {
		return err
	}
	if old != int64(pe.id)+1 {
		return fmt.Errorf("tshmem: PE %d cleared a lock held by %d", pe.id, old-1)
	}
	pe.prog.clearLockHolder(lock.off, pe.id)
	pe.prog.setLockRelease(lock.off, pe.clock.Now(), pe.id)
	return nil
}

// TestLock attempts to acquire the lock without blocking
// (shmem_test_lock); it reports true when the lock was already held.
func (pe *PE) TestLock(lock Ref[int64]) (bool, error) {
	if err := pe.check(); err != nil {
		return false, err
	}
	if pe.prog.cfg.LockAlgo == LockAlgoTicket {
		return pe.testLockTicket(lock)
	}
	// The CAS and MCS lock words agree when uncontended (holder PE + 1, 0
	// when free), so a conditional swap is a correct non-blocking probe
	// for both.
	start := pe.clock.Now()
	old, err := CSwap(pe, lock, 0, int64(pe.id)+1, 0)
	if err != nil {
		return false, err
	}
	if old == 0 {
		pe.lockFreeVisible(lock.off)
		pe.lockAcquired(lock.off, pe.prog.cfg.LockAlgo.statsID(), start)
	}
	return old != 0, nil
}
