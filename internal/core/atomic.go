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
// the operation to the line's home and gets the old value back. It returns
// the word itself; the caller's load-modify-store of it is indivisible
// because the caller holds the baton from here until it next parks. The
// caller runs the operation's tail (atomicObserved) once it has stored.
func atomicTarget[T Elem](pe *PE, target Ref[T], tpe int) (*T, error) {
	if !wordOn(pe, target, tpe) {
		return nil, atomicTargetErr(pe, target, tpe)
	}
	pe.stats.Atomics++
	// Round trip to the target tile plus the atomic service time; across
	// chips the round trip rides the mPIPE fabric.
	switch pe.locality(tpe) {
	case stats.SameChip:
		lat, err := pe.prog.geos[pe.prog.chipOf(pe.id)].OneWayLatency(
			pe.prog.localIdx(pe.id), pe.prog.localIdx(tpe), 1)
		if err != nil {
			return nil, err
		}
		pe.clock.Advance(2 * lat)
	case stats.CrossChip:
		pe.clock.Advance(2 * pe.prog.fabric.DataCost(0))
	}
	// Every operation through here is a fetch-op (swap/cswap/fadd/...):
	// chips without native RMW (Epiphany) pay the TESTSET emulation
	// premium.
	pe.clock.Advance(pe.prog.model.AtomicRMWCost())
	return wordAt[T](pe.partBytes(tpe), target.off), nil
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

// Swap writes value into target on PE tpe and returns the old value
// (shmem_swap), indivisibly because the caller holds the baton.
func Swap[T AtomicT](pe *PE, target Ref[T], value T, tpe int) (T, error) {
	start := pe.clock.Now()
	w, err := atomicTarget(pe, target, tpe)
	if err != nil {
		var zero T
		return zero, err
	}
	old := *w
	*w = value
	if pe.observed {
		pe.atomicObserved(start, target.off, sizeOf[T](), tpe, true)
	}
	pe.prog.hubs[tpe].publish(target.off, pe.clock.Now(), pe.id)
	return old, nil
}

// CSwap writes value into target on PE tpe if the current value equals
// cond, returning the prior value (shmem_cswap); compare and store are
// indivisible because the caller holds the baton.
func CSwap[T AtomicInt](pe *PE, target Ref[T], cond, value T, tpe int) (T, error) {
	start := pe.clock.Now()
	w, err := atomicTarget(pe, target, tpe)
	if err != nil {
		var zero T
		return zero, err
	}
	cur := *w
	if cur != cond {
		// A failed compare writes nothing and wakes nobody: it stays off
		// the hub (contended CAS locks spin through here).
		if pe.observed {
			pe.atomicObserved(start, target.off, sizeOf[T](), tpe, false)
		}
		return cur, nil
	}
	*w = value
	if pe.observed {
		pe.atomicObserved(start, target.off, sizeOf[T](), tpe, true)
	}
	pe.prog.hubs[tpe].publish(target.off, pe.clock.Now(), pe.id)
	return cur, nil
}

// FAdd adds value to target on PE tpe and returns the prior value
// (shmem_fadd), indivisibly because the caller holds the baton.
func FAdd[T AtomicInt](pe *PE, target Ref[T], value T, tpe int) (T, error) {
	start := pe.clock.Now()
	w, err := atomicTarget(pe, target, tpe)
	if err != nil {
		var zero T
		return zero, err
	}
	old := *w
	*w = old + value
	if pe.observed {
		pe.atomicObserved(start, target.off, sizeOf[T](), tpe, true)
	}
	pe.prog.hubs[tpe].publish(target.off, pe.clock.Now(), pe.id)
	return old, nil
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
		if pe.prog.aborted {
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

// ClearLock releases a lock held by this PE (shmem_clear_lock). Under every
// algorithm a release by a PE that does not hold the lock fails and leaves
// the lock as it was.
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
	pe.san.LockRelease(lock.off, pe.clock.Now())
	old, err := CSwap(pe, lock, int64(pe.id)+1, 0, 0)
	if err != nil {
		return err
	}
	if old == 0 {
		return fmt.Errorf("tshmem: PE %d cleared a lock it does not hold", pe.id)
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
