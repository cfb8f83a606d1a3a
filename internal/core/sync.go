package core

import (
	"fmt"

	"tshmem/internal/profile"
	"tshmem/internal/stats"
)

// Cmp is a point-to-point synchronization comparison (SHMEM_CMP_*).
type Cmp int

const (
	CmpEQ Cmp = iota // equal
	CmpNE            // not equal
	CmpGT            // greater than
	CmpLE            // less than or equal
	CmpLT            // less than
	CmpGE            // greater than or equal
)

func (c Cmp) String() string {
	switch c {
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpGT:
		return ">"
	case CmpLE:
		return "<="
	case CmpLT:
		return "<"
	case CmpGE:
		return ">="
	default:
		return fmt.Sprintf("Cmp(%d)", int(c))
	}
}

// evalCmp applies the comparison. Integer is an ordered constraint, so
// operators apply directly.
func evalCmp[T Integer](c Cmp, have, want T) (bool, error) {
	switch c {
	case CmpEQ:
		return have == want, nil
	case CmpNE:
		return have != want, nil
	case CmpGT:
		return have > want, nil
	case CmpLE:
		return have <= want, nil
	case CmpLT:
		return have < want, nil
	case CmpGE:
		return have >= want, nil
	default:
		return false, fmt.Errorf("tshmem: unknown comparison %d", int(c))
	}
}

// WaitUntil blocks until the calling PE's instance of ivar (element 0)
// satisfies cmp against value (shmem_wait_until). The variable must be a
// dynamic symmetric object written by elemental puts or atomics — exactly
// the discipline real SHMEM codes follow for synchronization flags.
//
// The waiter's clock merges with the virtual time at which the satisfying
// store became visible.
func WaitUntil[T Integer](pe *PE, ivar Ref[T], cmp Cmp, value T) error {
	if err := pe.check(); err != nil {
		return err
	}
	if !ivar.valid() || ivar.kind != dynamicRef {
		return fmt.Errorf("%w: WaitUntil needs a dynamic symmetric variable", ErrStatic)
	}
	off := ivar.off
	w := wordAt[T](pe.partBytes(pe.id), off)

	check := func() bool {
		ok, cerr := evalCmp(cmp, *w, value)
		return cerr == nil && ok
	}
	// Validate the comparison once up front so a bad Cmp errors instead of
	// hanging.
	if _, err := evalCmp(cmp, value, value); err != nil {
		return err
	}

	start := pe.clock.Now()
	deadline := pe.waitDeadline()
	hub := &pe.prog.hubs[pe.id]
	stamp, st := hub.await(pe, off, check)
	switch st {
	case hubAborted:
		return fmt.Errorf("tshmem: program aborted while PE %d waited on a symmetric variable", pe.id)
	case hubTimedOut:
		// The writer is starved by fault injection: nothing is left to run
		// that could write the flag. The virtual outcome is the deadline
		// expiring.
		return pe.timeoutAt("wait_until", -1, start, deadline)
	}
	pe.clock.Advance(pe.prog.chip.Cycles(2))
	if deadline > 0 && stamp.t > deadline {
		// The satisfying store exists but became visible only after the
		// virtual deadline (the writer was slowed past the budget).
		return pe.timeoutAt("wait_until", -1, start, deadline)
	}
	if stamp.t > 0 {
		waitStart := pe.clock.Now()
		pe.clock.AdvanceTo(stamp.t)
		// The store's visibility time is the writer's clock at the store,
		// so the edge has zero transport: idle blame plus a jump to the
		// writer for the critical path.
		pe.profMerge(profile.CatUDNWait, waitStart, int(stamp.writer), stamp.t, stamp.t)
	}
	// The satisfying store was a P or atomic on this word; acquire its
	// publisher's clock.
	pe.san.WaitEdge(off)
	pe.rec.OpDone(stats.OpWait, start, &pe.clock, 0, int(stats.NoPeer))
	return nil
}

// Wait blocks until the variable changes from value (shmem_wait: wait until
// ivar != value).
func Wait[T Integer](pe *PE, ivar Ref[T], value T) error {
	return WaitUntil(pe, ivar, CmpNE, value)
}
