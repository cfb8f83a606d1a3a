package core

import (
	"fmt"

	"tshmem/internal/stats"
)

// Broadcast copies nelems elements of source on the root (given as a
// zero-based ordinal within the active set) into target on every other
// member (shmem_broadcast32/64). The root's target is not updated, per the
// OpenSHMEM specification. The algorithm is selected by Config.Bcast;
// TSHMEM defaults to the pull-based design the paper found scalable
// (Figure 10).
func Broadcast[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	switch pe.prog.cfg.Bcast {
	case PushBcast:
		return BroadcastPush(pe, target, source, nelems, root, as, ps)
	case BinomialBcast:
		return BroadcastBinomial(pe, target, source, nelems, root, as, ps)
	default:
		return BroadcastPull(pe, target, source, nelems, root, as, ps)
	}
}

func bcastEnter[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) (idx int, tag uint32, err error) {
	idx, tag, err = pe.collEnter(as)
	if err != nil {
		return 0, 0, err
	}
	if err := checkPSync(ps, BcastSyncSize); err != nil {
		return 0, 0, err
	}
	if root < 0 || root >= as.Size {
		return 0, 0, fmt.Errorf("%w: root ordinal %d of %d", ErrBadActiveSet, root, as.Size)
	}
	if nelems < 0 || nelems > target.Len() || nelems > source.Len() {
		return 0, 0, fmt.Errorf("%w: broadcast of %d elements (target %d, source %d)",
			ErrBounds, nelems, target.Len(), source.Len())
	}
	return idx, tag, nil
}

// BroadcastPull is the paper's scalable broadcast: every non-root PE in the
// active set gets the data from the root, distributing the work across the
// abundant iMesh bandwidth (S IV.D.1, Figure 10). Its phases are a barrier
// (the root's source is ready), pullStep, and a barrier (everyone has
// pulled; the root may reuse source).
func BroadcastPull[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	idx, _, err := bcastEnter(pe, target, source, nelems, root, as, ps)
	if err != nil {
		return err
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpBroadcast, start, &pe.clock, int64(nelems)*sizeOf[T](), as.PE(root))
	r := pe.phase(as, idx, 1, pullStep[T]{})
	r.dst, r.src, r.nelems, r.root = Ref[byte](target), Ref[byte](source), nelems, root
	return pe.runPhases(r, target.kind == staticRef || source.kind == staticRef)
}

// pullStep is BroadcastPull's step: a member other than the root gets the
// data from it.
type pullStep[T Elem] struct{}

func (pullStep[T]) run(pe *PE, r *phaseRun) error {
	if r.w.idx == r.root {
		return nil
	}
	as := r.w.as
	restore := pe.setHint(as.Size - 1)
	err := Get(pe, Ref[T](r.dst), Ref[T](r.src), r.nelems, as.PE(r.root))
	restore()
	return err
}

// BroadcastPush is the baseline design: the root puts the data to every
// other PE sequentially. Aggregate bandwidth does not grow with the number
// of participating tiles (S IV.D.1, Figure 9). Its phases are a barrier,
// pushStep, and a barrier.
func BroadcastPush[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	idx, _, err := bcastEnter(pe, target, source, nelems, root, as, ps)
	if err != nil {
		return err
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpBroadcast, start, &pe.clock, int64(nelems)*sizeOf[T](), as.PE(root))
	r := pe.phase(as, idx, 1, pushStep[T]{})
	r.dst, r.src, r.nelems, r.root = Ref[byte](target), Ref[byte](source), nelems, root
	return pe.runPhases(r, target.kind == staticRef || source.kind == staticRef)
}

// pushStep is BroadcastPush's step: the root puts the data to every other
// member in turn and waits for the puts to complete.
type pushStep[T Elem] struct{}

func (pushStep[T]) run(pe *PE, r *phaseRun) error {
	if r.w.idx != r.root {
		return nil
	}
	as := r.w.as
	restore := pe.setHint(1) // serialized on the root
	defer restore()
	for k := 0; k < as.Size; k++ {
		if k == r.root {
			continue
		}
		if err := Put(pe, Ref[T](r.dst), Ref[T](r.src), r.nelems, as.PE(k)); err != nil {
			return err
		}
	}
	pe.Quiet()
	return nil
}

// BroadcastBinomial is the log-depth tree broadcast the paper lists as
// future algorithmic exploration. Data propagates along a binomial tree of
// puts; each forwarding step is flow-controlled with a UDN signal.
func BroadcastBinomial[T Elem](pe *PE, target, source Ref[T], nelems, root int, as ActiveSet, ps PSync) error {
	idx, tag, err := bcastEnter(pe, target, source, nelems, root, as, ps)
	if err != nil {
		return err
	}
	t0 := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpBroadcast, t0, &pe.clock, int64(nelems)*sizeOf[T](), as.PE(root))
	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	n := as.Size
	fab := pe.spansChips(as)
	rel := (idx - root + n) % n // rank relative to the root

	// Non-root PEs forward out of their target buffer once it is filled.
	buf := target
	if idx == root {
		buf = source
	}
	if rel != 0 {
		if _, _, _, err := pe.recvSig(tag, fab); err != nil {
			return err
		}
	}
	// Ranks forward to rel+mask for every mask >= (lowest power of two
	// > rel), standard binomial order.
	start := 1
	for start <= rel {
		start <<= 1
	}
	for mask := start; ; mask <<= 1 {
		child := rel + mask
		if child >= n {
			break
		}
		childPE := as.PE((child + root) % n)
		if err := Put(pe, target, buf, nelems, childPE); err != nil {
			return err
		}
		pe.Quiet()
		if err := pe.sendSig(childPE, tag, 1, fab); err != nil {
			return err
		}
	}
	return pe.barrierUDN(as)
}
