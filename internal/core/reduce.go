package core

import (
	"fmt"

	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// ReduceAlgo selects the default reduction engine.
type ReduceAlgo int

const (
	// NaiveReduce is the paper's current design (S IV.D.3): the root
	// serially gets each PE's data, folds it, and pull-broadcasts the
	// result. Aggregate bandwidth stays flat as tiles are added (Figure 12).
	NaiveReduce ReduceAlgo = iota
	// RecursiveDoubling is the paper's future-work algorithm: log-depth
	// pairwise exchange; every PE finishes with the result. Requires a
	// power-of-two active set and a pWrk of at least nelems elements; the
	// engine falls back to NaiveReduce otherwise.
	RecursiveDoubling
)

func (r ReduceAlgo) String() string {
	if r == RecursiveDoubling {
		return "recursive-doubling"
	}
	return "naive"
}

// foldKind tells the engine how to charge the arithmetic.
type foldKind int

const (
	foldInt foldKind = iota
	foldFloat
)

// chargeFold charges the per-element cost of the reduction's fold loop.
// The loop is type-dispatched (one call per element in the C library this
// models), far costlier than a raw ALU op — this is what serializes
// Figure 12 at ~150 MB/s on the TILE-Gx. Float folds additionally pay the
// chip's floating-point cost (softfloat on the TILEPro).
func (pe *PE) chargeFold(k foldKind, n int64) {
	ns := pe.prog.chip.ReduceElemNs
	if k == foldFloat {
		ns += pe.prog.chip.FlopNs
	}
	pe.clock.Advance(vtime.FromNs(float64(n) * ns))
}

func reduceEnter[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) (int, uint32, error) {
	idx, tag, err := pe.collEnter(as)
	if err != nil {
		return 0, 0, err
	}
	if err := checkPSync(ps, ReduceSyncSize); err != nil {
		return 0, 0, err
	}
	if !pWrk.valid() {
		return 0, 0, fmt.Errorf("%w: pWrk required", ErrBounds)
	}
	min := nelems/2 + 1
	if min < ReduceMinWrkSize {
		min = ReduceMinWrkSize
	}
	if pWrk.Len() < min {
		return 0, 0, fmt.Errorf("%w: pWrk has %d elements, spec requires %d", ErrBounds, pWrk.Len(), min)
	}
	if nelems <= 0 || nelems > source.Len() || nelems > target.Len() {
		return 0, 0, fmt.Errorf("%w: reduce of %d elements (target %d, source %d)",
			ErrBounds, nelems, target.Len(), source.Len())
	}
	return idx, tag, nil
}

// reduceNaive: the root serially gets every member's source into private
// memory, folds, writes its target, and the members pull the result.
func reduceNaive[T Elem](pe *PE, target, source Ref[T], nelems int, fold func(a, b T) T, k foldKind, as ActiveSet) error {
	idx := mustIndex(as, pe.id)
	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	if idx == 0 {
		acc := make([]T, nelems)
		if err := GetSlice(pe, acc, source, pe.id); err != nil {
			return err
		}
		// The root's gather loop streams the whole active set's data
		// through its own cache; sustained bandwidth follows that working
		// set, which is what keeps the Figure 12 aggregate flat and low.
		nbytes := int64(nelems) * sizeOf[T]()
		ws := int64(as.Size) * nbytes
		extra := pe.prog.model.StreamCost(nbytes, ws, sharedMode) -
			pe.prog.model.CopyCost(nbytes, sharedMode, 1)
		buf := make([]T, nelems)
		for i := 1; i < as.Size; i++ {
			if err := GetSlice(pe, buf, source, as.PE(i)); err != nil {
				return err
			}
			if extra > 0 {
				pe.clock.Advance(extra)
			}
			for j := range acc {
				acc[j] = fold(acc[j], buf[j])
			}
			pe.chargeFold(k, int64(nelems))
			// Folding re-streams accumulator and operand.
			pe.clock.Advance(pe.prog.model.StreamCost(nbytes, ws, sharedMode))
		}
		if err := PutSlice(pe, target, acc, pe.id); err != nil {
			return err
		}
	}
	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	if idx != 0 {
		restore := pe.setHint(as.Size - 1)
		err := Get(pe, target, target, nelems, as.PE(0))
		restore()
		if err != nil {
			return err
		}
	}
	return pe.barrierUDN(as)
}

// rdRounds reports the number of exchange rounds recursive doubling needs
// for a power-of-two set of the given size.
func rdRounds(size int) int {
	r := 0
	for mask := 1; mask < size; mask <<= 1 {
		r++
	}
	return r
}

// rdWrkNeed reports the pWrk elements the recursive-doubling engine needs:
// one receive buffer per round, so a partner running ahead can deposit the
// next round's data without disturbing a buffer this PE has not folded yet.
func rdWrkNeed(nelems, size int) int { return nelems * rdRounds(size) }

// reduceRD: recursive doubling. In round j each PE exchanges its running
// result with the partner at set distance 2^j, writing into the partner's
// j-th pWrk buffer, then folds. After log2(size) rounds every PE holds the
// full reduction in target — no final broadcast needed.
func reduceRD[T Elem](pe *PE, target, source Ref[T], nelems int, fold func(a, b T) T, k foldKind, as ActiveSet, pWrk Ref[T], tag uint32) error {
	idx := mustIndex(as, pe.id)
	fab := pe.spansChips(as)
	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	// Seed target with the local contribution.
	if err := Put(pe, target, source, nelems, pe.id); err != nil {
		return err
	}
	round := 0
	for mask := 1; mask < as.Size; mask <<= 1 {
		partner := as.PE(idx ^ mask)
		buf := pWrk.Slice(round*nelems, (round+1)*nelems)
		restore := pe.setHint(2)
		err := Put(pe, buf, target, nelems, partner)
		restore()
		if err != nil {
			return err
		}
		pe.Quiet()
		if err := pe.sendSig(partner, tag^uint32(round+1), 1, fab); err != nil {
			return err
		}
		if _, _, _, err := pe.recvSig(tag^uint32(round+1), fab); err != nil {
			return err
		}
		mine, err := Local(pe, target)
		if err != nil {
			return err
		}
		theirs, err := Local(pe, buf)
		if err != nil {
			return err
		}
		for j := 0; j < nelems; j++ {
			mine[j] = fold(mine[j], theirs[j])
		}
		pe.chargeFold(k, int64(nelems))
		round++
	}
	return pe.barrierUDN(as)
}

func mustIndex(as ActiveSet, pe int) int {
	idx, ok := as.Index(pe)
	if !ok {
		panic(ErrNotInSet)
	}
	return idx
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// reduceDispatch picks the engine per Config.Reduce and feasibility.
func reduceDispatch[T Elem](pe *PE, target, source Ref[T], nelems int, fold func(a, b T) T, k foldKind, as ActiveSet, pWrk Ref[T], ps PSync) error {
	_, tag, err := reduceEnter(pe, target, source, nelems, as, pWrk, ps)
	if err != nil {
		return err
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpReduce, start, &pe.clock, int64(nelems)*sizeOf[T](), int(stats.NoPeer))
	if pe.prog.cfg.Reduce == RecursiveDoubling && isPow2(as.Size) &&
		pWrk.Len() >= rdWrkNeed(nelems, as.Size) && pWrk.kind != staticRef && target.kind != staticRef {
		return reduceRD(pe, target, source, nelems, fold, k, as, pWrk, tag)
	}
	return reduceNaive(pe, target, source, nelems, fold, k, as)
}

func kindOf[T Numeric]() foldKind {
	var z T
	switch any(z).(type) {
	case float32, float64:
		return foldFloat
	default:
		return foldInt
	}
}

// SumToAll performs an element-wise sum reduction across the active set
// (shmem_TYPE_sum_to_all).
func SumToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T { return a + b }, kindOf[T](), as, pWrk, ps)
}

// ProdToAll performs an element-wise product reduction
// (shmem_TYPE_prod_to_all).
func ProdToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T { return a * b }, kindOf[T](), as, pWrk, ps)
}

// MinToAll performs an element-wise minimum reduction
// (shmem_TYPE_min_to_all).
func MinToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T {
		if b < a {
			return b
		}
		return a
	}, kindOf[T](), as, pWrk, ps)
}

// MaxToAll performs an element-wise maximum reduction
// (shmem_TYPE_max_to_all).
func MaxToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T {
		if b > a {
			return b
		}
		return a
	}, kindOf[T](), as, pWrk, ps)
}

// AndToAll performs an element-wise bitwise-and reduction
// (shmem_TYPE_and_to_all).
func AndToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T { return a & b }, foldInt, as, pWrk, ps)
}

// OrToAll performs an element-wise bitwise-or reduction
// (shmem_TYPE_or_to_all).
func OrToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T { return a | b }, foldInt, as, pWrk, ps)
}

// XorToAll performs an element-wise bitwise-xor reduction
// (shmem_TYPE_xor_to_all).
func XorToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch(pe, target, source, nelems, func(a, b T) T { return a ^ b }, foldInt, as, pWrk, ps)
}

// SumToAllNaive forces the paper's naive engine regardless of
// configuration; the Figure 12 benchmark and the recursive-doubling
// ablation use it.
func SumToAllNaive[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	if _, _, err := reduceEnter(pe, target, source, nelems, as, pWrk, ps); err != nil {
		return err
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpReduce, start, &pe.clock, int64(nelems)*sizeOf[T](), int(stats.NoPeer))
	return reduceNaive(pe, target, source, nelems, func(a, b T) T { return a + b }, kindOf[T](), as)
}

// SumToAllRD forces the recursive-doubling engine (future-work ablation).
// The active set must be a power of two and pWrk must hold nelems dynamic
// elements.
func SumToAllRD[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	_, tag, err := reduceEnter(pe, target, source, nelems, as, pWrk, ps)
	if err != nil {
		return err
	}
	if !isPow2(as.Size) {
		return fmt.Errorf("%w: recursive doubling needs a power-of-two set, got %d", ErrBadActiveSet, as.Size)
	}
	if pWrk.Len() < rdWrkNeed(nelems, as.Size) || pWrk.kind == staticRef || target.kind == staticRef {
		return fmt.Errorf("%w: recursive doubling needs a dynamic pWrk of >= nelems*log2(size) elements and a dynamic target", ErrBounds)
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpReduce, start, &pe.clock, int64(nelems)*sizeOf[T](), int(stats.NoPeer))
	return reduceRD(pe, target, source, nelems, func(a, b T) T { return a + b }, kindOf[T](), as, pWrk, tag)
}
