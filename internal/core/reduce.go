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
// memory, folds, writes its target, and the members pull the result. Its
// phases are a barrier, the root's gather (reduceStep 0), a barrier, the
// members' pull (reduceStep 1), and a barrier.
func reduceNaive[T Elem, O foldOp[T]](pe *PE, target, source Ref[T], nelems int, k foldKind, as ActiveSet) error {
	r := pe.phase(as, mustIndex(as, pe.id), 2, reduceStep[T, O]{})
	r.dst, r.src, r.nelems, r.kind = Ref[byte](target), Ref[byte](source), nelems, k
	return pe.runPhases(r, target.kind == staticRef || source.kind == staticRef)
}

// reduceStep is reduceNaive's step r.k: the root's gather and fold, then the
// members' pull of the result.
type reduceStep[T Elem, O foldOp[T]] struct{}

func (reduceStep[T, O]) run(pe *PE, r *phaseRun) error {
	target, source, nelems, as := Ref[T](r.dst), Ref[T](r.src), r.nelems, r.w.as
	if r.k == 1 {
		if r.w.idx == 0 {
			return nil
		}
		restore := pe.setHint(as.Size - 1)
		err := Get(pe, target, target, nelems, as.PE(0))
		restore()
		return err
	}
	if r.w.idx != 0 {
		return nil
	}
	var op O
	acc, buf := reduceScratch[T](r, nelems)
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
	for i := 1; i < as.Size; i++ {
		if err := GetSlice(pe, buf, source, as.PE(i)); err != nil {
			return err
		}
		if extra > 0 {
			pe.clock.Advance(extra)
		}
		for j := range acc {
			acc[j] = op.fold(acc[j], buf[j])
		}
		pe.chargeFold(r.kind, int64(nelems))
		// Folding re-streams accumulator and operand.
		pe.clock.Advance(pe.prog.model.StreamCost(nbytes, ws, sharedMode))
	}
	return PutSlice(pe, target, acc, pe.id)
}

// reduceScratch returns two buffers of n elements each from r's scratch,
// which grows to the largest collective the member roots in a launch and
// goes with the launch: the naive reduction root's accumulator and operand,
// or Collect's root's sizes and offsets. Neither is cleared: the caller
// fills what it reads.
func reduceScratch[T Elem](r *phaseRun, n int) (acc, buf []T) {
	s, _ := r.scratch.([]T)
	if len(s) < 2*n {
		s = make([]T, 2*n)
		r.scratch = s
	}
	return s[:n:n], s[n : 2*n : 2*n]
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
func reduceRD[T Elem, O foldOp[T]](pe *PE, target, source Ref[T], nelems int, k foldKind, as ActiveSet, pWrk Ref[T], tag uint32) error {
	var op O
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
			mine[j] = op.fold(mine[j], theirs[j])
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
func reduceDispatch[T Elem, O foldOp[T]](pe *PE, target, source Ref[T], nelems int, k foldKind, as ActiveSet, pWrk Ref[T], ps PSync) error {
	_, tag, err := reduceEnter(pe, target, source, nelems, as, pWrk, ps)
	if err != nil {
		return err
	}
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpReduce, start, &pe.clock, int64(nelems)*sizeOf[T](), int(stats.NoPeer))
	if pe.prog.cfg.Reduce == RecursiveDoubling && isPow2(as.Size) &&
		pWrk.Len() >= rdWrkNeed(nelems, as.Size) && pWrk.kind != staticRef && target.kind != staticRef {
		return reduceRD[T, O](pe, target, source, nelems, k, as, pWrk, tag)
	}
	return reduceNaive[T, O](pe, target, source, nelems, k, as)
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

// foldOp is a reduction's element-wise operation. The operations are empty
// structs, not func values, so that the naive reduction's record holds one
// without allocating (phaseStep).
type foldOp[T any] interface {
	fold(a, b T) T
}

type (
	sumOp[T Numeric]  struct{}
	prodOp[T Numeric] struct{}
	minOp[T Numeric]  struct{}
	maxOp[T Numeric]  struct{}
	andOp[T Integer]  struct{}
	orOp[T Integer]   struct{}
	xorOp[T Integer]  struct{}
)

func (sumOp[T]) fold(a, b T) T  { return a + b }
func (prodOp[T]) fold(a, b T) T { return a * b }
func (andOp[T]) fold(a, b T) T  { return a & b }
func (orOp[T]) fold(a, b T) T   { return a | b }
func (xorOp[T]) fold(a, b T) T  { return a ^ b }

func (minOp[T]) fold(a, b T) T {
	if b < a {
		return b
	}
	return a
}

func (maxOp[T]) fold(a, b T) T {
	if b > a {
		return b
	}
	return a
}

// SumToAll performs an element-wise sum reduction across the active set
// (shmem_TYPE_sum_to_all).
func SumToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, sumOp[T]](pe, target, source, nelems, kindOf[T](), as, pWrk, ps)
}

// ProdToAll performs an element-wise product reduction
// (shmem_TYPE_prod_to_all).
func ProdToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, prodOp[T]](pe, target, source, nelems, kindOf[T](), as, pWrk, ps)
}

// MinToAll performs an element-wise minimum reduction
// (shmem_TYPE_min_to_all).
func MinToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, minOp[T]](pe, target, source, nelems, kindOf[T](), as, pWrk, ps)
}

// MaxToAll performs an element-wise maximum reduction
// (shmem_TYPE_max_to_all).
func MaxToAll[T Numeric](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, maxOp[T]](pe, target, source, nelems, kindOf[T](), as, pWrk, ps)
}

// AndToAll performs an element-wise bitwise-and reduction
// (shmem_TYPE_and_to_all).
func AndToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, andOp[T]](pe, target, source, nelems, foldInt, as, pWrk, ps)
}

// OrToAll performs an element-wise bitwise-or reduction
// (shmem_TYPE_or_to_all).
func OrToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, orOp[T]](pe, target, source, nelems, foldInt, as, pWrk, ps)
}

// XorToAll performs an element-wise bitwise-xor reduction
// (shmem_TYPE_xor_to_all).
func XorToAll[T Integer](pe *PE, target, source Ref[T], nelems int, as ActiveSet, pWrk Ref[T], ps PSync) error {
	return reduceDispatch[T, xorOp[T]](pe, target, source, nelems, foldInt, as, pWrk, ps)
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
	return reduceNaive[T, sumOp[T]](pe, target, source, nelems, kindOf[T](), as)
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
	return reduceRD[T, sumOp[T]](pe, target, source, nelems, kindOf[T](), as, pWrk, tag)
}
