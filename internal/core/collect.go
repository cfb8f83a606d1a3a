package core

import (
	"fmt"
	"math"

	"tshmem/internal/stats"
)

// mulElems computes nelems*size for a concatenating collective, guarding
// against int overflow (the product feeds slice bounds). size is at least
// 1 (ActiveSet.validate).
func mulElems(nelems, size int) (int, error) {
	if nelems > 0 && nelems > math.MaxInt/size {
		return 0, fmt.Errorf("%w: %d x %d elements overflows", ErrBounds, nelems, size)
	}
	return nelems * size, nil
}

// FCollect concatenates the same-sized source array from every active-set
// PE, in set order, into target on all of them (shmem_fcollect32/64).
//
// The design follows S IV.D.2: stage 1, all PEs put their array to the
// root (the first PE of the active set); stage 2, a pull-based broadcast
// distributes the concatenated result. Stage 1 scales linearly in total
// data with the number of tiles; stage 2 scales quadratically, which is
// what shifts the Figure 11 performance peaks toward smaller sizes as
// tiles increase.
func FCollect[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, ps PSync) error {
	idx, _, err := pe.collEnter(as)
	if err != nil {
		return err
	}
	if err := checkPSync(ps, CollectSyncSize); err != nil {
		return err
	}
	if nelems < 0 || nelems > source.Len() {
		return fmt.Errorf("%w: fcollect of %d elements (source %d)", ErrBounds, nelems, source.Len())
	}
	total, err := mulElems(nelems, as.Size)
	if err != nil {
		return err
	}
	if total > target.Len() {
		return fmt.Errorf("%w: fcollect %d x %d elements into %d-element target",
			ErrBounds, nelems, as.Size, target.Len())
	}
	rootPE := as.PE(0)
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpCollect, start, &pe.clock, int64(nelems)*sizeOf[T](), rootPE)

	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	// Stage 1: everyone (including the root, locally) deposits its slice at
	// its set-order offset in the root's target.
	restore := pe.setHint(as.Size)
	err = Put(pe, target.Slice(idx*nelems, (idx+1)*nelems), source.Slice(0, nelems), nelems, rootPE)
	restore()
	if err != nil {
		return err
	}
	if err := pe.barrierUDN(as); err != nil { // root's target is complete
		return err
	}
	// Stage 2: pull-based broadcast of the concatenated result. Like
	// Collect, an empty concatenation has nothing to pull.
	if idx != 0 && total > 0 {
		restore := pe.setHint(as.Size - 1)
		err = Get(pe, target.Slice(0, total), target.Slice(0, total), total, rootPE)
		restore()
		if err != nil {
			return err
		}
	}
	return pe.barrierUDN(as)
}

// Collect is the general collection (shmem_collect32/64): each PE may
// contribute a different number of elements. PEs report their sizes to the
// root over the UDN; the root computes each contributor's offset and
// replies with it together with the eventual total, after which the data
// path is the same put-then-pull-broadcast as FCollect.
func Collect[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, ps PSync) error {
	idx, tag, err := pe.collEnter(as)
	if err != nil {
		return err
	}
	if err := checkPSync(ps, CollectSyncSize); err != nil {
		return err
	}
	if nelems < 0 || nelems > source.Len() {
		return fmt.Errorf("%w: collect of %d elements (source %d)", ErrBounds, nelems, source.Len())
	}
	rootPE := as.PE(0)
	fab := pe.spansChips(as)
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpCollect, start, &pe.clock, int64(nelems)*sizeOf[T](), rootPE)
	if err := pe.barrierUDN(as); err != nil {
		return err
	}

	var offset, total int
	if idx == 0 {
		// Gather sizes; assign offsets in set order.
		sizes := make([]int, as.Size)
		sizes[0] = nelems
		for i := 1; i < as.Size; i++ {
			src, words, nw, err := pe.recvSig(tag, fab)
			if err != nil {
				return err
			}
			who, ok := as.Index(src)
			if !ok || who == 0 {
				return fmt.Errorf("%w: stray size report from PE %d", ErrBadActiveSet, src)
			}
			if nw < 1 {
				return fmt.Errorf("%w: size report from PE %d carried no payload", ErrBadActiveSet, src)
			}
			sz := int(words[0])
			if sz < 0 {
				return fmt.Errorf("%w: size report from PE %d is negative", ErrBadActiveSet, src)
			}
			sizes[who] = sz
		}
		offs := make([]int, as.Size)
		for i := 1; i < as.Size; i++ {
			offs[i] = offs[i-1] + sizes[i-1]
		}
		total = offs[as.Size-1] + sizes[as.Size-1]
		offset = 0
		for i := 1; i < as.Size; i++ {
			if err := pe.sendSigWords(as.PE(i), tag, []uint64{uint64(offs[i]), uint64(total)}, fab); err != nil {
				return err
			}
		}
	} else {
		if err := pe.sendSig(rootPE, tag, uint64(nelems), fab); err != nil {
			return err
		}
		src, words, nw, err := pe.recvSig(tag, fab)
		if err != nil {
			return err
		}
		if src != rootPE || nw < 2 {
			return fmt.Errorf("%w: offset reply carried %d words from PE %d, want 2 from root PE %d",
				ErrBadActiveSet, nw, src, rootPE)
		}
		offset, total = int(words[0]), int(words[1])
		if offset < 0 || total < 0 {
			return fmt.Errorf("%w: offset reply from root PE %d is negative", ErrBadActiveSet, rootPE)
		}
	}
	if total > target.Len() {
		return fmt.Errorf("%w: collect total %d exceeds %d-element target", ErrBounds, total, target.Len())
	}

	// Stage 1: deposit at the assigned offset on the root.
	if nelems > 0 {
		restore := pe.setHint(as.Size)
		err = Put(pe, target.Slice(offset, offset+nelems), source.Slice(0, nelems), nelems, rootPE)
		restore()
		if err != nil {
			return err
		}
	}
	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	// Stage 2: pull-based broadcast of the concatenation.
	if idx != 0 && total > 0 {
		restore := pe.setHint(as.Size - 1)
		err = Get(pe, target.Slice(0, total), target.Slice(0, total), total, rootPE)
		restore()
		if err != nil {
			return err
		}
	}
	return pe.barrierUDN(as)
}

// FCollectRD is a recursive-doubling allgather, the future-work style
// alternative to the naive FCollect: in round j each PE exchanges its
// accumulated 2^j-block region with the partner at set distance 2^j,
// writing directly into the partner's target at the same offsets (the
// regions are disjoint, so no scratch space is needed). After log2(size)
// rounds every PE holds the full concatenation. Requires a power-of-two
// active set and a dynamic target.
func FCollectRD[T Elem](pe *PE, target, source Ref[T], nelems int, as ActiveSet, ps PSync) error {
	idx, tag, err := pe.collEnter(as)
	if err != nil {
		return err
	}
	if err := checkPSync(ps, CollectSyncSize); err != nil {
		return err
	}
	if !isPow2(as.Size) {
		return fmt.Errorf("%w: recursive-doubling fcollect needs a power-of-two set, got %d",
			ErrBadActiveSet, as.Size)
	}
	if nelems < 0 || nelems > source.Len() {
		return fmt.Errorf("%w: fcollect of %d elements (source %d)", ErrBounds, nelems, source.Len())
	}
	total, err := mulElems(nelems, as.Size)
	if err != nil {
		return err
	}
	if total > target.Len() {
		return fmt.Errorf("%w: fcollect %d x %d elements into %d-element target",
			ErrBounds, nelems, as.Size, target.Len())
	}
	if target.kind == staticRef {
		return fmt.Errorf("%w: recursive-doubling fcollect needs a dynamic target", ErrStatic)
	}
	fab := pe.spansChips(as)
	start := pe.clock.Now()
	defer pe.rec.OpDone(stats.OpCollect, start, &pe.clock, int64(nelems)*sizeOf[T](), int(stats.NoPeer))
	if err := pe.barrierUDN(as); err != nil {
		return err
	}
	// Seed my own block at my set-order position.
	if err := Put(pe, target.Slice(idx*nelems, (idx+1)*nelems), source.Slice(0, nelems), nelems, pe.id); err != nil {
		return err
	}
	round := 0
	for mask := 1; mask < as.Size; mask <<= 1 {
		partner := as.PE(idx ^ mask)
		// My accumulated region covers the mask-aligned group of blocks I
		// currently hold; the partner holds the sibling group.
		base := idx &^ (mask - 1)
		region := target.Slice(base*nelems, (base+mask)*nelems)
		restore := pe.setHint(2)
		err := Put(pe, region, region, mask*nelems, partner)
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
		round++
	}
	return pe.barrierUDN(as)
}
