package core

import (
	"errors"
	"fmt"

	"tshmem/internal/cache"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// Copy modes forwarded to the memory model.
const (
	sharedMode  = cache.SharedAny
	privateMode = cache.PrivateToPrivate
)

// Interrupt opcodes for static-variable redirection (S IV.B.2).
const (
	opPutFromShared uint64 = iota + 1 // copy common memory -> my static object
	opGetToShared                     // copy my static object -> common memory
)

// Interrupt reply status.
const (
	stOK uint64 = iota
	stErr
)

// operand is a resolved transfer endpoint. Callers own it and hand it down
// by pointer: it is nine words of which a transfer reads two or three, so
// returning or passing it by value costs more than the bounds test that
// fills it.
type operand struct {
	bytes  []byte // local view; nil for a static object on a remote PE
	shared bool   // lives in common memory (dynamic symmetric object)
	gOff   int64  // absolute common-memory offset when shared
	static bool
	sid    int32
	sOff   int64 // byte offset within the static object
	nbytes int64
}

// resolve locates nelems elements of r on PE onPE, as seen by pe, in *op,
// which the caller passes zeroed.
func resolve[T Elem](pe *PE, op *operand, r Ref[T], onPE, nelems int) error {
	nbytes := int64(nelems) * sizeOf[T]()
	// Nearly every call: a dynamic symmetric object inside the partition
	// is address arithmetic over common memory.
	if r.kind == dynamicRef && uint(nelems) <= uint(r.n) && r.off+nbytes <= pe.prog.partSize {
		end := r.off + nbytes
		op.bytes = pe.prog.parts[onPE][r.off:end:end]
		op.shared, op.gOff, op.nbytes = true, pe.prog.partBase[onPE]+r.off, nbytes
		return nil
	}
	if !r.valid() {
		return fmt.Errorf("%w: zero Ref", ErrBounds)
	}
	if nelems < 0 || nelems > r.n {
		return fmt.Errorf("%w: %d elements of a %d-element object", ErrBounds, nelems, r.n)
	}
	if r.kind == dynamicRef {
		return fmt.Errorf("%w: dynamic ref beyond partition", ErrBounds)
	}
	op.static, op.sid, op.sOff, op.nbytes = true, r.sid, r.off, nbytes
	if onPE == pe.id {
		b, err := pe.prog.statics.backing(r.sid, pe.id)
		if err != nil {
			return err
		}
		if r.off+nbytes > int64(len(b)) {
			return fmt.Errorf("%w: static ref beyond object", ErrBounds)
		}
		op.bytes = b[r.off : r.off+nbytes]
	}
	return nil
}

// chargeXfer is a transfer's modeled core: it advances the clock by the
// on-chip cost of copying nbytes in mode, under the current concurrency
// hint and the configured homing, and returns that cost. The memo's hit
// path (cache.Memo.Lookup) inlines here; a miss computes the cost and
// stores it. Whatever else a transfer is charged or reports — a fault
// plan's stretch, the mPIPE wire across chips, the recorder, profiler and
// link counters — belongs to its op's tail (observe.go), which the op runs
// when pe.tailed says so.
func (pe *PE) chargeXfer(nbytes int64, mode cache.Mode) vtime.Duration {
	p := pe.prog
	h, streams := p.cfg.Homing, pe.curHint()
	base, ok := p.memo.Lookup(nbytes, mode, h, streams)
	if !ok {
		base = p.memo.CopyCostHomed(p.model, nbytes, mode, h, streams)
	}
	pe.clock.Advance(base)
	return base
}

// tailed reports whether an op between this PE and peer runs its tail: an
// observer or a fault plan is on (pe.observed), or the op crosses chips,
// whose mPIPE leg the tail charges.
func (pe *PE) tailed(peer int) bool { return pe.observed || !pe.prog.sameChip(pe.id, peer) }

// chargedCopy copies src into dst within this PE's own tile — the scratch
// bounce of a static-static transfer — and charges it, tail included.
func (pe *PE) chargedCopy(dst, src []byte) {
	copy(dst, src)
	t0 := pe.clock.Now()
	base := pe.chargeXfer(int64(len(src)), sharedMode)
	if pe.observed {
		pe.xferObserved(t0, base, int64(len(src)), pe.id, false)
	}
}

// Put copies nelems elements from the calling PE's instance of source into
// target on PE tpe (shmem_putmem and the typed block puts). Puts return
// when the local side of the transfer is complete; remote visibility is
// guaranteed by Quiet, Fence, or a barrier.
func Put[T Elem](pe *PE, target Ref[T], source Ref[T], nelems, tpe int) error {
	var src operand
	if err := resolve(pe, &src, source, pe.id, nelems); err != nil {
		return err
	}
	if err := putResolved(pe, target, &src, nelems, tpe); err != nil {
		return err
	}
	if pe.observed {
		putSourceObserved(pe, source, src.nbytes)
	}
	return nil
}

// PutSlice is Put with a private local Go slice as the source ("any source
// variable may be used, symmetric or otherwise", S IV.B.2).
func PutSlice[T Elem](pe *PE, target Ref[T], source []T, tpe int) error {
	src := operand{bytes: bytesOf(source), nbytes: int64(len(source)) * sizeOf[T]()}
	return putResolved(pe, target, &src, len(source), tpe)
}

func putResolved[T Elem](pe *PE, target Ref[T], src *operand, nelems, tpe int) error {
	if err := pe.check(); err != nil {
		return err
	}
	if err := pe.checkPE(tpe); err != nil {
		return err
	}
	var dst operand
	if err := resolve(pe, &dst, target, tpe, nelems); err != nil {
		return err
	}
	pe.stats.Puts++
	pe.stats.PutBytes += src.nbytes
	start := pe.clock.Now()

	mode := sharedMode
	switch {
	case tpe == pe.id:
		if !dst.shared && !src.shared {
			mode = privateMode
		}
	case !dst.shared:
		if pe.observed {
			return putStaticObserved(pe, target, &dst, src, tpe, start)
		}
		return pe.putStatic(&dst, src, tpe)
	}
	// The local tile writes its own instance, or a remote partition directly
	// through common memory (across chips, over mPIPE).
	copy(dst.bytes, src.bytes)
	base := pe.chargeXfer(src.nbytes, mode)
	if pe.tailed(tpe) {
		putObserved(pe, target, start, base, src.nbytes, tpe)
	}
	return nil
}

// putStatic is the tail of a put whose target is a static object on a
// remote tile: redirect over a UDN interrupt (S IV.B.2). It is its own
// function so that its deferred call is not paid by every put.
func (pe *PE) putStatic(dst, src *operand, tpe int) error {
	if !pe.prog.chip.UDNInterrupts {
		return fmt.Errorf("%w: static symmetric put on %s", ErrNotSupported, pe.prog.chip.Name)
	}
	if !pe.prog.sameChip(pe.id, tpe) {
		return fmt.Errorf("%w: static symmetric transfers do not cross chips (UDN interrupts are chip-local)", ErrNotSupported)
	}
	if src.shared {
		// The remote tile can read the dynamic source itself.
		return pe.redirect(tpe, opPutFromShared, dst.sid, dst.sOff, src.gOff, src.nbytes)
	}
	// Static-static (or private source): bounce through a temporary
	// common-memory buffer — the extra copy is the paper's "major
	// performance penalty" case.
	g, err := pe.prog.scratchGet(src.nbytes)
	if err != nil {
		return err
	}
	defer pe.prog.scratchPut(g)
	tmp, err := pe.prog.shell.cm.Slice(g, src.nbytes)
	if err != nil {
		return err
	}
	pe.chargedCopy(tmp, src.bytes)
	return pe.redirect(tpe, opPutFromShared, dst.sid, dst.sOff, g, src.nbytes)
}

// Get copies nelems elements of source on PE spe into the calling PE's
// instance of target (shmem_getmem and the typed block gets). Gets block
// until the data is locally visible.
func Get[T Elem](pe *PE, target Ref[T], source Ref[T], nelems, spe int) error {
	if err := pe.check(); err != nil {
		return err
	}
	var dst operand
	if err := resolve(pe, &dst, target, pe.id, nelems); err != nil {
		return err
	}
	if err := getResolved(pe, &dst, source, nelems, spe); err != nil {
		return err
	}
	if pe.observed {
		getTargetObserved(pe, target, dst.nbytes)
	}
	return nil
}

// GetSlice is Get with a private local Go slice as the target.
func GetSlice[T Elem](pe *PE, target []T, source Ref[T], spe int) error {
	if err := pe.check(); err != nil {
		return err
	}
	dst := operand{bytes: bytesOf(target), nbytes: int64(len(target)) * sizeOf[T]()}
	return getResolved(pe, &dst, source, len(target), spe)
}

func getResolved[T Elem](pe *PE, dst *operand, source Ref[T], nelems, spe int) error {
	if err := pe.checkPE(spe); err != nil {
		return err
	}
	var src operand
	if err := resolve(pe, &src, source, spe, nelems); err != nil {
		return err
	}
	pe.stats.Gets++
	pe.stats.GetBytes += src.nbytes
	start := pe.clock.Now()

	mode := sharedMode
	switch {
	case spe == pe.id:
		if !dst.shared && !src.shared {
			mode = privateMode
		}
	case !src.shared:
		if pe.observed {
			return getStaticObserved(pe, source, dst, &src, spe, start)
		}
		return pe.getStatic(dst, &src, spe)
	}
	// The local instance, or a dynamic source read directly through common
	// memory (across chips, over mPIPE).
	copy(dst.bytes, src.bytes)
	base := pe.chargeXfer(src.nbytes, mode)
	if pe.tailed(spe) {
		getObserved(pe, source, start, base, src.nbytes, spe)
	}
	return nil
}

// getStatic is the tail of a get whose source is a static object on a
// remote tile, split out for the same reason as putStatic.
func (pe *PE) getStatic(dst, src *operand, spe int) error {
	if !pe.prog.chip.UDNInterrupts {
		return fmt.Errorf("%w: static symmetric get on %s", ErrNotSupported, pe.prog.chip.Name)
	}
	if !pe.prog.sameChip(pe.id, spe) {
		return fmt.Errorf("%w: static symmetric transfers do not cross chips (UDN interrupts are chip-local)", ErrNotSupported)
	}
	if dst.shared {
		// The remote tile puts into our dynamic target instead
		// (S IV.B.2's example).
		return pe.redirect(spe, opGetToShared, src.sid, src.sOff, dst.gOff, src.nbytes)
	}
	// Static-static: bounce through a temporary shared buffer.
	g, err := pe.prog.scratchGet(src.nbytes)
	if err != nil {
		return err
	}
	defer pe.prog.scratchPut(g)
	if err := pe.redirect(spe, opGetToShared, src.sid, src.sOff, g, src.nbytes); err != nil {
		return err
	}
	tmp, err := pe.prog.shell.cm.Slice(g, src.nbytes)
	if err != nil {
		return err
	}
	pe.chargedCopy(dst.bytes, tmp)
	return nil
}

// redirect raises the UDN interrupt asking PE target to service a transfer
// between its static object sid and common memory (S IV.B.2).
func (pe *PE) redirect(target int, op uint64, sid int32, sOff, gOff, nbytes int64) error {
	pe.stats.Redirects++
	start := pe.clock.Now()
	rep, err := pe.port.Interrupt(&pe.clock, pe.prog.localIdx(target), uint32(op),
		[]uint64{op, uint64(sid), uint64(sOff), uint64(gOff), uint64(nbytes)})
	if err != nil {
		if errors.Is(err, udn.ErrTimeout) {
			return pe.timeoutAt("redirect", target, start, start.Add(pe.prog.waitBudget))
		}
		return err
	}
	if rep.Len() == 0 || rep.Word(0) != stOK {
		return fmt.Errorf("%w: remote PE %d could not service redirected transfer", ErrUnknownStatic, target)
	}
	return nil
}

// serviceInterrupt runs on this PE's tile in interrupt context — inline on
// the requesting PE, which holds the baton while this PE is
// parked or ready: the tile is forced to service an operation the
// requesting tile could not perform itself. It must not touch pe.clock (a
// ready PE's clock is its key in the calendar's heap) or pe.stats — the
// requester carries the timing through the interrupt reply.
func (pe *PE) serviceInterrupt(req udn.Packet) ([]uint64, vtime.Duration) {
	if req.Len() != 5 {
		return []uint64{stErr}, 0
	}
	op, sid := req.Word(0), int32(req.Word(1))
	sOff, gOff, nbytes := int64(req.Word(2)), int64(req.Word(3)), int64(req.Word(4))

	backing, err := pe.prog.statics.backing(sid, pe.id)
	if err != nil || sOff+nbytes > int64(len(backing)) {
		return []uint64{stErr}, 0
	}
	shared, err := pe.prog.shell.cm.Slice(gOff, nbytes)
	if err != nil {
		return []uint64{stErr}, 0
	}
	switch op {
	case opPutFromShared:
		copy(backing[sOff:sOff+nbytes], shared)
	case opGetToShared:
		copy(shared, backing[sOff:sOff+nbytes])
	default:
		return []uint64{stErr}, 0
	}
	return []uint64{stOK}, pe.prog.model.CopyCost(nbytes, sharedMode, 1)
}

// wordOn reports whether element 0 of r on PE onPE is a word (or narrower)
// of common memory the calling PE may load and store directly: a live PE, a
// valid rank, a dynamic object with an element inside the partition. It is
// the whole address resolution of the elemental and atomic operations; a
// false sends the caller down the path that names the failed condition or
// moves the element as a block.
func wordOn[T Elem](pe *PE, r Ref[T], onPE int) bool {
	return !pe.finalized && uint(onPE) < uint(pe.n) &&
		r.kind == dynamicRef && r.n >= 1 &&
		sizeOf[T]() <= 8 && r.off+sizeOf[T]() <= pe.prog.partSize
}

// P is the elemental put (shmem_TYPE_p): store one value into element 0 of
// target on PE tpe. For dynamic targets of machine word width the store and
// its visibility stamp are indivisible because the caller holds the baton,
// and the store wakes Wait/WaitUntil on the target PE.
func P[T Elem](pe *PE, target Ref[T], value T, tpe int) error {
	es := sizeOf[T]()
	if !wordOn(pe, target, tpe) {
		// Static targets and 16-byte elements take the block-put path,
		// which also reports a finalized PE, a bad rank and a bad Ref.
		src := operand{bytes: bytesOf([]T{value}), nbytes: es}
		return putResolved(pe, target, &src, 1, tpe)
	}
	pe.stats.Puts++
	pe.stats.PutBytes += es
	start := pe.clock.Now()
	w := wordAt[T](pe.partBytes(tpe), target.off)
	base := pe.chargeXfer(es, sharedMode)
	if pe.tailed(tpe) {
		pe.putElemObserved(start, base, es, target.off, tpe)
	}
	*w = value
	pe.prog.hubs[tpe].publish(target.off, pe.clock.Now(), pe.id)
	return nil
}

// G is the elemental get (shmem_TYPE_g): load element 0 of source from PE
// spe.
func G[T Elem](pe *PE, source Ref[T], spe int) (T, error) {
	es := sizeOf[T]()
	if !wordOn(pe, source, spe) {
		// As in P: the block-get path moves what is not a word and reports
		// what is not valid.
		var out [1]T
		if err := GetSlice(pe, out[:], source, spe); err != nil {
			var zero T
			return zero, err
		}
		return out[0], nil
	}
	pe.stats.Gets++
	pe.stats.GetBytes += es
	start := pe.clock.Now()
	w := wordAt[T](pe.partBytes(spe), source.off)
	base := pe.chargeXfer(es, sharedMode)
	if pe.tailed(spe) {
		pe.getElemObserved(start, base, es, source.off, spe)
	}
	return *w, nil
}

// IPut is the strided put (shmem_TYPE_iput): nelems elements are copied
// from source with stride sst (in elements) into target with stride tst on
// PE tpe. Strided transfers involving remote static objects are among the
// operations the paper lists as not yet supporting statics.
func IPut[T Elem](pe *PE, target, source Ref[T], tst, sst int64, nelems, tpe int) error {
	if err := stridedCheck(pe, target, source, tst, sst, nelems, tpe); err != nil {
		return err
	}
	srcView, err := Local(pe, source)
	if err != nil {
		return err
	}
	dstView, err := viewOn(pe, target, tpe, int(int64(nelems-1)*tst+1))
	if err != nil {
		return err
	}
	for i := 0; i < nelems; i++ {
		dstView[int64(i)*tst] = srcView[int64(i)*sst]
	}
	pe.stats.Puts++
	nb := int64(nelems) * sizeOf[T]()
	pe.stats.PutBytes += nb
	start := pe.clock.Now()
	// Like Put, a self-transfer between two static (non-common-memory)
	// objects is a private copy; only common-memory traffic pays the
	// shared-mode cost.
	mode := sharedMode
	if tpe == pe.id && target.kind == staticRef && source.kind == staticRef {
		mode = privateMode
	}
	base := pe.chargeXfer(nb, mode)
	stride := pe.prog.chip.Cycles(2 * nelems) // per-element stride arithmetic
	if pe.tailed(tpe) {
		iputObserved(pe, target, source, tst, sst, nelems, tpe, start, base, stride)
		return nil
	}
	pe.clock.Advance(stride)
	return nil
}

// IGet is the strided get (shmem_TYPE_iget).
func IGet[T Elem](pe *PE, target, source Ref[T], tst, sst int64, nelems, spe int) error {
	if err := stridedCheck(pe, source, target, sst, tst, nelems, spe); err != nil {
		return err
	}
	srcView, err := viewOn(pe, source, spe, int(int64(nelems-1)*sst+1))
	if err != nil {
		return err
	}
	dstView, err := Local(pe, target)
	if err != nil {
		return err
	}
	for i := 0; i < nelems; i++ {
		dstView[int64(i)*tst] = srcView[int64(i)*sst]
	}
	pe.stats.Gets++
	nb := int64(nelems) * sizeOf[T]()
	pe.stats.GetBytes += nb
	start := pe.clock.Now()
	mode := sharedMode
	if spe == pe.id && target.kind == staticRef && source.kind == staticRef {
		mode = privateMode
	}
	base := pe.chargeXfer(nb, mode)
	stride := pe.prog.chip.Cycles(2 * nelems)
	if pe.tailed(spe) {
		igetObserved(pe, target, source, tst, sst, nelems, spe, start, base, stride)
		return nil
	}
	pe.clock.Advance(stride)
	return nil
}

// viewOn returns a typed view of span elements of r's instance on PE onPE.
// Remote instances must be dynamic (common memory); the local instance may
// also be static.
func viewOn[T Elem](pe *PE, r Ref[T], onPE, span int) ([]T, error) {
	switch {
	case r.kind == dynamicRef:
		var op operand
		if err := resolve(pe, &op, r, onPE, r.n); err != nil {
			return nil, err
		}
		return sliceAt[T](op.bytes, 0, span), nil
	case onPE == pe.id:
		return Local(pe, r)
	default:
		return nil, fmt.Errorf("%w: remote static view", ErrNotSupported)
	}
}

// stridedCheck validates a strided transfer where remote is the Ref living
// on PE rpe and local the Ref on the calling PE.
func stridedCheck[T Elem](pe *PE, remote, local Ref[T], rst, lst int64, nelems, rpe int) error {
	if err := pe.check(); err != nil {
		return err
	}
	if err := pe.checkPE(rpe); err != nil {
		return err
	}
	if nelems <= 0 {
		return fmt.Errorf("%w: %d elements", ErrBounds, nelems)
	}
	if rst < 1 || lst < 1 {
		return fmt.Errorf("%w: strides must be >= 1 (got %d, %d)", ErrBounds, rst, lst)
	}
	if !remote.valid() || !local.valid() {
		return fmt.Errorf("%w: zero Ref", ErrBounds)
	}
	if remote.kind == staticRef && rpe != pe.id {
		return fmt.Errorf("%w: strided transfers to/from remote static objects", ErrNotSupported)
	}
	// Local statics are fine (local access); either kind only needs the
	// strided span to stay within the object.
	if int64(nelems-1)*lst+1 > int64(local.n) {
		return fmt.Errorf("%w: strided local span exceeds object", ErrBounds)
	}
	if int64(nelems-1)*rst+1 > int64(remote.n) {
		return fmt.Errorf("%w: strided remote span exceeds object", ErrBounds)
	}
	return nil
}
