package core

import (
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// Observer tails. Every data-path op (rma.go, atomic.go) is a modeled core —
// the bounds test, the copy or the load/store, the cost lookup, the clock
// advance, the hub publish, the legacy pe.stats counts — and one tail per
// op shape, here. A tail is the only code on those paths that touches
// pe.rec, pe.prof, pe.san, the run's link counters or its fault plan; it
// calls the hooks the op always called, in the order it called them, with
// the times the core captured. The core runs its tail when pe.observed (an
// observer or a fault plan is on) or, for a transfer, when the transfer
// crosses chips (pe.tailed): the mPIPE leg and a fault plan's stretch are
// modeled charges, and they are the tail's because no unobserved,
// unfaulted single-chip run needs them. Such a run pays one branch per op
// for its observers instead of a call into each nil one.

// sanSID maps a Ref to the sanitizer's region namespace: the static object
// id, or DynamicSID for the symmetric heap.
func sanSID[T Elem](r Ref[T]) int32 {
	if r.kind == staticRef {
		return r.sid
	}
	return sanitize.DynamicSID
}

// xferObserved is the tail of a charged transfer of nbytes between this PE
// and remotePE, run where chargeXfer left the clock: at t0 plus the on-chip
// cost base. It accounts the copy by the cache level backing it, stretches
// it by the fault plan, charges the mPIPE wire across chips, and accounts
// the transfer on the recorder and, within a chip, on the link counters.
// toRemote is the data's direction (true for put-like transfers toward
// remotePE); it orients the modeled iMesh route.
func (pe *PE) xferObserved(t0 vtime.Time, base vtime.Duration, nbytes int64, remotePE int, toRemote bool) {
	p := pe.prog
	level := stats.CacheLevel(p.model.LevelFor(nbytes))
	if nbytes > 0 {
		pe.rec.CacheCopy(level, int(nbytes), base)
	}
	pe.prof.Advance(profile.RMA(level), t0, pe.clock.Now())
	// Fault injection: slow tiles and stuck cache-home tiles stretch the
	// copy in proportion to how much of it they serve (nil-safe no-op when
	// faults are off).
	if extra, id := p.flt.CopyExtra(pe.id, p.cfg.Homing, p.chip.Tiles, t0, base); extra > 0 {
		tf := pe.clock.Now()
		pe.clock.Advance(extra)
		pe.prof.Advance(profile.CatFault, tf, pe.clock.Now())
		pe.rec.FaultDelay(id, remotePE, t0, extra)
	}
	loc := pe.locality(remotePE)
	if loc == stats.CrossChip {
		// Store-and-forward through mPIPE: the data still traverses the
		// local memory system (charged by the core), then rides the wire.
		tm := pe.clock.Now()
		p.fabric.ChargeData(&pe.clock, pe.id, remotePE, nbytes)
		pe.prof.Advance(profile.CatMesh, tm, pe.clock.Now())
	}
	pe.rec.RMA(loc, int(nbytes), pe.clock.Now().Sub(t0))
	if loc == stats.SameChip && p.links != nil {
		pe.routeXfer(nbytes, remotePE, toRemote)
	}
}

// routeXfer charges a same-chip RMA transfer onto the iMesh link counters:
// the data crosses the mesh between the two tiles even though it moves
// through the cache system rather than as UDN packets. Cross-chip traffic
// rides mPIPE, not the mesh, and self-transfers stay on-tile, so the caller
// has established that remotePE is another tile of this PE's chip and that
// the run keeps link counters.
func (pe *PE) routeXfer(nbytes int64, remotePE int, toRemote bool) {
	wb := int64(pe.prog.chip.WordBytes)
	words := int((nbytes + wb - 1) / wb)
	from, to := pe.prog.localIdx(pe.id), pe.prog.localIdx(remotePE)
	if !toRemote {
		from, to = to, from
	}
	pe.prog.links[pe.prog.chipOf(pe.id)].RecordRoute(from, to, words)
}

// putObserved is putResolved's tail for a target on this PE or in common
// memory: the write checked, the transfer's tail, the put recorded.
func putObserved[T Elem](pe *PE, target Ref[T], start vtime.Time, base vtime.Duration, nbytes int64, tpe int) {
	pe.san.Write("Put", tpe, sanSID(target), target.off, nbytes, start)
	pe.xferObserved(start, base, nbytes, tpe, true)
	pe.rec.OpDone(stats.OpPut, start, &pe.clock, nbytes, tpe)
}

// putStaticObserved is putStatic with its tail around it: the write is
// checked before the redirect, and the put recorded on every way out.
func putStaticObserved[T Elem](pe *PE, target Ref[T], dst, src *operand, tpe int, start vtime.Time) error {
	pe.san.Write("Put", tpe, sanSID(target), target.off, src.nbytes, start)
	defer pe.rec.OpDone(stats.OpPut, start, &pe.clock, src.nbytes, tpe)
	return pe.putStatic(dst, src, tpe)
}

// putSourceObserved is Put's tail: the symmetric source was read.
func putSourceObserved[T Elem](pe *PE, source Ref[T], nbytes int64) {
	pe.san.Read("Put(src)", pe.id, sanSID(source), source.off, nbytes, pe.clock.Now())
}

// getObserved is getResolved's tail for a source on this PE or in common
// memory: the read checked, the transfer's tail, the get recorded.
func getObserved[T Elem](pe *PE, source Ref[T], start vtime.Time, base vtime.Duration, nbytes int64, spe int) {
	pe.san.Read("Get", spe, sanSID(source), source.off, nbytes, start)
	pe.xferObserved(start, base, nbytes, spe, false)
	pe.rec.OpDone(stats.OpGet, start, &pe.clock, nbytes, spe)
}

// getStaticObserved is getStatic with its tail around it, as
// putStaticObserved is putStatic's.
func getStaticObserved[T Elem](pe *PE, source Ref[T], dst, src *operand, spe int, start vtime.Time) error {
	pe.san.Read("Get", spe, sanSID(source), source.off, src.nbytes, start)
	defer pe.rec.OpDone(stats.OpGet, start, &pe.clock, src.nbytes, spe)
	return pe.getStatic(dst, src, spe)
}

// getTargetObserved is Get's tail: the symmetric target was written.
func getTargetObserved[T Elem](pe *PE, target Ref[T], nbytes int64) {
	pe.san.Write("Get(dst)", pe.id, sanSID(target), target.off, nbytes, pe.clock.Now())
}

// putElemObserved is P's tail. P runs it before the store is published, so
// the stamp waiters merge with includes the fault stretch and the wire.
func (pe *PE) putElemObserved(start vtime.Time, base vtime.Duration, es, off int64, tpe int) {
	pe.san.Signal(tpe, off, es, start)
	pe.xferObserved(start, base, es, tpe, true)
	pe.rec.OpDone(stats.OpPut, start, &pe.clock, es, tpe)
}

// getElemObserved is G's tail.
func (pe *PE) getElemObserved(start vtime.Time, base vtime.Duration, es, off int64, spe int) {
	pe.xferObserved(start, base, es, spe, false)
	pe.san.ReadElem(spe, off, es, start)
	pe.rec.OpDone(stats.OpGet, start, &pe.clock, es, spe)
}

// iputObserved is IPut's tail. The stride arithmetic follows the
// transfer's tail in virtual time, so the tail charges it too.
func iputObserved[T Elem](pe *PE, target, source Ref[T], tst, sst int64, nelems, tpe int,
	start vtime.Time, base, stride vtime.Duration) {
	es := sizeOf[T]()
	nb := int64(nelems) * es
	pe.san.WriteStrided("IPut", tpe, sanSID(target), target.off, tst*es, nelems, es, start)
	pe.san.ReadStrided("IPut(src)", pe.id, sanSID(source), source.off, sst*es, nelems, es, start)
	pe.xferObserved(start, base, nb, tpe, true)
	pe.clock.Advance(stride)
	pe.rec.OpDone(stats.OpPut, start, &pe.clock, nb, tpe)
}

// igetObserved is IGet's tail, as iputObserved is IPut's.
func igetObserved[T Elem](pe *PE, target, source Ref[T], tst, sst int64, nelems, spe int,
	start vtime.Time, base, stride vtime.Duration) {
	es := sizeOf[T]()
	nb := int64(nelems) * es
	pe.san.ReadStrided("IGet", spe, sanSID(source), source.off, sst*es, nelems, es, start)
	pe.san.WriteStrided("IGet(dst)", pe.id, sanSID(target), target.off, tst*es, nelems, es, start)
	pe.xferObserved(start, base, nb, spe, false)
	pe.clock.Advance(stride)
	pe.rec.OpDone(stats.OpGet, start, &pe.clock, nb, spe)
}

// atomicObserved is the tail of a fetch-op of es bytes on the word at off
// on PE tpe that began at start. Atomics on one word mutually order the PEs
// touching it (the fetch-op serializes at the line's home tile), so the
// sanitizer merges clocks both ways with the word — again once stored, so
// the word's clock carries this operation, not only what preceded it. The
// emulation of a fetch-op on a chip without native RMW is surfaced in the
// counters.
func (pe *PE) atomicObserved(start vtime.Time, off, es int64, tpe int, stored bool) {
	if pe.prog.chip.AtomicRMWEmulated {
		pe.rec.AtomicEmulated()
	}
	pe.san.AtomicEdge(tpe, off)
	pe.rec.OpDone(stats.OpAtomic, start, &pe.clock, es, tpe)
	if stored {
		pe.san.AtomicEdge(tpe, off)
	}
}
