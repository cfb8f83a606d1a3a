package sanitize

// The reference checker: the shadow implementation this package shipped from
// PR 4 to PR 19, kept verbatim — types renamed ref*, the unused Dropped
// gone, the sort inside Diagnostics shared with the real checker, nothing
// else touched — as
// the oracle of TestCheckerDifferential and FuzzCheckerDifferential. Every
// record carries full vector-clock snapshots, every access walks every record
// of its region, and nothing is retired, folded or recycled.

import "tshmem/internal/vtime"

// clone survives only here: the real checker keeps epochs, not clock
// snapshots (ci.sh's shadow guard).
func (v vclock) clone() vclock {
	w := make(vclock, len(v))
	copy(w, v)
	return w
}

// refRec is one shadow access to a symmetric region: cnt elements of es
// bytes starting at off, successive elements stride bytes apart. A
// contiguous block access is cnt == 1 with es covering the whole block.
// Keeping the stride lets strided transfers (IPut/IGet) be checked
// element-precisely: a distributed transpose interleaves disjoint columns
// whose byte spans overlap completely.
type refRec struct {
	pe       int32
	targetPE int32
	off      int64  // byte offset of the first element
	stride   int64  // byte distance between element starts
	cnt      int64  // number of elements
	es       int64  // bytes per element
	clock    vclock // owner's clock snapshot at issue
	vis      vclock // snapshot at fence time; nil until fenced
	fenced   bool
	vt       vtime.Time
	op       string
}

// span is the total byte extent [off, off+span).
func (r *refRec) span() int64 { return (r.cnt-1)*r.stride + r.es }

// refContigRec builds the shadow record of a contiguous nbytes access.
func refContigRec(off, nbytes int64) refRec {
	return refRec{off: off, stride: nbytes, cnt: 1, es: nbytes}
}

// overlaps reports whether any element of r intersects any element of o.
// The spans are compared first; only when both accesses are strided does
// the element-precise walk run (over the progression with fewer elements,
// solving for intersecting indices of the other in O(1) each).
func (r *refRec) overlaps(o *refRec) bool {
	if r.off >= o.off+o.span() || o.off >= r.off+r.span() {
		return false
	}
	if r.cnt == 1 && o.cnt == 1 {
		return true
	}
	a, b := r, o
	if a.cnt > b.cnt {
		a, b = b, a
	}
	for i := int64(0); i < a.cnt; i++ {
		// Element [x, x+a.es) hits b's element j iff
		// b.off + j*b.stride is in (x - b.es, x + a.es).
		x := a.off + i*a.stride
		jlo := -floorDiv(-(x - b.es + 1 - b.off), b.stride)
		jhi := floorDiv(x+a.es-1-b.off, b.stride)
		if jlo < 0 {
			jlo = 0
		}
		if jhi >= b.cnt {
			jhi = b.cnt - 1
		}
		if jlo <= jhi {
			return true
		}
	}
	return false
}

// refSupersedes reports whether the new access rec makes the earlier
// same-writer access p unobservable on its own: a contiguous rec covering
// p's whole span, or a rewrite of the identical strided pattern.
func refSupersedes(rec, p *refRec) bool {
	if rec.cnt == 1 {
		return rec.off <= p.off && p.off+p.span() <= rec.off+rec.es
	}
	return rec.off == p.off && rec.stride == p.stride && rec.es == p.es && rec.cnt >= p.cnt
}

// refRegion is the shadow state of one region.
type refRegion struct {
	puts []*refRec
	gets []*refRec
}

// refBarrier is the rendezvous accumulator of one in-flight barrier instance:
// every participant merges its clock in on entry and joins the merged
// clock on exit. refBarrier semantics (all enter before any exits) make the
// join sound.
type refBarrier struct {
	key     barKey
	vc      vclock
	entered int
	exited  int
	size    int
}

// refChecker is the program-wide sanitizer state, shared by all PEs of one
// run. It is not safe for concurrent use and needs no lock: a run's PEs
// execute one at a time (internal/core's calendar), so every hook is called
// by the one PE that holds the run's baton.
type refChecker struct {
	n        int
	vc       []vclock
	shadow   map[regionKey]*refRegion
	loc      map[locKey]vclock
	edges    map[edgeKey]vclock
	unfenced [][]*refRec
	barriers map[barKey]*refBarrier
	spinSeq  int64
	locks    map[int64]int32 // lock offset (on PE 0) -> holder, or -1
	diags    []Diagnostic
	seen     map[diagKey]int
	dropped  int64 // diagnostics beyond maxDiags
	evicted  int64 // shadow records evicted at the per-region cap
}

// New returns a refChecker for an npes-PE program.
func newRef(npes int) *refChecker {
	c := &refChecker{
		n:        npes,
		vc:       make([]vclock, npes),
		shadow:   make(map[regionKey]*refRegion),
		loc:      make(map[locKey]vclock),
		edges:    make(map[edgeKey]vclock),
		unfenced: make([][]*refRec, npes),
		barriers: make(map[barKey]*refBarrier),
		locks:    make(map[int64]int32),
		seen:     make(map[diagKey]int),
	}
	for i := range c.vc {
		c.vc[i] = make(vclock, npes)
	}
	return c
}

// PE returns the hook set for one PE. The hooks may be called from that
// PE's goroutine only.
func (c *refChecker) PE(pe int) *refHooks { return &refHooks{c: c, pe: int32(pe)} }

func (c *refChecker) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(c.diags))
	copy(out, c.diags)
	sortDiagnostics(out)
	return out
}

// emit records a diagnostic, folding repeats of the same defect.
func (c *refChecker) emit(d Diagnostic) {
	k := diagKey{d.Kind, int32(d.PE), int32(d.OtherPE), int32(d.TargetPE), d.SID, d.Offset}
	if i, ok := c.seen[k]; ok {
		c.diags[i].Count++
		return
	}
	if len(c.diags) >= maxDiags {
		c.dropped++
		return
	}
	d.Count = 1
	c.seen[k] = len(c.diags)
	c.diags = append(c.diags, d)
}

func (c *refChecker) region(k regionKey) *refRegion {
	rs := c.shadow[k]
	if rs == nil {
		rs = &refRegion{}
		c.shadow[k] = rs
	}
	return rs
}

// fence marks every outstanding put of PE pe complete as of its current
// clock (the effect of Quiet/Fence, and of entering a barrier).
func (c *refChecker) fence(pe int32) {
	recs := c.unfenced[pe]
	if len(recs) == 0 {
		return
	}
	var vis vclock // one shared snapshot; records are immutable after fencing
	for _, r := range recs {
		if r.fenced {
			continue
		}
		if vis == nil {
			vis = c.vc[pe].clone()
		}
		r.fenced = true
		r.vis = vis
	}
	c.unfenced[pe] = c.unfenced[pe][:0]
}

// tick advances pe's own clock component.
func (c *refChecker) tick(pe int32) { c.vc[pe][pe]++ }

// appendRec inserts rec into list enforcing the per-region cap (FIFO).
func (c *refChecker) appendRec(list []*refRec, rec *refRec) []*refRec {
	if len(list) >= maxRecsPerRegion {
		copy(list, list[1:])
		list = list[:len(list)-1]
		c.evicted++
	}
	return append(list, rec)
}

// refHooks is one PE's entry points into the checker. A nil *refHooks is
// valid and disables every hook.
type refHooks struct {
	c  *refChecker
	pe int32
}

// Write records a put of nbytes at symmetric offset off of (targetPE, sid)
// and checks it against conflicting shadow accesses.
func (h *refHooks) Write(op string, targetPE int, sid int32, off, nbytes int64, vt vtime.Time) {
	if h == nil || nbytes <= 0 {
		return
	}
	h.write(op, targetPE, sid, refContigRec(off, nbytes), vt)
}

// WriteStrided is Write for a strided put (IPut): nelems elements of es
// bytes, element starts strideBytes apart.
func (h *refHooks) WriteStrided(op string, targetPE int, sid int32, off, strideBytes int64, nelems int, es int64, vt vtime.Time) {
	if h == nil || nelems <= 0 || es <= 0 || strideBytes <= 0 {
		return
	}
	h.write(op, targetPE, sid,
		refRec{off: off, stride: strideBytes, cnt: int64(nelems), es: es}, vt)
}

func (h *refHooks) write(op string, targetPE int, sid int32, shape refRec, vt vtime.Time) {
	c := h.c
	// Tick before snapshotting so the record's clock includes this very
	// op: a PE that never synchronized with us must not dominate it.
	c.tick(h.pe)
	v := c.vc[h.pe]
	rec := &shape
	rec.pe, rec.targetPE = h.pe, int32(targetPE)
	rec.clock, rec.vt, rec.op = v.clone(), vt, op
	rs := c.region(regionKey{int32(targetPE), sid})
	for _, p := range rs.puts {
		if p.pe == h.pe || !p.overlaps(rec) {
			continue
		}
		switch {
		case !p.clock.leq(v):
			c.emit(Diagnostic{Kind: RacePutPut, PE: int(h.pe), OtherPE: int(p.pe),
				TargetPE: targetPE, SID: sid, Offset: rec.off, Bytes: rec.span(),
				Op: op, OtherOp: p.op, VTime: vt, OtherVT: p.vt})
		case !p.fenced || !p.vis.leq(v):
			c.emit(Diagnostic{Kind: UnfencedPut, PE: int(h.pe), OtherPE: int(p.pe),
				TargetPE: targetPE, SID: sid, Offset: rec.off, Bytes: rec.span(),
				Op: op, OtherOp: p.op, VTime: vt, OtherVT: p.vt})
		}
	}
	for _, g := range rs.gets {
		if g.pe == h.pe || !g.overlaps(rec) {
			continue
		}
		if !g.clock.leq(v) {
			c.emit(Diagnostic{Kind: RacePutGet, PE: int(h.pe), OtherPE: int(g.pe),
				TargetPE: targetPE, SID: sid, Offset: rec.off, Bytes: rec.span(),
				Op: op, OtherOp: g.op, VTime: vt, OtherVT: g.vt})
		}
	}
	if int(h.pe) == targetPE {
		// The owner's stores to its own partition are coherent without an
		// explicit fence; ordering edges alone make them visible.
		rec.fenced = true
		rec.vis = rec.clock
	}
	// Compact: a fully-superseded earlier put by the same writer can no
	// longer be observed on its own.
	kept := rs.puts[:0]
	for _, p := range rs.puts {
		if p.pe == h.pe && refSupersedes(rec, p) {
			continue
		}
		kept = append(kept, p)
	}
	rs.puts = c.appendRec(kept, rec)
	if !rec.fenced {
		c.unfenced[h.pe] = append(c.unfenced[h.pe], rec)
	}
}

// Read records a get of nbytes at symmetric offset off of (targetPE, sid)
// and checks it against shadow puts: unordered puts are races; ordered
// puts that were never fenced before the ordering edge are reads that only
// work because the simulator copies eagerly.
func (h *refHooks) Read(op string, targetPE int, sid int32, off, nbytes int64, vt vtime.Time) {
	if h == nil || nbytes <= 0 {
		return
	}
	h.readShape(op, targetPE, sid, refContigRec(off, nbytes), vt)
}

// ReadStrided is Read for a strided get (IGet).
func (h *refHooks) ReadStrided(op string, targetPE int, sid int32, off, strideBytes int64, nelems int, es int64, vt vtime.Time) {
	if h == nil || nelems <= 0 || es <= 0 || strideBytes <= 0 {
		return
	}
	h.readShape(op, targetPE, sid,
		refRec{off: off, stride: strideBytes, cnt: int64(nelems), es: es}, vt)
}

func (h *refHooks) readShape(op string, targetPE int, sid int32, shape refRec, vt vtime.Time) {
	c := h.c
	c.tick(h.pe) // see write: the record's clock must include this op
	v := c.vc[h.pe]
	rec := &shape
	rec.pe, rec.targetPE = h.pe, int32(targetPE)
	rec.clock, rec.vt, rec.op = v.clone(), vt, op
	rs := c.region(regionKey{int32(targetPE), sid})
	for _, p := range rs.puts {
		if p.pe == h.pe || !p.overlaps(rec) {
			continue
		}
		switch {
		case !p.clock.leq(v):
			c.emit(Diagnostic{Kind: RacePutGet, PE: int(h.pe), OtherPE: int(p.pe),
				TargetPE: targetPE, SID: sid, Offset: rec.off, Bytes: rec.span(),
				Op: op, OtherOp: p.op, VTime: vt, OtherVT: p.vt})
		case !p.fenced || !p.vis.leq(v):
			c.emit(Diagnostic{Kind: UnfencedRead, PE: int(h.pe), OtherPE: int(p.pe),
				TargetPE: targetPE, SID: sid, Offset: rec.off, Bytes: rec.span(),
				Op: op, OtherOp: p.op, VTime: vt, OtherVT: p.vt})
		}
	}
	rs.gets = c.appendRec(rs.gets, rec)
}

// ReadElem is Read for the elemental get (G) on a dynamic word: the get
// check plus, when the word has been published by P or an atomic, the
// acquire edge a real coherence read of the delivered word implies.
func (h *refHooks) ReadElem(targetPE int, off, nbytes int64, vt vtime.Time) {
	if h == nil {
		return
	}
	c := h.c
	h.readShape("G", targetPE, DynamicSID, refContigRec(off, nbytes), vt)
	if lv, ok := c.loc[locKey{int32(targetPE), off}]; ok {
		c.vc[h.pe].join(lv)
	}
	c.tick(h.pe)
}

// Quiet marks all outstanding puts of this PE complete (shmem_quiet and
// shmem_fence, which TSHMEM aliases to Quiet).
func (h *refHooks) Quiet() {
	if h == nil {
		return
	}
	h.c.fence(h.pe)
	h.c.tick(h.pe)
}

// Signal records an elemental put (P) to the word at off on targetPE: a
// release publication consumed by WaitEdge/ReadElem. If this PE still has
// unfenced puts outstanding to the same target — other than to the flag
// word itself — the signal is the canonical missing-Quiet bug and is
// diagnosed at issue time.
func (h *refHooks) Signal(targetPE int, off, width int64, vt vtime.Time) {
	if h == nil {
		return
	}
	c := h.c
	flag := refContigRec(off, width)
	for _, r := range c.unfenced[h.pe] {
		if r.fenced || int(r.targetPE) != targetPE {
			continue
		}
		if r.overlaps(&flag) {
			continue // the flag word itself
		}
		c.emit(Diagnostic{Kind: UnfencedSignal, PE: int(h.pe), OtherPE: int(h.pe),
			TargetPE: int(r.targetPE), SID: DynamicSID, Offset: r.off, Bytes: r.span(),
			Op: "P(flag)", OtherOp: r.op, VTime: vt, OtherVT: r.vt})
	}
	k := locKey{int32(targetPE), off}
	lv, ok := c.loc[k]
	if !ok {
		if len(c.loc) >= maxLocEntries {
			c.loc = make(map[locKey]vclock) // reset; over-approximation only shrinks
		}
		lv = make(vclock, c.n)
		c.loc[k] = lv
	}
	lv.join(c.vc[h.pe])
	c.tick(h.pe)
}

// WaitEdge is the acquire side of Signal: Wait/WaitUntil on the calling
// PE's word at off was satisfied, so the waiter joins every publication to
// that word.
func (h *refHooks) WaitEdge(off int64) {
	if h == nil {
		return
	}
	c := h.c
	if lv, ok := c.loc[locKey{h.pe, off}]; ok {
		c.vc[h.pe].join(lv)
	}
	c.tick(h.pe)
}

// AtomicEdge records an atomic operation on the word at off on targetPE:
// a bidirectional merge with the word's clock, the mutual-ordering edge a
// real fetch-op at the line's home tile provides. (Failed compare-and-swap
// attempts also merge — an over-approximation that can only hide races,
// never invent them.)
func (h *refHooks) AtomicEdge(targetPE int, off int64) {
	if h == nil {
		return
	}
	c := h.c
	k := locKey{int32(targetPE), off}
	lv, ok := c.loc[k]
	if !ok {
		if len(c.loc) >= maxLocEntries {
			c.loc = make(map[locKey]vclock)
		}
		lv = make(vclock, c.n)
		c.loc[k] = lv
	}
	lv.join(c.vc[h.pe])
	c.vc[h.pe].join(lv)
	c.tick(h.pe)
}

// SigSend records a collective control signal leaving for dst: the
// receiver's matching SigRecv joins this PE's clock.
func (h *refHooks) SigSend(dst int, tag uint32) {
	if h == nil {
		return
	}
	c := h.c
	k := edgeKey{int32(dst), tag}
	ev, ok := c.edges[k]
	if !ok {
		if len(c.edges) >= maxEdgeEntries {
			c.edges = make(map[edgeKey]vclock)
		}
		ev = make(vclock, c.n)
		c.edges[k] = ev
	}
	ev.join(c.vc[h.pe])
	c.tick(h.pe)
}

// SigRecv joins the clocks published to (this PE, tag) by SigSend.
func (h *refHooks) SigRecv(tag uint32) {
	if h == nil {
		return
	}
	c := h.c
	if ev, ok := c.edges[edgeKey{h.pe, tag}]; ok {
		c.vc[h.pe].join(ev)
	}
	c.tick(h.pe)
}

// BarrierEnter begins this PE's participation in a barrier instance
// (identified by active set and generation). Entering a barrier completes
// outstanding puts, exactly like shmem_barrier_all. The returned token
// must be passed to BarrierExit once the barrier's release reaches this
// PE.
func (h *refHooks) BarrierEnter(start, logStride, size int, gen uint32) *refBarrier {
	if h == nil {
		return nil
	}
	k := barKey{start: int32(start), stride: int32(logStride), size: int32(size), gen: gen}
	return h.enter(k, size)
}

// SpinEnter is BarrierEnter for the program-wide TMC spin barrier (which
// carries no active-set identification); arrival counting identifies the
// instance, which is sound because all PEs enter instance k before any PE
// exits it.
func (h *refHooks) SpinEnter() *refBarrier {
	if h == nil {
		return nil
	}
	inst := h.c.spinSeq / int64(h.c.n)
	h.c.spinSeq++
	return h.enter(barKey{spin: true, inst: inst}, h.c.n)
}

func (h *refHooks) enter(k barKey, size int) *refBarrier {
	c := h.c
	c.fence(h.pe)
	b := c.barriers[k]
	if b == nil {
		b = &refBarrier{key: k, vc: make(vclock, c.n), size: size}
		c.barriers[k] = b
	}
	b.vc.join(c.vc[h.pe])
	b.entered++
	c.tick(h.pe)
	return b
}

// BarrierExit completes this PE's participation: its clock joins the merge
// of every participant's entry clock.
func (h *refHooks) BarrierExit(b *refBarrier) {
	if h == nil || b == nil {
		return
	}
	c := h.c
	c.vc[h.pe].join(b.vc)
	b.exited++
	if b.exited >= b.size {
		delete(c.barriers, b.key)
	}
	c.tick(h.pe)
}

// LockSelfAcquire checks a SetLock attempt: it reports (and diagnoses)
// true when the calling PE already holds the lock, which on hardware spins
// forever.
func (h *refHooks) LockSelfAcquire(off int64, vt vtime.Time) bool {
	if h == nil {
		return false
	}
	c := h.c
	if holder, ok := c.locks[off]; ok && holder == h.pe {
		c.emit(Diagnostic{Kind: LockDoubleAcquire, PE: int(h.pe), OtherPE: int(h.pe),
			TargetPE: 0, SID: DynamicSID, Offset: off, Bytes: 8,
			Op: "SetLock", OtherOp: "SetLock", VTime: vt, OtherVT: vt})
		return true
	}
	return false
}

// LockAcquired records that the calling PE now holds the lock and joins
// the previous holder's release clock.
func (h *refHooks) LockAcquired(off int64) {
	if h == nil {
		return
	}
	c := h.c
	c.locks[off] = h.pe
	if lv, ok := c.loc[locKey{0, off}]; ok {
		c.vc[h.pe].join(lv)
	}
	c.tick(h.pe)
}

// LockRelease checks and records a ClearLock: releasing a lock the caller
// does not hold is diagnosed (the store still destroys the real holder's
// ownership, which is why core also returns an error).
func (h *refHooks) LockRelease(off int64, vt vtime.Time) {
	if h == nil {
		return
	}
	c := h.c
	holder, ok := c.locks[off]
	if !ok || holder != h.pe {
		other := -1
		if ok {
			other = int(holder)
		}
		c.emit(Diagnostic{Kind: LockBadRelease, PE: int(h.pe), OtherPE: other,
			TargetPE: 0, SID: DynamicSID, Offset: off, Bytes: 8,
			Op: "ClearLock", OtherOp: "SetLock", VTime: vt, OtherVT: vt})
	}
	delete(c.locks, off)
	c.tick(h.pe)
}
