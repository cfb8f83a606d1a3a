// Package sanitize is a happens-before checker over TSHMEM's symmetric
// memory: a race detector for the simulated SHMEM layer.
//
// The simulator performs every put eagerly — the bytes land in the target
// partition at issue time — while the paper's memory model (S IV.C.2) makes
// puts remotely visible only after shmem_quiet, shmem_fence, or a barrier.
// A user program with a real synchronization bug (a flag put with no Quiet
// after the data put, racing puts to one symmetric region) therefore
// computes the right answer here and corrupts data on real Tilera hardware.
// The checker makes the simulator detect those programs instead of hiding
// them.
//
// Mechanics: each PE carries a vector clock that advances on its own
// operations and merges across synchronization edges — barriers (which also
// complete outstanding puts, like shmem_barrier), collectives, the
// collectives' internal control signals, Quiet/Fence, elemental-put
// signaling consumed by Wait/WaitUntil, atomics, and locks. Every Put/Get
// records a shadow access (writer/reader PE, symmetric offset range, clock
// snapshot) against the target region; puts additionally track whether the
// writer has fenced them (Quiet or a barrier) and the clock at which the
// fence ran. Conflicting accesses whose clocks are not ordered are races;
// ordered reads of a put whose fence clock is not ordered before the reader
// are programs relying on the simulator's eager copy.
//
// A nil *PEHooks disables every hook (the same pattern as
// stats.Recorder), so instrumented code calls unconditionally and the
// sanitizer-off path stays allocation-free.
package sanitize

import (
	"fmt"
	"sort"

	"tshmem/internal/vtime"
)

// Kind classifies a diagnostic.
type Kind uint8

const (
	// RacePutPut: two PEs put to overlapping bytes of one symmetric region
	// with no synchronization edge ordering the puts.
	RacePutPut Kind = iota
	// RacePutGet: a put and a get (or the local side of a transfer) touch
	// overlapping bytes with no synchronization edge ordering them.
	RacePutGet
	// UnfencedPut: a put overwrites an earlier put that is ordered before
	// it but was never completed by Quiet/Fence/barrier on the writer — on
	// hardware the first put may still be in flight when the second lands.
	UnfencedPut
	// UnfencedRead: a get observes a put that is ordered before it, but
	// the writer never fenced the put before the synchronization edge —
	// the program only works because the simulator copies eagerly.
	UnfencedRead
	// UnfencedSignal: an elemental put (P) — the idiomatic "set the flag"
	// — was issued while the same PE had unfenced puts outstanding to the
	// same target; the classic missing-shmem_quiet bug.
	UnfencedSignal
	// LockDoubleAcquire: SetLock on a lock the calling PE already holds
	// (self-deadlock on hardware).
	LockDoubleAcquire
	// LockBadRelease: ClearLock on a lock the calling PE does not hold.
	LockBadRelease
	// Timeout: a bounded wait expired under fault injection (internal/
	// fault) — a barrier, collective signal, WaitUntil, init handshake, or
	// redirected transfer whose partner never progressed. Produced by
	// internal/core, not the happens-before checker; it reuses this
	// diagnostic type so every defect a run surfaces flows through one
	// Report.Diagnostics stream.
	Timeout
)

func (k Kind) String() string {
	switch k {
	case RacePutPut:
		return "race:put/put"
	case RacePutGet:
		return "race:put/get"
	case UnfencedPut:
		return "unfenced-put"
	case UnfencedRead:
		return "unfenced-read"
	case UnfencedSignal:
		return "unfenced-signal"
	case LockDoubleAcquire:
		return "lock:double-acquire"
	case LockBadRelease:
		return "lock:bad-release"
	case Timeout:
		return "timeout"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DynamicSID marks diagnostics against the dynamic symmetric heap (the
// SID field names a static object otherwise).
const DynamicSID int32 = -1

// Diagnostic is one detected synchronization defect. Identical defects
// (same kind, PE pair, region, offset) are folded into one Diagnostic with
// Count > 1.
type Diagnostic struct {
	Kind     Kind
	PE       int   // PE issuing the later operation
	OtherPE  int   // PE of the earlier conflicting operation (-1 if none)
	TargetPE int   // PE owning the symmetric region
	SID      int32 // static object id, or DynamicSID for the symmetric heap
	Offset   int64 // symmetric byte offset of the conflict
	Bytes    int64 // length of the conflicting range
	Op       string
	OtherOp  string
	VTime    vtime.Time // virtual time of the later operation
	OtherVT  vtime.Time // virtual time of the earlier operation
	Count    int        // occurrences folded into this diagnostic
	// Fault is the fault-plan event id blamed for a Kind == Timeout
	// diagnostic (-1 when no plan event was active); ignored otherwise.
	Fault int32
}

func (d Diagnostic) String() string {
	if d.Kind == Timeout {
		// For timeouts the fields are repurposed: PE is the stuck PE, Op
		// the blocked operation, OtherPE the awaited peer (-1 when the wait
		// had no single peer), VTime the wait start and OtherVT the
		// expired virtual deadline.
		s := fmt.Sprintf("timeout: PE %d blocked in %s", d.PE, d.Op)
		if d.OtherPE >= 0 {
			s += fmt.Sprintf(" (awaiting PE %d)", d.OtherPE)
		}
		s += fmt.Sprintf(" from vt %v until deadline %v", d.VTime, d.OtherVT)
		if d.Fault >= 0 {
			s += fmt.Sprintf(" [fault event %d]", d.Fault)
		}
		if d.Count > 1 {
			s += fmt.Sprintf(" x%d", d.Count)
		}
		return s
	}
	region := "heap"
	if d.SID != DynamicSID {
		region = fmt.Sprintf("static %d", d.SID)
	}
	s := fmt.Sprintf("%s: PE %d %s vs PE %d %s at PE %d %s+[%d,%d) (vt %v vs %v)",
		d.Kind, d.PE, d.Op, d.OtherPE, d.OtherOp, d.TargetPE, region,
		d.Offset, d.Offset+d.Bytes, d.VTime, d.OtherVT)
	if d.Count > 1 {
		s += fmt.Sprintf(" x%d", d.Count)
	}
	return s
}

// vclock is a fixed-length vector clock, one component per PE.
type vclock []uint64

func (v vclock) clone() vclock {
	w := make(vclock, len(v))
	copy(w, v)
	return w
}

func (v vclock) join(w vclock) {
	for i, x := range w {
		if x > v[i] {
			v[i] = x
		}
	}
}

// leq reports whether v happened-before-or-equals w (pointwise <=).
func (v vclock) leq(w vclock) bool {
	for i, x := range v {
		if x > w[i] {
			return false
		}
	}
	return true
}

// accessRec is one shadow access to a symmetric region: cnt elements of es
// bytes starting at off, successive elements stride bytes apart. A
// contiguous block access is cnt == 1 with es covering the whole block.
// Keeping the stride lets strided transfers (IPut/IGet) be checked
// element-precisely: a distributed transpose interleaves disjoint columns
// whose byte spans overlap completely.
type accessRec struct {
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
func (r *accessRec) span() int64 { return (r.cnt-1)*r.stride + r.es }

// contigRec builds the shadow record of a contiguous nbytes access.
func contigRec(off, nbytes int64) accessRec {
	return accessRec{off: off, stride: nbytes, cnt: 1, es: nbytes}
}

func floorDiv(a, b int64) int64 { // b > 0
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// overlaps reports whether any element of r intersects any element of o.
// The spans are compared first; only when both accesses are strided does
// the element-precise walk run (over the progression with fewer elements,
// solving for intersecting indices of the other in O(1) each).
func (r *accessRec) overlaps(o *accessRec) bool {
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

// supersedes reports whether the new access rec makes the earlier
// same-writer access p unobservable on its own: a contiguous rec covering
// p's whole span, or a rewrite of the identical strided pattern.
func supersedes(rec, p *accessRec) bool {
	if rec.cnt == 1 {
		return rec.off <= p.off && p.off+p.span() <= rec.off+rec.es
	}
	return rec.off == p.off && rec.stride == p.stride && rec.es == p.es && rec.cnt >= p.cnt
}

// regionKey names one symmetric region: a PE's heap partition (sid ==
// DynamicSID) or its instance of a static object.
type regionKey struct {
	pe  int32
	sid int32
}

// regionState is the shadow state of one region.
type regionState struct {
	puts []*accessRec
	gets []*accessRec
}

// locKey names one watchable word: (owner PE, partition byte offset).
type locKey struct {
	pe  int32
	off int64
}

// edgeKey names one collective control-signal stream: (receiver, tag).
type edgeKey struct {
	dst int32
	tag uint32
}

// barKey names one barrier instance.
type barKey struct {
	start, stride, size int32
	gen                 uint32
	spin                bool
	inst                int64 // spin-barrier instance counter
}

// Barrier is the rendezvous accumulator of one in-flight barrier instance:
// every participant merges its clock in on entry and joins the merged
// clock on exit. Barrier semantics (all enter before any exits) make the
// join sound.
type Barrier struct {
	key     barKey
	vc      vclock
	entered int
	exited  int
	size    int
}

// Growth caps. Eviction trades completeness (possible false negatives) for
// bounded memory; the drop counters record that it happened.
const (
	maxRecsPerRegion = 256
	maxDiags         = 1024
	maxLocEntries    = 1 << 16
	maxEdgeEntries   = 1 << 16
)

type diagKey struct {
	kind     Kind
	pe       int32
	other    int32
	targetPE int32
	sid      int32
	off      int64
}

// Checker is the program-wide sanitizer state, shared by all PEs of one
// run. It is not safe for concurrent use and needs no lock: a run's PEs
// execute one at a time (internal/core's calendar), so every hook is called
// by the one PE that holds the run's baton.
type Checker struct {
	n        int
	vc       []vclock
	shadow   map[regionKey]*regionState
	loc      map[locKey]vclock
	edges    map[edgeKey]vclock
	unfenced [][]*accessRec
	barriers map[barKey]*Barrier
	spinSeq  int64
	locks    map[int64]int32 // lock offset (on PE 0) -> holder, or -1
	diags    []Diagnostic
	seen     map[diagKey]int
	dropped  int64 // diagnostics beyond maxDiags
	evicted  int64 // shadow records evicted at the per-region cap
}

// New returns a Checker for an npes-PE program.
func New(npes int) *Checker {
	c := &Checker{
		n:        npes,
		vc:       make([]vclock, npes),
		shadow:   make(map[regionKey]*regionState),
		loc:      make(map[locKey]vclock),
		edges:    make(map[edgeKey]vclock),
		unfenced: make([][]*accessRec, npes),
		barriers: make(map[barKey]*Barrier),
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
func (c *Checker) PE(pe int) *PEHooks { return &PEHooks{c: c, pe: int32(pe)} }

// Dropped reports how many diagnostics were discarded beyond the cap.
func (c *Checker) Dropped() int64 {
	return c.dropped
}

// Diagnostics returns the folded diagnostics, sorted for determinism
// (virtual time, then region, then kind). Note that for genuinely racy
// programs the PE/OtherPE orientation of a diagnostic can differ between
// runs — which access the checker observes first is exactly what the race
// leaves undefined.
func (c *Checker) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(c.diags))
	copy(out, c.diags)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.VTime != b.VTime:
			return a.VTime < b.VTime
		case a.TargetPE != b.TargetPE:
			return a.TargetPE < b.TargetPE
		case a.SID != b.SID:
			return a.SID < b.SID
		case a.Offset != b.Offset:
			return a.Offset < b.Offset
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		case a.PE != b.PE:
			return a.PE < b.PE
		default:
			return a.OtherPE < b.OtherPE
		}
	})
	return out
}

// emit records a diagnostic, folding repeats of the same defect.
func (c *Checker) emit(d Diagnostic) {
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

func (c *Checker) region(k regionKey) *regionState {
	rs := c.shadow[k]
	if rs == nil {
		rs = &regionState{}
		c.shadow[k] = rs
	}
	return rs
}

// fence marks every outstanding put of PE pe complete as of its current
// clock (the effect of Quiet/Fence, and of entering a barrier).
func (c *Checker) fence(pe int32) {
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
func (c *Checker) tick(pe int32) { c.vc[pe][pe]++ }

// appendRec inserts rec into list enforcing the per-region cap (FIFO).
func (c *Checker) appendRec(list []*accessRec, rec *accessRec) []*accessRec {
	if len(list) >= maxRecsPerRegion {
		copy(list, list[1:])
		list = list[:len(list)-1]
		c.evicted++
	}
	return append(list, rec)
}

// PEHooks is one PE's entry points into the checker. A nil *PEHooks is
// valid and disables every hook.
type PEHooks struct {
	c  *Checker
	pe int32
}

// Write records a put of nbytes at symmetric offset off of (targetPE, sid)
// and checks it against conflicting shadow accesses.
func (h *PEHooks) Write(op string, targetPE int, sid int32, off, nbytes int64, vt vtime.Time) {
	if h == nil || nbytes <= 0 {
		return
	}
	h.write(op, targetPE, sid, contigRec(off, nbytes), vt)
}

// WriteStrided is Write for a strided put (IPut): nelems elements of es
// bytes, element starts strideBytes apart.
func (h *PEHooks) WriteStrided(op string, targetPE int, sid int32, off, strideBytes int64, nelems int, es int64, vt vtime.Time) {
	if h == nil || nelems <= 0 || es <= 0 || strideBytes <= 0 {
		return
	}
	h.write(op, targetPE, sid,
		accessRec{off: off, stride: strideBytes, cnt: int64(nelems), es: es}, vt)
}

func (h *PEHooks) write(op string, targetPE int, sid int32, shape accessRec, vt vtime.Time) {
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
		if p.pe == h.pe && supersedes(rec, p) {
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
func (h *PEHooks) Read(op string, targetPE int, sid int32, off, nbytes int64, vt vtime.Time) {
	if h == nil || nbytes <= 0 {
		return
	}
	h.readShape(op, targetPE, sid, contigRec(off, nbytes), vt)
}

// ReadStrided is Read for a strided get (IGet).
func (h *PEHooks) ReadStrided(op string, targetPE int, sid int32, off, strideBytes int64, nelems int, es int64, vt vtime.Time) {
	if h == nil || nelems <= 0 || es <= 0 || strideBytes <= 0 {
		return
	}
	h.readShape(op, targetPE, sid,
		accessRec{off: off, stride: strideBytes, cnt: int64(nelems), es: es}, vt)
}

func (h *PEHooks) readShape(op string, targetPE int, sid int32, shape accessRec, vt vtime.Time) {
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
func (h *PEHooks) ReadElem(targetPE int, off, nbytes int64, vt vtime.Time) {
	if h == nil {
		return
	}
	c := h.c
	h.readShape("G", targetPE, DynamicSID, contigRec(off, nbytes), vt)
	if lv, ok := c.loc[locKey{int32(targetPE), off}]; ok {
		c.vc[h.pe].join(lv)
	}
	c.tick(h.pe)
}

// Quiet marks all outstanding puts of this PE complete (shmem_quiet and
// shmem_fence, which TSHMEM aliases to Quiet).
func (h *PEHooks) Quiet() {
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
func (h *PEHooks) Signal(targetPE int, off, width int64, vt vtime.Time) {
	if h == nil {
		return
	}
	c := h.c
	flag := contigRec(off, width)
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
func (h *PEHooks) WaitEdge(off int64) {
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
func (h *PEHooks) AtomicEdge(targetPE int, off int64) {
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
func (h *PEHooks) SigSend(dst int, tag uint32) {
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
func (h *PEHooks) SigRecv(tag uint32) {
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
func (h *PEHooks) BarrierEnter(start, logStride, size int, gen uint32) *Barrier {
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
func (h *PEHooks) SpinEnter() *Barrier {
	if h == nil {
		return nil
	}
	inst := h.c.spinSeq / int64(h.c.n)
	h.c.spinSeq++
	return h.enter(barKey{spin: true, inst: inst}, h.c.n)
}

func (h *PEHooks) enter(k barKey, size int) *Barrier {
	c := h.c
	c.fence(h.pe)
	b := c.barriers[k]
	if b == nil {
		b = &Barrier{key: k, vc: make(vclock, c.n), size: size}
		c.barriers[k] = b
	}
	b.vc.join(c.vc[h.pe])
	b.entered++
	c.tick(h.pe)
	return b
}

// BarrierExit completes this PE's participation: its clock joins the merge
// of every participant's entry clock.
func (h *PEHooks) BarrierExit(b *Barrier) {
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
func (h *PEHooks) LockSelfAcquire(off int64, vt vtime.Time) bool {
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
func (h *PEHooks) LockAcquired(off int64) {
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
func (h *PEHooks) LockRelease(off int64, vt vtime.Time) {
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
