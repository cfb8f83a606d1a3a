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
// keeps a shadow record (writer/reader PE, symmetric offset range, the
// issuer's epoch) against the target region; puts additionally track whether
// the writer has fenced them (Quiet or a barrier) and the epoch at which the
// fence ran. Conflicting accesses that are not ordered are races; ordered
// reads of a put whose fence is not ordered before the reader are programs
// relying on the simulator's eager copy.
//
// Epochs. A record does not snapshot its issuer's clock, only the issuer's
// own component of it — its epoch (FastTrack: Flanagan & Freund, PLDI
// 2009). That is enough because of one invariant every hook below keeps:
// a PE's clock is snapshotted into a record, or published to another PE,
// only in the state immediately after one of its own ticks, before any
// join. Hook by hook: Write/Read (and ReadElem's read) tick first and
// snapshot at once; every other hook ends with a tick and does its joins
// before it, so Quiet's and a barrier entry's fence, and the publications
// of Signal, AtomicEdge, SigSend and a barrier entry — all of which read
// the clock at the top of the hook — see the state the previous hook's
// closing tick left. So PE p's clock has exactly one snapshotted state S
// per own-component value e, S grows with e, and a clock v anywhere in the
// system has v[p] >= e only by having joined some S(e') with e' >= e:
//
//	S(e) <= v pointwise  <=>  e <= v[p]
//
// and every ordering test is that one comparison.
//
// What the shadow costs is what can still race. floor[i] is the minimum
// over all PEs of their component i, recomputed when the last PE leaves an
// all-PEs barrier. A record whose (fence) epoch is at or below its issuer's
// floor is ordered before every future access of every PE — clocks only
// grow — so it is dropped the next time its region is touched and its
// storage reused: a barrier-separated program keeps the current phase's
// records and nothing else. A read that repeats the region's newest read
// record — same reader, same bytes, nothing published by the reader in
// between — is ordered against every future write exactly as that record
// is, and is folded into it as a multiplicity. Each record list keeps a
// conservative byte span, and an access outside it skips the list.
// docs/OBSERVABILITY.md, "Cost and caps", says what is left when a program
// never runs an all-PEs barrier, and what Loss reports then.
//
// A nil *PEHooks disables every hook (the same pattern as
// stats.Recorder), so instrumented code calls unconditionally and the
// sanitizer-off path stays allocation-free.
package sanitize

import (
	"fmt"
	"math"
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
//
// The record is ordered before a clock v iff epoch <= v[pe], and complete
// before it iff fenced && vis <= v[pe] (package doc, "Epochs"). It holds no
// slice and is recycled through Checker.free.
type accessRec struct {
	off    int64  // byte offset of the first element
	stride int64  // byte distance between element starts
	cnt    int64  // number of elements
	es     int64  // bytes per element
	epoch  uint64 // issuer's own clock component at issue
	vis    uint64 // issuer's own component when the access completed; valid once fenced
	vt     vtime.Time
	op     string
	pe     int32
	// targetPE is read back only by Signal, from the issuer's unfenced list.
	targetPE int32
	// mult is how many identical reads this get record stands for (>= 1);
	// a conflict is emitted once per read.
	mult int32
	// fenced: the access is complete as of vis. Gets and the owner's own
	// stores are born fenced at their epoch; a remote put becomes fenced at
	// its writer's next Quiet or barrier entry.
	fenced bool
	// orphan: dropped from its region's list (superseded or evicted) while
	// still on its writer's unfenced list, which Signal reads. The fence
	// that takes it off that list recycles it.
	orphan bool
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

// sameShape reports whether r and o touch exactly the same bytes.
func (r *accessRec) sameShape(o *accessRec) bool {
	return r.off == o.off && r.stride == o.stride && r.cnt == o.cnt && r.es == o.es
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

// recList is the puts or the gets of one region in issue order. Scans keep
// that order: the first conflict emitted for a diagnostic key decides the
// OtherVT and OtherOp it reports.
type recList struct {
	// recs[head:] are the records; recs[:head] are the slots FIFO eviction
	// left, closed up once per maxRecsPerRegion evictions instead of on
	// each. Slots outside the live range are not cleared: every record
	// belongs to the Checker's slabs for as long as the Checker lives.
	recs []*accessRec
	head int
	// [lo, hi) covers every byte of every record: widened on append, exact
	// again after a retirement sweep. An access outside it overlaps nothing
	// here and supersedes nothing. Empty is lo > hi.
	lo, hi int64
}

func (l *recList) live() []*accessRec { return l.recs[l.head:] }

// misses reports that r cannot overlap any record of l.
func (l *recList) misses(r *accessRec) bool {
	return r.off >= l.hi || r.off+r.span() <= l.lo
}

func (l *recList) resetSpan() { l.lo, l.hi = math.MaxInt64, math.MinInt64 }

func (l *recList) widen(r *accessRec) {
	l.lo = min(l.lo, r.off)
	l.hi = max(l.hi, r.off+r.span())
}

// keep truncates the list to its first k records (the survivors a filtering
// pass moved down).
func (l *recList) keep(k int) { l.recs = l.recs[:l.head+k] }

// regionKey names one static symmetric object's instance on one PE.
type regionKey struct {
	pe  int32
	sid int32
}

// regionState is the shadow state of one region: a PE's heap partition or
// its instance of a static object.
type regionState struct {
	puts, gets recList
	gen        uint32 // Checker.floorGen when the lists were last swept
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

// Growth caps. Running into one trades completeness for bounded memory, and
// Loss says that it happened. Retirement keeps a program that runs all-PEs
// barriers clear of all of them but maxDiags.
const (
	maxRecsPerRegion = 256
	maxDiags         = 1024
	maxLocEntries    = 1 << 16
	maxEdgeEntries   = 1 << 16
)

// Loss counts what the checker's caps made it forget. The zero value means
// the diagnostics are complete.
type Loss struct {
	// DiagnosticsDropped: defects found beyond the maxDiags distinct
	// diagnostics a run keeps. The kept ones are real; the list is short.
	DiagnosticsDropped int64
	// RecordsEvicted: shadow records pushed out of a region's list at
	// maxRecsPerRegion while they could still race. A conflict with one is
	// not reported (a possible false negative).
	RecordsEvicted int64
	// EdgeResets: times the table of Signal/atomic word clocks or of
	// collective signal clocks was emptied at its cap. A Wait, G, atomic or
	// collective receive that should have joined a forgotten clock joins
	// nothing, so the accesses it ordered can be reported as races that are
	// not (possible false positives).
	EdgeResets int64
}

func (l Loss) String() string {
	return fmt.Sprintf("%d diagnostics dropped, %d shadow records evicted, %d edge-table resets",
		l.DiagnosticsDropped, l.RecordsEvicted, l.EdgeResets)
}

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
	n  int
	vc []vclock

	// floor[i] = min over PEs q of vc[q][i] as of the last completed all-PEs
	// barrier: a lower bound on every clock from then on. floorGen counts
	// its recomputations; a region whose gen differs is swept on its next
	// access.
	floor    vclock
	floorGen uint32
	// lastPub[p] is p's own component the last time it published its clock
	// (Signal, AtomicEdge, SigSend, barrier entry): no other PE's component
	// p lies in (lastPub[p], vc[p][p]].
	lastPub []uint64

	heap     []regionState              // by owner PE: the dynamic symmetric heap
	static   map[regionKey]*regionState // static objects
	unfenced [][]*accessRec             // per writer: remote puts awaiting its fence
	free     []*accessRec               // retired records, reused before any is allocated

	loc        map[locKey]vclock
	edges      map[edgeKey]vclock
	locSwept   uint32 // floorGen when loc was last swept at its cap
	edgesSwept uint32

	barriers map[barKey]*Barrier
	freeBars []*Barrier
	spinSeq  int64
	locks    map[int64]int32 // lock offset (on PE 0) -> holder, or -1
	diags    []Diagnostic
	seen     map[diagKey]int
	loss     Loss

	examined int64 // records walked by access scans; read by the cost tests
}

// New returns a Checker for an npes-PE program.
func New(npes int) *Checker {
	c := &Checker{
		n:        npes,
		vc:       make([]vclock, npes),
		floor:    make(vclock, npes),
		lastPub:  make([]uint64, npes),
		heap:     make([]regionState, npes),
		static:   make(map[regionKey]*regionState),
		loc:      make(map[locKey]vclock),
		edges:    make(map[edgeKey]vclock),
		unfenced: make([][]*accessRec, npes),
		barriers: make(map[barKey]*Barrier),
		locks:    make(map[int64]int32),
		seen:     make(map[diagKey]int),
	}
	clocks := make(vclock, npes*npes)
	for i := range c.vc {
		c.vc[i] = clocks[i*npes : (i+1)*npes : (i+1)*npes]
	}
	for i := range c.heap {
		c.heap[i].puts.resetSpan()
		c.heap[i].gets.resetSpan()
	}
	return c
}

// PE returns the hook set for one PE. The hooks may be called from that
// PE's body only.
func (c *Checker) PE(pe int) *PEHooks { return &PEHooks{c: c, pe: int32(pe)} }

// Loss reports what the caps made the checker forget during the run.
func (c *Checker) Loss() Loss { return c.loss }

// Diagnostics returns the folded diagnostics, sorted for determinism
// (virtual time, then region, then kind). Note that for genuinely racy
// programs the PE/OtherPE orientation of a diagnostic can differ between
// runs — which access the checker observes first is exactly what the race
// leaves undefined.
func (c *Checker) Diagnostics() []Diagnostic {
	out := make([]Diagnostic, len(c.diags))
	copy(out, c.diags)
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(out []Diagnostic) {
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
}

// emit records a diagnostic, folding repeats of the same defect.
func (c *Checker) emit(d Diagnostic) {
	k := diagKey{d.Kind, int32(d.PE), int32(d.OtherPE), int32(d.TargetPE), d.SID, d.Offset}
	if i, ok := c.seen[k]; ok {
		c.diags[i].Count++
		return
	}
	if len(c.diags) >= maxDiags {
		c.loss.DiagnosticsDropped++
		return
	}
	d.Count = 1
	c.seen[k] = len(c.diags)
	c.diags = append(c.diags, d)
}

// conflict emits the diagnostic of rec, the access being checked, against
// the earlier record o — once per access o stands for.
func (c *Checker) conflict(kind Kind, rec, o *accessRec, sid int32) {
	d := Diagnostic{Kind: kind, PE: int(rec.pe), OtherPE: int(o.pe),
		TargetPE: int(rec.targetPE), SID: sid, Offset: rec.off, Bytes: rec.span(),
		Op: rec.op, OtherOp: o.op, VTime: rec.vt, OtherVT: o.vt}
	for m := int32(0); m < o.mult; m++ {
		c.emit(d)
	}
}

// tick advances pe's own clock component.
func (c *Checker) tick(pe int32) { c.vc[pe][pe]++ }

// publishing notes that pe is about to hand its clock, as it stands, to
// other PEs.
func (c *Checker) publishing(pe int32) { c.lastPub[pe] = c.vc[pe][pe] }

// raiseFloor recomputes floor from the PEs' clocks: O(n^2), once per all-PEs
// barrier, the order of the 2n clock joins the barrier itself cost.
func (c *Checker) raiseFloor() {
	copy(c.floor, c.vc[0])
	for _, v := range c.vc[1:] {
		for i, x := range v {
			if x < c.floor[i] {
				c.floor[i] = x
			}
		}
	}
	c.floorGen++
}

// settled reports that r is ordered and complete before every access any PE
// can still make: none of the conditions write and readShape test can hold
// against it again.
func (c *Checker) settled(r *accessRec) bool {
	return r.fenced && r.vis <= c.floor[r.pe]
}

// region returns the shadow state of (pe, sid), first dropping the records
// a floor raised since its last access has settled.
func (c *Checker) region(pe int, sid int32) *regionState {
	var rs *regionState
	if sid == DynamicSID {
		rs = &c.heap[pe]
	} else {
		k := regionKey{int32(pe), sid}
		if rs = c.static[k]; rs == nil {
			rs = &regionState{gen: c.floorGen}
			rs.puts.resetSpan()
			rs.gets.resetSpan()
			c.static[k] = rs
		}
	}
	if rs.gen != c.floorGen {
		rs.gen = c.floorGen
		c.retire(&rs.puts)
		c.retire(&rs.gets)
	}
	return rs
}

func (c *Checker) retire(l *recList) {
	live := l.live()
	k := 0
	l.resetSpan()
	for _, r := range live {
		if c.settled(r) {
			c.free = append(c.free, r)
			continue
		}
		live[k] = r
		k++
		l.widen(r)
	}
	l.keep(k)
}

// recSlab is how many records one allocation makes when the free list is
// empty.
const recSlab = 64

// newRec returns a record holding shape, recycled if one is free.
func (c *Checker) newRec(shape *accessRec) *accessRec {
	if len(c.free) == 0 {
		slab := make([]accessRec, recSlab)
		for i := range slab {
			c.free = append(c.free, &slab[i])
		}
	}
	r := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	*r = *shape
	return r
}

// unlist disposes of a record taken out of its region's list. A put its
// writer has not fenced yet is still on that writer's unfenced list and
// must outlive this; fence recycles it.
func (c *Checker) unlist(r *accessRec) {
	if r.fenced {
		c.free = append(c.free, r)
	} else {
		r.orphan = true
	}
}

// add appends a copy of shape to l in issue order, evicting the oldest
// record at the per-region cap (FIFO).
func (c *Checker) add(l *recList, shape *accessRec) *accessRec {
	if len(l.recs)-l.head >= maxRecsPerRegion {
		c.unlist(l.recs[l.head])
		c.loss.RecordsEvicted++
		l.head++
		if l.head >= maxRecsPerRegion {
			n := copy(l.recs, l.recs[l.head:])
			l.head = 0
			l.keep(n)
		}
	}
	r := c.newRec(shape)
	l.recs = append(l.recs, r)
	l.widen(r)
	return r
}

// fence marks every outstanding put of PE pe complete as of its current
// clock (the effect of Quiet/Fence, and of entering a barrier).
func (c *Checker) fence(pe int32) {
	vis := c.vc[pe][pe]
	for _, r := range c.unfenced[pe] {
		r.fenced, r.vis = true, vis
		if r.orphan {
			c.free = append(c.free, r)
		}
	}
	c.unfenced[pe] = c.unfenced[pe][:0]
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

// issue ticks the PE's clock and completes shape into the record of an
// access it makes now. Tick before taking the epoch so the record includes
// this very op: a PE that never synchronized with us must not dominate it.
func (h *PEHooks) issue(shape *accessRec, op string, targetPE int, vt vtime.Time) vclock {
	c := h.c
	c.tick(h.pe)
	v := c.vc[h.pe]
	shape.pe, shape.targetPE = h.pe, int32(targetPE)
	shape.epoch, shape.vt, shape.op, shape.mult = v[h.pe], vt, op, 1
	return v
}

// checkPuts diagnoses rec, an access by the PE whose clock is v, against
// the other PEs' puts in l: unordered ones are races (kind race), ordered
// ones the writer had not fenced before the ordering edge are kind unfenced.
// When rec is itself a put (compact), the same pass drops the same writer's
// earlier puts that rec fully supersedes, which can no longer be observed
// on their own.
func (c *Checker) checkPuts(l *recList, rec *accessRec, v vclock, sid int32, race, unfenced Kind, compact bool) {
	if l.misses(rec) {
		return
	}
	live := l.live()
	c.examined += int64(len(live))
	k := 0
	for i, p := range live {
		if p.pe == rec.pe {
			if compact && supersedes(rec, p) {
				c.unlist(p)
				continue
			}
		} else if (!p.fenced || p.vis > v[p.pe]) && p.overlaps(rec) {
			// Not complete before rec (a fence epoch is never below the issue
			// epoch, so this covers "not ordered before rec" too).
			if p.epoch > v[p.pe] {
				c.conflict(race, rec, p, sid)
			} else {
				c.conflict(unfenced, rec, p, sid)
			}
		}
		if k != i {
			live[k] = p
		}
		k++
	}
	l.keep(k)
}

func (h *PEHooks) write(op string, targetPE int, sid int32, rec accessRec, vt vtime.Time) {
	c := h.c
	v := h.issue(&rec, op, targetPE, vt)
	rs := c.region(targetPE, sid)
	c.checkPuts(&rs.puts, &rec, v, sid, RacePutPut, UnfencedPut, true)
	if !rs.gets.misses(&rec) {
		live := rs.gets.live()
		c.examined += int64(len(live))
		for _, g := range live {
			if g.pe != h.pe && g.epoch > v[g.pe] && g.overlaps(&rec) {
				c.conflict(RacePutGet, &rec, g, sid)
			}
		}
	}
	if int(h.pe) == targetPE {
		// The owner's stores to its own partition are coherent without an
		// explicit fence; ordering edges alone make them visible.
		rec.fenced, rec.vis = true, rec.epoch
	}
	r := c.add(&rs.puts, &rec)
	if !r.fenced {
		c.unfenced[h.pe] = append(c.unfenced[h.pe], r)
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

func (h *PEHooks) readShape(op string, targetPE int, sid int32, rec accessRec, vt vtime.Time) {
	c := h.c
	v := h.issue(&rec, op, targetPE, vt)
	rs := c.region(targetPE, sid)
	c.checkPuts(&rs.puts, &rec, v, sid, RacePutGet, UnfencedRead, false)
	// A repeat of the region's newest read, with nothing published by this
	// PE since: no clock anywhere holds a component of ours between the two
	// epochs, so every future write orders against both alike. Count it on
	// the record it repeats (the loop of identical puts from one source).
	// Its vt and op need not match: a conflict with it would share its
	// diagnostic key with the record's, emitted just before and first.
	if live := rs.gets.live(); len(live) > 0 {
		g := live[len(live)-1]
		if g.pe == h.pe && c.lastPub[h.pe] < g.epoch && g.sameShape(&rec) {
			g.mult++
			return
		}
	}
	rec.fenced, rec.vis = true, rec.epoch
	c.add(&rs.gets, &rec)
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

// published returns the clock accumulated at key k of m (c.loc or c.edges),
// making it on first use. At the cap, entries at or below the floor go
// first — joining one changes nobody's clock, and the next publication to
// its key rebuilds it exactly. Only if that frees nothing is the table
// emptied, which forgets edges: a later acquire joins nothing, and accesses
// the forgotten publication ordered can be diagnosed as races that are not.
// Loss.EdgeResets counts it.
func published[K comparable](c *Checker, m map[K]vclock, k K, limit int, swept *uint32) vclock {
	if v, ok := m[k]; ok {
		return v
	}
	if len(m) >= limit {
		if *swept != c.floorGen {
			*swept = c.floorGen
			for k, v := range m {
				if v.leq(c.floor) {
					delete(m, k)
				}
			}
		}
		if len(m) >= limit {
			clear(m)
			c.loss.EdgeResets++
		}
	}
	v := make(vclock, c.n)
	m[k] = v
	return v
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
		if int(r.targetPE) != targetPE {
			continue
		}
		if r.overlaps(&flag) {
			continue // the flag word itself
		}
		c.emit(Diagnostic{Kind: UnfencedSignal, PE: int(h.pe), OtherPE: int(h.pe),
			TargetPE: int(r.targetPE), SID: DynamicSID, Offset: r.off, Bytes: r.span(),
			Op: "P(flag)", OtherOp: r.op, VTime: vt, OtherVT: r.vt})
	}
	c.publishing(h.pe)
	published(c, c.loc, locKey{int32(targetPE), off}, maxLocEntries, &c.locSwept).join(c.vc[h.pe])
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
	c.publishing(h.pe)
	lv := published(c, c.loc, locKey{int32(targetPE), off}, maxLocEntries, &c.locSwept)
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
	c.publishing(h.pe)
	published(c, c.edges, edgeKey{int32(dst), tag}, maxEdgeEntries, &c.edgesSwept).join(c.vc[h.pe])
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
		if n := len(c.freeBars); n > 0 {
			b = c.freeBars[n-1]
			c.freeBars = c.freeBars[:n-1]
			clear(b.vc)
			*b = Barrier{key: k, vc: b.vc, size: size}
		} else {
			b = &Barrier{key: k, vc: make(vclock, c.n), size: size}
		}
		c.barriers[k] = b
	}
	c.publishing(h.pe)
	b.vc.join(c.vc[h.pe])
	b.entered++
	c.tick(h.pe)
	return b
}

// BarrierExit completes this PE's participation: its clock joins the merge
// of every participant's entry clock. The last PE out of an all-PEs barrier
// raises the floor: everything every PE fenced before entering is now
// ordered and complete before whatever anyone does next.
func (h *PEHooks) BarrierExit(b *Barrier) {
	if h == nil || b == nil {
		return
	}
	c := h.c
	c.vc[h.pe].join(b.vc)
	b.exited++
	c.tick(h.pe)
	if b.exited >= b.size {
		delete(c.barriers, b.key)
		c.freeBars = append(c.freeBars, b)
		if b.size == c.n {
			c.raiseFloor()
		}
	}
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
