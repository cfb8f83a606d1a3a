package sanitize

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tshmem/internal/vtime"
)

// twin drives the real checker and the reference (reference_test.go) with
// the same hook calls. Every call gets the next virtual time, so OtherVT
// names one earlier access exactly.
type twin struct {
	c   *Checker
	ref *refChecker
	h   []*PEHooks
	rh  []*refHooks
	vt  vtime.Time
}

func newTwin(npes int) *twin {
	t := &twin{c: New(npes), ref: newRef(npes)}
	for pe := 0; pe < npes; pe++ {
		t.h = append(t.h, t.c.PE(pe))
		t.rh = append(t.rh, t.ref.PE(pe))
	}
	return t
}

func (t *twin) tick() vtime.Time { t.vt++; return t.vt }

// The hooks an access goes through.
const (
	accWrite = iota
	accRead
	accWriteStrided
	accReadStrided
	accReadElem
)

// access is one Write/Read/strided/ReadElem call, kept so a PE can repeat
// it.
type access struct {
	kind        int // accWrite ... accReadElem
	op          string
	target      int
	sid         int32
	off, stride int64
	nelems      int
	es          int64 // element size; the whole length when contiguous
}

func (t *twin) issue(pe int, a *access) {
	vt := t.tick()
	switch a.kind {
	case accWrite:
		t.h[pe].Write(a.op, a.target, a.sid, a.off, a.es, vt)
		t.rh[pe].Write(a.op, a.target, a.sid, a.off, a.es, vt)
	case accRead:
		t.h[pe].Read(a.op, a.target, a.sid, a.off, a.es, vt)
		t.rh[pe].Read(a.op, a.target, a.sid, a.off, a.es, vt)
	case accWriteStrided:
		t.h[pe].WriteStrided(a.op, a.target, a.sid, a.off, a.stride, a.nelems, a.es, vt)
		t.rh[pe].WriteStrided(a.op, a.target, a.sid, a.off, a.stride, a.nelems, a.es, vt)
	case accReadStrided:
		t.h[pe].ReadStrided(a.op, a.target, a.sid, a.off, a.stride, a.nelems, a.es, vt)
		t.rh[pe].ReadStrided(a.op, a.target, a.sid, a.off, a.stride, a.nelems, a.es, vt)
	case accReadElem:
		t.h[pe].ReadElem(a.target, a.off, a.es, vt)
		t.rh[pe].ReadElem(a.target, a.off, a.es, vt)
	}
}

// openBarrier is the one barrier instance a schedule has in flight: members
// enter in any order, nobody leaves before all have entered, and whoever is
// not inside keeps issuing accesses — between the entries and, which is
// what retirement has to get right, between the exits.
type openBarrier struct {
	start, logStride, size int
	gen                    uint32
	spin                   bool
	state                  []int // per PE: 0 outside the set, 1 to enter, 2 inside, 3 left
	entered, left          int
	tok                    []*Barrier
	refTok                 []*refBarrier
}

func (t *twin) enter(pe int, b *openBarrier) {
	if b.spin {
		b.tok[pe], b.refTok[pe] = t.h[pe].SpinEnter(), t.rh[pe].SpinEnter()
	} else {
		b.tok[pe] = t.h[pe].BarrierEnter(b.start, b.logStride, b.size, b.gen)
		b.refTok[pe] = t.rh[pe].BarrierEnter(b.start, b.logStride, b.size, b.gen)
	}
	b.state[pe] = 2
	b.entered++
}

func (t *twin) exit(pe int, b *openBarrier) {
	t.h[pe].BarrierExit(b.tok[pe])
	t.rh[pe].BarrierExit(b.refTok[pe])
	b.state[pe] = 3
	b.left++
}

// schedule is one seeded random hook schedule and the address space it
// draws from.
type schedule struct {
	rng   *rand.Rand
	npes  int
	plain bool    // no all-PEs barrier and no repeated access: nothing retires or folds
	bases []int64 // where accesses start from; one base is the 256 B space
	sids  []int32
	last  []*access // per PE: its previous access
	gens  map[[3]int]uint32
	bar   *openBarrier
	t     *twin
}

var (
	writeOps = []string{"Put", "Get(dst)"}
	readOps  = []string{"Get", "Put(src)"}
)

func (s *schedule) offset() int64 {
	return s.bases[s.rng.Intn(len(s.bases))] + 8*int64(s.rng.Intn(32))
}

func (s *schedule) newAccess() *access {
	rng := s.rng
	a := &access{
		target: rng.Intn(s.npes),
		sid:    s.sids[rng.Intn(len(s.sids))],
		off:    s.offset(),
	}
	switch k := rng.Intn(100); {
	case k < 35:
		a.kind, a.op, a.es = accWrite, writeOps[rng.Intn(2)], 8<<rng.Intn(5)
	case k < 70:
		a.kind, a.op, a.es = accRead, readOps[rng.Intn(2)], 8<<rng.Intn(5)
	case k < 80:
		a.kind, a.op = accWriteStrided, "IPut"
	case k < 90:
		a.kind, a.op = accReadStrided, "IGet"
	default:
		a.kind, a.sid, a.es = accReadElem, DynamicSID, 8
	}
	if a.kind == accWriteStrided || a.kind == accReadStrided {
		a.es = 8
		a.stride = 8 * int64(1+rng.Intn(4))
		a.nelems = 1 + rng.Intn(6)
	}
	return a
}

// step makes one move of a randomly chosen PE.
func (s *schedule) step() {
	rng, t := s.rng, s.t
	pe := rng.Intn(s.npes)
	if b := s.bar; b != nil {
		switch b.state[pe] {
		case 2:
			if b.entered == b.size {
				t.exit(pe, b)
				if b.left == b.size {
					s.bar = nil
				}
			}
			return // otherwise blocked inside
		case 1:
			if rng.Intn(2) == 0 {
				t.enter(pe, b)
				return
			}
		}
	}
	// One step in three repeats this PE's previous access 1-6 times: the
	// fold's case, with whatever the PE published or joined in between.
	if a := s.last[pe]; a != nil && !s.plain && rng.Intn(3) == 0 {
		for i := 1 + rng.Intn(6); i > 0; i-- {
			t.issue(pe, a)
		}
		return
	}
	// Synchronization words are few, so that publications find acquirers.
	flag := s.bases[rng.Intn(len(s.bases))] + 8*int64(rng.Intn(3))
	switch k := rng.Intn(100); {
	case k < 40:
		a := s.newAccess()
		s.last[pe] = a
		t.issue(pe, a)
	case k < 50:
		t.h[pe].Quiet()
		t.rh[pe].Quiet()
	case k < 59:
		to, vt := rng.Intn(s.npes), t.tick()
		t.h[pe].Signal(to, flag, 8, vt)
		t.rh[pe].Signal(to, flag, 8, vt)
	case k < 68:
		t.h[pe].WaitEdge(flag)
		t.rh[pe].WaitEdge(flag)
	case k < 76:
		to := rng.Intn(s.npes)
		t.h[pe].AtomicEdge(to, flag)
		t.rh[pe].AtomicEdge(to, flag)
	case k < 80:
		to, tag := rng.Intn(s.npes), uint32(rng.Intn(3))
		t.h[pe].SigSend(to, tag)
		t.rh[pe].SigSend(to, tag)
	case k < 84:
		tag := uint32(rng.Intn(3))
		t.h[pe].SigRecv(tag)
		t.rh[pe].SigRecv(tag)
	case k < 88:
		// Locks live on PE 0 and share the flag words, so LockAcquired finds
		// clocks AtomicEdge(0, off) left.
		vt := t.tick()
		switch rng.Intn(3) {
		case 0:
			if got, want := t.h[pe].LockSelfAcquire(flag, vt), t.rh[pe].LockSelfAcquire(flag, vt); got != want {
				panic(fmt.Sprintf("LockSelfAcquire = %v, reference says %v", got, want))
			}
		case 1:
			t.h[pe].LockAcquired(flag)
			t.rh[pe].LockAcquired(flag)
		default:
			t.h[pe].LockRelease(flag, vt)
			t.rh[pe].LockRelease(flag, vt)
		}
	default:
		if s.bar == nil {
			s.openBarrier(pe)
		}
	}
}

// openBarrier starts a barrier with pe as its first arrival: over all PEs
// (half the time; one in five of those the spin barrier) or over a strided
// subset containing pe.
func (s *schedule) openBarrier(pe int) {
	rng := s.rng
	b := &openBarrier{size: s.npes, state: make([]int, s.npes),
		tok: make([]*Barrier, s.npes), refTok: make([]*refBarrier, s.npes)}
	if !s.plain && rng.Intn(2) == 0 {
		b.spin = rng.Intn(5) == 0
	} else {
		b.logStride = rng.Intn(2)
		stride := 1 << b.logStride
		before := rng.Intn(pe/stride + 1) // members below pe
		b.start = pe - stride*before
		b.size = before + 1 + rng.Intn((s.npes-1-pe)/stride+1)
		if s.plain && b.size == s.npes {
			return
		}
	}
	for i := 0; i < b.size; i++ {
		b.state[b.start+i<<b.logStride] = 1
	}
	if !b.spin {
		k := [3]int{b.start, b.logStride, b.size}
		s.gens[k]++
		b.gen = s.gens[k]
	}
	s.bar = b
	s.t.enter(pe, b)
}

// runSchedule plays the schedule of seed against both checkers.
func runSchedule(seed int64) *twin {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{rng: rng, npes: 2 + rng.Intn(5), gens: make(map[[3]int]uint32)}
	s.t = newTwin(s.npes)
	s.last = make([]*access, s.npes)
	// A small space where everything collides, or a large one with a few
	// islands; static and dynamic regions, or the heap alone.
	s.bases = []int64{0}
	if rng.Intn(2) == 0 {
		s.bases = []int64{0, 4096, 1 << 20, 1 << 32}
	}
	s.sids = []int32{DynamicSID}
	if rng.Intn(3) > 0 {
		s.sids = []int32{DynamicSID, DynamicSID, 0, 1}
	}
	// Most schedules stay under the per-region cap, where the diagnostics
	// must match exactly. One in eight is long enough for the reference to
	// evict, and every other one of those is plain and longer still, so that
	// the real checker evicts too.
	steps := 30 + rng.Intn(400)
	if rng.Intn(8) == 0 {
		steps = 1500 + rng.Intn(1500)
		if s.plain = rng.Intn(2) == 0; s.plain {
			steps *= 3
		}
	}
	for i := 0; i < steps; i++ {
		s.step()
	}
	return s.t
}

// checkDifferential runs one schedule and compares the diagnostics. Where
// the reference evicted nothing they must be equal field by field (kinds,
// PEs, offsets, OtherVT, Count, order); where it did, the real checker —
// which keeps a superset of the reference's records at every step — must
// report at least every diagnostic the reference does, at least as often.
func checkDifferential(t *testing.T, seed int64) (diags int, exact bool) {
	tw := runSchedule(seed)
	got, want := tw.c.Diagnostics(), tw.ref.Diagnostics()
	if tw.ref.evicted == 0 {
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: diagnostics differ from the reference checker's\n got (%d): %v\nwant (%d): %v",
				seed, len(got), got, len(want), want)
		}
		if loss := tw.c.Loss(); loss != (Loss{DiagnosticsDropped: tw.ref.dropped}) {
			t.Fatalf("seed %d: Loss = %+v, reference evicted nothing and dropped %d", seed, loss, tw.ref.dropped)
		}
		return len(got), true
	}
	if ev := tw.c.Loss().RecordsEvicted; ev > tw.ref.evicted {
		t.Fatalf("seed %d: evicted %d records, more than the reference's %d", seed, ev, tw.ref.evicted)
	}
	if len(got) >= maxDiags {
		return len(got), false // which diagnostics fit under the cap is order-dependent
	}
	count := make(map[diagKey]int, len(got))
	for _, d := range got {
		count[diagKey{d.Kind, int32(d.PE), int32(d.OtherPE), int32(d.TargetPE), d.SID, d.Offset}] = d.Count
	}
	for _, d := range want {
		k := diagKey{d.Kind, int32(d.PE), int32(d.OtherPE), int32(d.TargetPE), d.SID, d.Offset}
		if count[k] < d.Count {
			t.Fatalf("seed %d: reference (which evicted %d records) reports %v; real checker has it %d times",
				seed, tw.ref.evicted, d, count[k])
		}
	}
	return len(got), false
}

// TestCheckerDifferential holds the checker's diagnostics to the reference
// checker's — the parent implementation with a clock snapshot per record
// and no retirement, fold, span filter or recycling — over seeded random
// hook schedules on 2-6 PEs.
//
// Mutation check, made when this was written: each of these guards removed
// from sanitize.go fails this test, first at the listed seeds (the first two
// of each line fail for that guard alone). They are in the fuzz corpus, with
// one seed per publication site whose lastPub update was removed (Signal 81,
// AtomicEdge 275, SigSend 45, barrier entry 45) and two on which the real
// checker evicts (2, 60).
//
//	(a) the lastPub guard of the fold in readShape:        28 41 12 17 19
//	(b) the "fenced &&" half of settled (put retirement):  16 25 21 22 31
//	(c) the per-multiplicity re-emit loop in conflict:     9 11 12 18 19
func TestCheckerDifferential(t *testing.T) {
	seeds := int64(2400)
	var diags, exact int
	for seed := int64(1); seed <= seeds; seed++ {
		n, ex := checkDifferential(t, seed)
		diags += n
		if ex {
			exact++
		}
	}
	t.Logf("%d schedules, %d compared exactly (the reference evicted in the rest), %d diagnostics", seeds, exact, diags)
	if exact < 2000 {
		t.Errorf("only %d schedules were compared exactly, want >= 2000", exact)
	}
}

// FuzzCheckerDifferential is TestCheckerDifferential over fuzzer-chosen
// schedule seeds.
func FuzzCheckerDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) { checkDifferential(t, seed) })
}
