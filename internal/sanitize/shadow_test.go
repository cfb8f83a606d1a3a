package sanitize

import (
	"reflect"
	"testing"
	"unsafe"

	"tshmem/internal/vtime"
)

// TestRecordShape: a shadow record is a few words, not a clock. A slice in
// it is a per-access allocation and an O(NPEs) ordering test coming back.
func TestRecordShape(t *testing.T) {
	if sz := unsafe.Sizeof(accessRec{}); sz > 96 {
		t.Errorf("accessRec is %d bytes, want <= 96", sz)
	}
	typ := reflect.TypeOf(accessRec{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Slice {
			t.Errorf("accessRec.%s is a slice (%v); records carry epochs, not clocks", f.Name, f.Type)
		}
	}
}

// TestFoldKeepsCount: reads that repeat the newest read share one record
// and a later conflict still counts every one of them; a publication by the
// reader ends the fold, because a PE that acquired it is ordered after the
// reads before it and not after the ones that follow.
func TestFoldKeepsCount(t *testing.T) {
	c := New(3)
	h0, h1, h2 := c.PE(0), c.PE(1), c.PE(2)
	for i := 0; i < 5; i++ {
		h0.Read("Put(src)", 0, DynamicSID, 0, 64, vtime.Time(10+i))
	}
	if n := len(c.heap[0].gets.live()); n != 1 {
		t.Fatalf("5 identical reads kept %d records, want 1", n)
	}
	h0.Signal(1, 4096, 8, 20) // publishes PE 0's clock, the 5 reads in it
	for i := 0; i < 3; i++ {
		h0.Read("Put(src)", 0, DynamicSID, 0, 64, vtime.Time(30+i))
	}
	if n := len(c.heap[0].gets.live()); n != 2 {
		t.Fatalf("reads either side of a publication kept %d records, want 2", n)
	}
	h1.WaitEdge(4096)
	h1.Write("Put", 0, DynamicSID, 0, 64, 40) // after the first 5, races with the last 3
	h2.Write("Put", 0, DynamicSID, 0, 64, 50) // races with all 8 (and with PE 1's put)
	var got []int
	for _, d := range c.Diagnostics() {
		if d.Kind == RacePutGet {
			got = append(got, d.PE, d.Count, int(d.OtherVT))
		}
	}
	if want := []int{1, 3, 30, 2, 8, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("race:put/get (PE, Count, OtherVT) = %v, want %v", got, want)
	}
}

// TestEvictionFIFO drives one list past the cap with puts that nothing can
// retire (their writer never fences, no barrier runs): the oldest go first,
// every one is counted, the survivors stay in issue order across the
// list's closing-up, and an evicted put — still unfenced, so still on its
// writer's list for Signal to find — is not recycled before the fence.
func TestEvictionFIFO(t *testing.T) {
	const total = 3*maxRecsPerRegion + 10
	c := New(2)
	h0, h1 := c.PE(0), c.PE(1)
	for i := 0; i < total; i++ {
		h0.Write("Put", 1, DynamicSID, int64(i)*16, 8, vtime.Time(i+1))
	}
	if got := c.Loss(); got != (Loss{RecordsEvicted: total - maxRecsPerRegion}) {
		t.Fatalf("Loss = %+v, want %d records evicted and nothing else", got, total-maxRecsPerRegion)
	}
	live := c.heap[1].puts.live()
	if len(live) != maxRecsPerRegion {
		t.Fatalf("list holds %d records, want the cap %d", len(live), maxRecsPerRegion)
	}
	for i, r := range live {
		if want := int64(total-maxRecsPerRegion+i) * 16; r.off != want {
			t.Fatalf("record %d is the put at %d, want %d (newest %d in issue order)", i, r.off, want, maxRecsPerRegion)
		}
	}
	h0.Signal(1, 1<<20, 8, total+1)
	signals := make(map[int64]bool)
	for _, d := range c.Diagnostics() {
		if d.Kind == UnfencedSignal {
			signals[d.Offset] = true
		}
	}
	if len(signals) != total {
		t.Errorf("Signal named %d distinct unfenced puts, want all %d (evicted ones included)", len(signals), total)
	}
	h1.Read("Get", 1, DynamicSID, 0, total*16, total+2)
	for _, d := range c.Diagnostics() {
		if d.Kind == RacePutGet && (d.Count != maxRecsPerRegion || d.OtherVT != total-maxRecsPerRegion+1) {
			t.Errorf("read races with %d puts, oldest at vt %v; want the %d kept, oldest at vt %d",
				d.Count, d.OtherVT, maxRecsPerRegion, total-maxRecsPerRegion+1)
		}
	}
	free := len(c.free)
	h0.Quiet()
	if got := len(c.free) - free; got != total-maxRecsPerRegion {
		t.Errorf("the fence recycled %d evicted puts, want %d", got, total-maxRecsPerRegion)
	}
}

// signalStorm has PE 0 complete a put to PE 1 and publish it on a flag
// word, then signal more distinct words than the table of word clocks holds,
// in four batches — separated by all-PEs barriers or not — and finally has
// PE 1 wait on the first flag and read the data.
func signalStorm(barriers bool) *Checker {
	const flag0, batches = int64(1 << 20), 4
	c := New(2)
	h0, h1 := c.PE(0), c.PE(1)
	vt := vtime.Time(0)
	h0.Write("Put", 1, DynamicSID, 0, 64, 1)
	h0.Quiet()
	word := flag0
	for b := 0; b < batches; b++ {
		for i := 0; i < maxLocEntries/batches+1; i++ {
			vt++
			h0.Signal(1, word, 8, vt)
			word += 8
		}
		if barriers {
			t0, t1 := h0.BarrierEnter(0, 0, 2, uint32(b)), h1.BarrierEnter(0, 0, 2, uint32(b))
			h0.BarrierExit(t0)
			h1.BarrierExit(t1)
		}
	}
	h1.WaitEdge(flag0)
	h1.Read("Get", 1, DynamicSID, 0, 64, vt+1)
	return c
}

// TestEdgeResetReported: emptying the table of published clocks at its cap
// is reported, because it can invent a race — the waiter joins nothing and
// its read of properly published data is diagnosed. The same program with
// barriers between the batches never gets there: entries at or below the
// floor go first.
func TestEdgeResetReported(t *testing.T) {
	c := signalStorm(false)
	if got := c.Loss(); got != (Loss{EdgeResets: 1}) {
		t.Errorf("Loss = %+v, want exactly one edge reset", got)
	}
	if d := c.Diagnostics(); len(d) != 1 || d[0].Kind != RacePutGet {
		t.Errorf("diagnostics after a reset = %v, want the one false race:put/get it invents", d)
	}

	c = signalStorm(true)
	if got := c.Loss(); got != (Loss{}) {
		t.Errorf("barrier-separated: Loss = %+v, want none", got)
	}
	if d := c.Diagnostics(); len(d) != 0 {
		t.Errorf("barrier-separated: diagnostics = %v, want none", d)
	}
}

// phased is a barrier-separated SPMD program at hook level. In each phase
// every PE puts one block four times over to its right neighbour's buffer
// of that phase's parity (the benchmark's loop of identical puts) and
// quiets; then every PE reads back what the previous phase's put left in
// its own other buffer and gets a block from its left neighbour; then all
// PEs meet in a barrier. It is race-free.
type phased struct {
	c     *Checker
	h     []*PEHooks
	toks  []*Barrier
	phase uint32
	vt    vtime.Time
}

func newPhased(npes int) *phased {
	p := &phased{c: New(npes), toks: make([]*Barrier, npes)}
	for pe := 0; pe < npes; pe++ {
		p.h = append(p.h, p.c.PE(pe))
	}
	return p
}

// run performs one phase and returns how many shadow records its accesses
// examined.
func (p *phased) run() int64 {
	const src, block, tmp = 0, 256, 1 << 20
	bufs := [2]int64{8192, 12288}
	n := len(p.h)
	p.phase++
	before := p.c.examined
	for pe, h := range p.h {
		p.vt++
		for k := 0; k < 4; k++ {
			h.Write("Put", (pe+1)%n, DynamicSID, bufs[p.phase%2], block, p.vt)
			h.Read("Put(src)", pe, DynamicSID, src, block, p.vt)
		}
		h.Quiet()
	}
	for pe, h := range p.h {
		p.vt++
		h.Read("Put(src)", pe, DynamicSID, bufs[(p.phase+1)%2], block, p.vt)
		h.Read("Get", (pe+n-1)%n, DynamicSID, src, block, p.vt)
		h.Write("Get(dst)", pe, DynamicSID, tmp, block, p.vt)
	}
	examined := p.c.examined - before
	for pe, h := range p.h {
		p.toks[pe] = h.BarrierEnter(0, 0, n, p.phase)
	}
	for pe, h := range p.h {
		h.BarrierExit(p.toks[pe])
	}
	return examined
}

// TestCostByCount: what an access costs is the records that can still race
// with it — not how long the run has been going, not how many PEs it has,
// and never an allocation.
func TestCostByCount(t *testing.T) {
	// Retirement: the hundredth phase examines what the second did. (The
	// reference checker's lists climb to the cap and stay there.)
	p := newPhased(16)
	p.run()
	second := p.run()
	var last int64
	for i := 3; i <= 100; i++ {
		last = p.run()
	}
	if second == 0 || last > second {
		t.Errorf("16 PEs: phase 100 examined %d records, phase 2 examined %d; want no growth (and a scan at all)", last, second)
	}
	if d := p.c.Diagnostics(); len(d) != 0 || p.c.Loss() != (Loss{}) {
		t.Fatalf("the phased program is not clean: %v, loss %+v", d, p.c.Loss())
	}

	// Epochs and recycling: the same program on 64x the PEs examines the
	// same number of records per PE, and a steady-state phase — records,
	// barrier accumulators, list storage all reused — allocates nothing.
	for _, npes := range []int{16, 1024} {
		p := newPhased(npes)
		for i := 0; i < 4; i++ {
			p.run()
		}
		var examined int64
		allocs := testing.AllocsPerRun(3, func() { examined = p.run() })
		if allocs != 0 {
			t.Errorf("%d PEs: a steady-state phase allocates %v times, want 0", npes, allocs)
		}
		if want := second / 16 * int64(npes); examined != want {
			t.Errorf("%d PEs: a phase examined %d records, want %d (%d per PE, as at 16 PEs)", npes, examined, want, second/16)
		}
	}
}
