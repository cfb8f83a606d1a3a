package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tshmem/internal/vtime"
)

func TestCountersAddAggregates(t *testing.T) {
	var a, b, sum Counters
	a.Ops[OpPut] = 3
	a.OpTimePs[OpPut] = 1500
	a.UDNMsgsSent = 7
	a.MeshHops = 12
	a.RMABytes[SameChip] = 4096
	a.RMAOps[SameChip] = 2
	a.CacheCopies[CacheDDC] = 5
	a.CacheBytes[CacheDDC] = 640
	b.Ops[OpPut] = 1
	b.Ops[OpBarrier] = 4
	b.UDNMsgsSent = 3
	b.BarrierRounds = 9
	b.TraceDropped = 2

	sum.Add(&a)
	sum.Add(&b)
	if sum.Ops[OpPut] != 4 || sum.Ops[OpBarrier] != 4 {
		t.Errorf("op counts: put=%d barrier=%d", sum.Ops[OpPut], sum.Ops[OpBarrier])
	}
	if sum.OpTimePs[OpPut] != 1500 || sum.UDNMsgsSent != 10 || sum.MeshHops != 12 {
		t.Errorf("scalar fold: %+v", sum)
	}
	if sum.RMABytes[SameChip] != 4096 || sum.RMAOps[SameChip] != 2 {
		t.Errorf("rma fold: %+v", sum.RMABytes)
	}
	if sum.CacheCopies[CacheDDC] != 5 || sum.BarrierRounds != 9 || sum.TraceDropped != 2 {
		t.Errorf("cache/barrier/dropped fold: %+v", sum)
	}
	if sum.CacheHits() != 5 || sum.CacheMisses() != 0 || sum.TotalRMABytes() != 4096 {
		t.Errorf("derived: hits=%d misses=%d rma=%d",
			sum.CacheHits(), sum.CacheMisses(), sum.TotalRMABytes())
	}
}

func TestCollectorFold(t *testing.T) {
	var col Collector
	var c Counters
	c.Ops[OpGet] = 2
	col.Fold(c)
	col.Fold(c)
	runs, agg := col.Snapshot()
	if runs != 2 || agg.Ops[OpGet] != 4 {
		t.Fatalf("runs=%d get=%d, want 2 and 4", runs, agg.Ops[OpGet])
	}
}

// TestNilRecorderNoAllocs is the regression test for the disabled fast
// path: with observability off every PE carries a nil *Recorder, and the
// instrumented substrate must not allocate (or panic) calling into it.
func TestNilRecorderNoAllocs(t *testing.T) {
	var rec *Recorder
	var clock vtime.Clock
	n := testing.AllocsPerRun(100, func() {
		rec.UDNSend(4, 3, 120)
		rec.UDNRecv(4)
		rec.UDNRecvWait(4, 80)
		rec.UDNInterrupt(2, 1, 5)
		rec.BarrierRound()
		rec.BarrierWait(60)
		rec.RMA(SameChip, 4096, 900)
		rec.CacheCopy(CacheL2, 4096, 700)
		rec.OpDone(OpPut, clock.Now(), &clock, 4096, 1)
	})
	if n != 0 {
		t.Fatalf("nil-recorder path allocates %.1f times per run, want 0", n)
	}
	if rec.PE() != -1 || rec.Tracing() || rec.Events() != nil {
		t.Errorf("nil accessors: pe=%d tracing=%v events=%v",
			rec.PE(), rec.Tracing(), rec.Events())
	}
	if c := rec.Counters(); !c.Equal(&Counters{}) {
		t.Errorf("nil Counters() not zero: %+v", c)
	}
}

// A recorder made by NewIn counts into the caller's block — the launcher's
// slab element — so the launcher reads the totals without copying them out.
func TestNewInRecordsIntoCallersBlock(t *testing.T) {
	slab := make([]Counters, 2)
	rec := NewIn(&slab[1], 1, false, 0)
	rec.UDNRecv(3)
	rec.RMA(SameChip, 64, 900)
	if slab[1].UDNWordsRecvd != 3 || slab[1].Hists[HistForRMA(SameChip)].Count != 1 {
		t.Errorf("the caller's block missed the recorder's updates: %+v", slab[1].Map())
	}
	if c := rec.Counters(); !slab[1].Equal(&c) {
		t.Error("Counters() differs from the caller's block")
	}
	if !slab[0].Equal(&Counters{}) {
		t.Error("the recorder wrote a neighbouring block")
	}
}

// Counting without tracing must also stay allocation-free: the counter
// block is allocated once, with the Recorder.
func TestCountingRecorderNoAllocs(t *testing.T) {
	rec := New(0, false, 0)
	var clock vtime.Clock
	n := testing.AllocsPerRun(100, func() {
		rec.UDNSend(4, 3, 120)
		rec.UDNRecvWait(4, 80)
		rec.RMA(SameChip, 4096, 900)
		rec.OpDone(OpPut, clock.Now(), &clock, 32, 1)
	})
	if n != 0 {
		t.Fatalf("counting path allocates %.1f times per run, want 0", n)
	}
}

func TestRecorderTraceCap(t *testing.T) {
	rec := New(3, true, 2)
	var clock vtime.Clock
	for i := 0; i < 5; i++ {
		start := clock.Now()
		clock.Advance(10)
		rec.OpDone(OpBarrier, start, &clock, 0, int(NoPeer))
	}
	if got := len(rec.Events()); got != 2 {
		t.Fatalf("buffered %d events, want cap 2", got)
	}
	c := rec.Counters()
	if c.TraceDropped != 3 {
		t.Errorf("TraceDropped = %d, want 3", c.TraceDropped)
	}
	if c.Ops[OpBarrier] != 5 {
		t.Errorf("dropped events must still count: Ops[barrier] = %d, want 5", c.Ops[OpBarrier])
	}
	if rec.PE() != 3 || !rec.Tracing() {
		t.Errorf("accessors: pe=%d tracing=%v", rec.PE(), rec.Tracing())
	}
}

func TestOpDoneReadsClockAtCallTime(t *testing.T) {
	rec := New(0, true, 0)
	var clock vtime.Clock
	start := clock.Now()
	clock.Advance(250)
	rec.OpDone(OpGet, start, &clock, 8, 1)
	evs := rec.Events()
	if len(evs) != 1 || evs[0].End.Sub(evs[0].Start) != 250 {
		t.Fatalf("event span = %v, want 250 ps", evs)
	}
	if rec.Counters().OpTimePs[OpGet] != 250 {
		t.Errorf("OpTimePs = %d, want 250", rec.Counters().OpTimePs[OpGet])
	}
}

func TestMergeEventsOrder(t *testing.T) {
	perPE := [][]Event{
		{{PE: 0, Op: OpPut, Start: 10, End: 20}, {PE: 0, Op: OpGet, Start: 30, End: 40}},
		{{PE: 1, Op: OpBarrier, Start: 5, End: 50}, {PE: 1, Op: OpPut, Start: 30, End: 35}},
	}
	m := MergeEvents(perPE)
	if len(m) != 4 {
		t.Fatalf("merged %d events, want 4", len(m))
	}
	for i := 1; i < len(m); i++ {
		if m[i].Start < m[i-1].Start {
			t.Fatalf("not start-ordered at %d: %+v", i, m)
		}
	}
	// Tie at Start=30: lower PE first.
	if m[2].PE != 0 || m[3].PE != 1 {
		t.Errorf("tie-break by PE failed: %+v", m[2:])
	}
}

// traceFile mirrors the Chrome trace_event JSON Object Format for decoding.
type traceFile struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args struct {
			Name  string `json:"name"`
			Bytes int64  `json:"bytes"`
			Peer  int32  `json:"peer"`
		} `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteTraceWellFormed(t *testing.T) {
	events := MergeEvents([][]Event{
		{{PE: 0, Op: OpPut, Start: 1_000_000, End: 3_000_000, Bytes: 64, Peer: 1}},
		{{PE: 1, Op: OpBarrier, Start: 500_000, End: 4_000_000, Peer: NoPeer}},
	})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	lastTs := -1.0
	for _, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Cat != "tshmem" {
				t.Errorf("cat = %q", e.Cat)
			}
			if e.Ts < lastTs {
				t.Errorf("X events not ts-ordered: %f after %f", e.Ts, lastTs)
			}
			lastTs = e.Ts
		default:
			t.Errorf("unexpected ph %q", e.Ph)
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("meta=%d complete=%d, want 2 and 2", meta, complete)
	}
	// The barrier started at 500000 ps = 0.5 µs and spans 3.5 µs.
	first := f.TraceEvents[meta].Ts
	if first != 0.5 {
		t.Errorf("first X ts = %f µs, want 0.5", first)
	}
	// The put carries its payload size and peer.
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && e.Name == "put" {
			if e.Args.Bytes != 64 || e.Args.Peer != 1 {
				t.Errorf("put args = %+v", e.Args)
			}
		}
	}
}

func TestCoverage(t *testing.T) {
	events := []Event{
		{PE: 0, Op: OpBarrier, Start: 0, End: 40},
		{PE: 0, Op: OpPut, Start: 10, End: 30}, // nested: must not double-count
		{PE: 0, Op: OpGet, Start: 60, End: 80},
		{PE: 1, Op: OpPut, Start: 0, End: 100}, // other PE: ignored
	}
	got := Coverage(events, 0, 0, 100)
	if want := 0.6; got != want { // [0,40) ∪ [60,80) = 60 of 100
		t.Errorf("coverage = %f, want %f", got, want)
	}
	if c := Coverage(events, 0, 0, 40); c != 1 {
		t.Errorf("fully covered window = %f, want 1", c)
	}
	if c := Coverage(nil, 0, 0, 100); c != 0 {
		t.Errorf("empty trace coverage = %f, want 0", c)
	}
	if c := Coverage(events, 0, 50, 50); c != 0 {
		t.Errorf("empty window coverage = %f, want 0", c)
	}
}

func TestTable(t *testing.T) {
	var c Counters
	if got := c.Table(); got != "  (no substrate events recorded)\n" {
		t.Errorf("empty table = %q", got)
	}
	c.Ops[OpPut] = 2
	c.UDNMsgsSent = 5
	tab := c.Table()
	if !bytes.Contains([]byte(tab), []byte("ops.put")) ||
		!bytes.Contains([]byte(tab), []byte("udn.msgs_sent")) {
		t.Errorf("table missing rows:\n%s", tab)
	}
	if bytes.Contains([]byte(tab), []byte("ops.get")) {
		t.Errorf("table must omit zero rows:\n%s", tab)
	}
}

// mergeEventsOracle is MergeEvents as it was first written — one stable
// sort over the concatenated buffers — kept as the reference the k-way
// merge must reproduce element for element.
func mergeEventsOracle(perPE [][]Event) []Event {
	var out []Event
	for _, evs := range perPE {
		out = append(out, evs...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].PE != out[j].PE {
			return out[i].PE < out[j].PE
		}
		return out[i].End > out[j].End
	})
	return out
}

// spanTree appends a random span forest over [from, to) to buf the way a
// recorder would: every span after the spans it contains, at completion.
// Times are multiples of a coarse quantum, so spans of different PEs start
// together, a child often starts (and ends) with its parent, and zero-
// length spans tie completely. Bytes numbers the events in append order,
// which makes any reordering of equal events visible.
func spanTree(rng *rand.Rand, buf []Event, pe int32, from, to vtime.Time, depth int) []Event {
	const quantum = 100
	for t := from; t < to; {
		start := t + vtime.Time(rng.Intn(2)*quantum)
		end := start + vtime.Time(rng.Intn(4)*quantum)
		if end > to {
			end = to
		}
		if start > end {
			break
		}
		if depth < 3 && rng.Intn(2) == 0 {
			buf = spanTree(rng, buf, pe, start, end, depth+1)
		}
		buf = append(buf, Event{
			PE: pe, Op: Op(rng.Intn(int(NumOps))), Start: start, End: end,
			Bytes: int64(len(buf)), Peer: NoPeer,
		})
		t = end
		if rng.Intn(3) == 0 {
			t += quantum
		}
	}
	return buf
}

// mergeInput draws k event buffers from rng. With tied set every event of
// every buffer compares equal, so the output order is the input order alone.
func mergeInput(rng *rand.Rand, k int, tied bool) [][]Event {
	perPE := make([][]Event, k)
	for pe := range perPE {
		switch {
		case tied:
			for i, n := 0, rng.Intn(6); i < n; i++ {
				perPE[pe] = append(perPE[pe], Event{Start: 100, End: 200, Bytes: int64(i), Peer: int32(pe)})
			}
		case rng.Intn(8) == 0: // a PE that recorded nothing
		case rng.Intn(7) == 0: // no structure at all: arbitrary times, foreign PE ids
			for i, n := 0, rng.Intn(40); i < n; i++ {
				start := vtime.Time(rng.Intn(6) * 100)
				perPE[pe] = append(perPE[pe], Event{
					PE: int32(rng.Intn(3)), Start: start, End: start + vtime.Time(rng.Intn(3)*100),
					Bytes: int64(i),
				})
			}
		default:
			perPE[pe] = spanTree(rng, nil, int32(pe), 0, vtime.Time(1+rng.Intn(30))*100, 0)
		}
	}
	return perPE
}

// checkMerge holds MergeEvents to the stable sort on perPE.
func checkMerge(t testing.TB, label string, perPE [][]Event) {
	t.Helper()
	want := mergeEventsOracle(perPE)
	got := MergeEvents(perPE) // sorts the buffers in place: after the oracle
	if !slices.Equal(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("%s: %d buffers, %d events: first difference at %d", label, len(perPE), len(want), i)
			}
		}
		t.Fatalf("%s: merged %d events, want %d", label, len(got), len(want))
	}
}

// TestMergeEventsMatchesStableSort: every buffer count from 1 to 70 — every
// power of two, one short of it and one past it, up to 64, so every shape of
// the loser tree's last level — three inputs each, one all tied.
func TestMergeEventsMatchesStableSort(t *testing.T) {
	for k := 1; k <= 70; k++ {
		for i := 0; i < 3; i++ {
			seed := int64(k*3 + i)
			checkMerge(t, fmt.Sprintf("k %d seed %d", k, seed), mergeInput(rand.New(rand.NewSource(seed)), k, i == 0))
		}
	}
}

// FuzzMergeEvents is the same check over fuzzer-chosen seeds and buffer
// counts.
func FuzzMergeEvents(f *testing.F) {
	f.Add(int64(1), uint8(7), false)
	f.Add(int64(2), uint8(32), true)
	f.Add(int64(3), uint8(65), false)
	f.Fuzz(func(t *testing.T, seed int64, k uint8, tied bool) {
		checkMerge(t, fmt.Sprintf("seed %d", seed), mergeInput(rand.New(rand.NewSource(seed)), 1+int(k)%70, tied))
	})
}
