package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"tshmem/internal/mesh"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// Without Observe, runs carry no counters, no trace, and every PE's
// recorder stays nil (the zero-cost path asserted in internal/stats).
func TestUnobservedRunHasNoCounters(t *testing.T) {
	rep := runT(t, gxCfg(4), func(pe *PE) error {
		if pe.rec != nil {
			t.Error("recorder non-nil without Config.Observe")
		}
		if c := pe.Counters(); !c.Equal(&stats.Counters{}) {
			t.Errorf("PE counters non-zero without Observe: %+v", c)
		}
		return pe.BarrierAll()
	})
	if len(rep.PECounters) != 0 || len(rep.Trace()) != 0 {
		t.Errorf("report carries observability data: %d counters, %d events",
			len(rep.PECounters), len(rep.Trace()))
	}
	if agg := rep.Stats(); !agg.Equal(&stats.Counters{}) {
		t.Errorf("aggregate non-zero: %+v", agg)
	}
}

// An observed barrier run must balance its UDN ledger (every message sent
// is received) and count exactly the chain's signals.
func TestObservedBarrierCounters(t *testing.T) {
	const n, iters = 8, 5
	cfg := gxCfg(n)
	cfg.Observe = true
	rep := runT(t, cfg, func(pe *PE) error {
		for i := 0; i < iters; i++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	})
	if len(rep.PECounters) != n {
		t.Fatalf("PECounters has %d entries, want %d", len(rep.PECounters), n)
	}
	agg := rep.Stats()
	if agg.UDNMsgsSent != agg.UDNMsgsRecvd || agg.UDNWordsSent != agg.UDNWordsRecvd {
		t.Errorf("UDN ledger unbalanced: sent %d/%d words, received %d/%d",
			agg.UDNMsgsSent, agg.UDNWordsSent, agg.UDNMsgsRecvd, agg.UDNWordsRecvd)
	}
	// start_pes runs one concluding barrier, so each PE sees iters+1
	// OpBarrier instances; each instance costs 2(n-1)+1 chain signals.
	instances := int64(iters + 1)
	if agg.Ops[stats.OpBarrier] != instances*n {
		t.Errorf("Ops[barrier] = %d, want %d", agg.Ops[stats.OpBarrier], instances*n)
	}
	wantRounds := instances * int64(2*(n-1)+1)
	if agg.BarrierRounds != wantRounds {
		t.Errorf("BarrierRounds = %d, want %d", agg.BarrierRounds, wantRounds)
	}
	if agg.Ops[stats.OpInit] != n {
		t.Errorf("Ops[init] = %d, want %d", agg.Ops[stats.OpInit], n)
	}
	// Counters aggregate across PEs: the fold of the parts is the whole.
	var fold stats.Counters
	for i := range rep.PECounters {
		fold.Add(&rep.PECounters[i])
	}
	if !fold.Equal(&agg) {
		t.Errorf("Stats() != fold of PECounters")
	}
}

// Puts classify RMA traffic by locality and size it in bytes.
func TestObservedPutLocality(t *testing.T) {
	const n, nelems = 2, 512
	cfg := gxCfg(n)
	cfg.Observe = true
	rep := runT(t, cfg, func(pe *PE) error {
		x, err := Malloc[int64](pe, nelems)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if err := Put(pe, x, x, nelems, 1); err != nil { // same chip
				return err
			}
			if err := Put(pe, x, x, nelems, 0); err != nil { // self
				return err
			}
			pe.Quiet()
		}
		return pe.BarrierAll()
	})
	agg := rep.Stats()
	const bytes = int64(nelems) * 8
	if agg.RMAOps[stats.SameChip] != 1 || agg.RMABytes[stats.SameChip] != bytes {
		t.Errorf("same-chip: ops=%d bytes=%d, want 1 and %d",
			agg.RMAOps[stats.SameChip], agg.RMABytes[stats.SameChip], bytes)
	}
	if agg.RMAOps[stats.SelfPE] != 1 || agg.RMABytes[stats.SelfPE] != bytes {
		t.Errorf("self: ops=%d bytes=%d, want 1 and %d",
			agg.RMAOps[stats.SelfPE], agg.RMABytes[stats.SelfPE], bytes)
	}
	if agg.RMAOps[stats.CrossChip] != 0 {
		t.Errorf("cross-chip ops on a single chip: %d", agg.RMAOps[stats.CrossChip])
	}
	if agg.Ops[stats.OpPut] != 2 || agg.TotalRMABytes() != 2*bytes {
		t.Errorf("puts=%d rma=%d, want 2 and %d", agg.Ops[stats.OpPut], agg.TotalRMABytes(), 2*bytes)
	}
	if agg.CacheHits()+agg.CacheMisses() == 0 {
		t.Error("puts charged no classified cache copies")
	}
}

// Observed runs record latency histograms alongside the counters: every
// op class that counted also observed, quantiles are monotone, and the
// op-class histograms reconcile exactly with OpTimePs.
func TestObservedHistograms(t *testing.T) {
	const n = 4
	cfg := gxCfg(n)
	cfg.Observe = true
	rep := runT(t, cfg, func(pe *PE) error {
		x, err := Malloc[int64](pe, 256)
		if err != nil {
			return err
		}
		y, err := Malloc[int64](pe, 256)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if err := Put(pe, y, x, 256, (pe.MyPE()+1)%n); err != nil {
			return err
		}
		pe.Quiet()
		return pe.BarrierAll()
	})
	agg := rep.Stats()
	for op := stats.Op(0); op < stats.NumOps; op++ {
		h := agg.Hists[stats.HistForOp(op)]
		if h.Count != agg.Ops[op] {
			t.Errorf("op %v: hist count %d != op count %d", op, h.Count, agg.Ops[op])
		}
		if h.SumPs != agg.OpTimePs[op] {
			t.Errorf("op %v: hist sum %d != OpTimePs %d", op, h.SumPs, agg.OpTimePs[op])
		}
	}
	for c := stats.HistClass(0); c < stats.NumHistClasses; c++ {
		h := agg.Hists[c]
		p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
		if !(p50 <= p90 && p90 <= p99 && p99 <= h.MaxPs) {
			t.Errorf("%v: quantiles not monotone: p50=%d p90=%d p99=%d max=%d",
				c, p50, p90, p99, h.MaxPs)
		}
	}
	if agg.Hists[stats.HistUDNSend].Count != agg.UDNMsgsSent {
		t.Errorf("udn.send hist count %d != msgs sent %d",
			agg.Hists[stats.HistUDNSend].Count, agg.UDNMsgsSent)
	}
	if agg.Hists[stats.HistBarrierWait].Count == 0 {
		t.Error("barrier chains ran but barrier.wait histogram is empty")
	}
	var rmaN int64
	for l := stats.Locality(0); l < stats.NumLocalities; l++ {
		if agg.Hists[stats.HistForRMA(l)].Count != agg.RMAOps[l] {
			t.Errorf("rma.%v hist count %d != ops %d",
				l, agg.Hists[stats.HistForRMA(l)].Count, agg.RMAOps[l])
		}
		rmaN += agg.RMAOps[l]
	}
	if rmaN == 0 {
		t.Error("no RMA histograms observed")
	}
}

// Observed runs snapshot per-link mesh utilization: a same-chip put's
// modeled route and the barrier chain's UDN signals both appear, and the
// link ledger is consistent with the traffic that ran.
func TestObservedMeshUtilization(t *testing.T) {
	const n, nelems = 4, 512 // 2x2 area
	cfg := gxCfg(n)
	cfg.Observe = true
	rep := runT(t, cfg, func(pe *PE) error {
		x, err := Malloc[int64](pe, nelems)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			// PE 0 = (0,0) puts to PE 1 = (1,0): the data's route is the
			// single east link out of tile 0.
			if err := Put(pe, x, x, nelems, 1); err != nil {
				return err
			}
			pe.Quiet()
		}
		return pe.BarrierAll()
	})
	if len(rep.MeshUtil) != 1 {
		t.Fatalf("MeshUtil has %d chips, want 1", len(rep.MeshUtil))
	}
	u := rep.MeshUtil[0]
	if u.Width != 2 || u.Height != 2 {
		t.Fatalf("area %dx%d, want 2x2", u.Width, u.Height)
	}
	wordBytes := int64(8)
	putWords := int64(nelems) * 8 / wordBytes
	east := u.Link(0, 0, mesh.LinkEast)
	if east < putWords {
		t.Errorf("east link out of tile 0 carried %d words, want >= %d (the put)", east, putWords)
	}
	// Barrier signals ride the mesh too, so the chain's wait/release
	// messages must light up links beyond the put's east hop.
	if total := u.TotalWords(); total <= east {
		t.Error("only the put's link saw traffic; barrier signals unrecorded")
	}
	if u.MaxQueueHWM() < 1 {
		t.Error("no receive-queue occupancy recorded")
	}
	// The unobserved path must not pay for any of this.
	rep2 := runT(t, gxCfg(2), func(pe *PE) error { return pe.BarrierAll() })
	if len(rep2.MeshUtil) != 0 {
		t.Errorf("unobserved run carries %d mesh snapshots", len(rep2.MeshUtil))
	}
}

// Multi-chip runs expose per-chip aggregation that sums to the global
// view, and per-chip mesh snapshots.
func TestStatsByChip(t *testing.T) {
	cfg := gxCfg(8)
	cfg.NChips = 2
	cfg.Observe = true
	rep := runT(t, cfg, func(pe *PE) error {
		x, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if err := Put(pe, x, x, 64, 1); err != nil { // same chip
				return err
			}
			if err := Put(pe, x, x, 64, 5); err != nil { // cross chip
				return err
			}
			pe.Quiet()
		}
		return pe.BarrierAll()
	})
	per := rep.StatsByChip()
	if len(per) != 2 {
		t.Fatalf("StatsByChip has %d entries, want 2", len(per))
	}
	var fold stats.Counters
	for i := range per {
		fold.Add(&per[i])
	}
	if agg := rep.Stats(); !fold.Equal(&agg) {
		t.Error("per-chip counters do not sum to the global view")
	}
	if per[0].RMAOps[stats.CrossChip] != 1 || per[1].RMAOps[stats.CrossChip] != 0 {
		t.Errorf("cross-chip op attributed to chips %d/%d, want 1/0",
			per[0].RMAOps[stats.CrossChip], per[1].RMAOps[stats.CrossChip])
	}
	if len(rep.MeshUtil) != 2 {
		t.Errorf("MeshUtil has %d chips, want 2", len(rep.MeshUtil))
	}
}

// Config.Trace implies Observe and yields a merged, start-ordered event
// timeline that exports as decodable Chrome trace_event JSON.
func TestTraceExport(t *testing.T) {
	const n = 4
	cfg := gxCfg(n)
	cfg.Trace = true // note: Observe left false; Trace must imply it
	var mu sync.Mutex
	elapsed := make(map[int]vtime.Duration, n)
	starts := make(map[int]vtime.Time, n)
	rep := runT(t, cfg, func(pe *PE) error {
		src, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		dst, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		t0 := pe.Now()
		// src is only ever read (by its owner), dst only written (by one
		// neighbor): the ring of block puts is race-free.
		if err := Put(pe, dst, src, 64, (pe.MyPE()+1)%n); err != nil {
			return err
		}
		pe.Quiet()
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		mu.Lock()
		starts[pe.MyPE()] = t0
		elapsed[pe.MyPE()] = pe.Now().Sub(t0)
		mu.Unlock()
		return nil
	})
	evs := rep.Trace()
	if len(evs) == 0 {
		t.Fatal("no events traced")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("trace not start-ordered at %d", i)
		}
	}
	var perPE [stats.NumOps]bool
	for _, e := range evs {
		if e.PE < 0 || int(e.PE) >= n {
			t.Fatalf("event with bad PE %d", e.PE)
		}
		if e.End < e.Start {
			t.Fatalf("event ends before it starts: %+v", e)
		}
		perPE[e.Op] = true
	}
	for _, op := range []stats.Op{stats.OpInit, stats.OpPut, stats.OpFence, stats.OpBarrier} {
		if !perPE[op] {
			t.Errorf("no %v event traced", op)
		}
	}

	var buf bytes.Buffer
	if err := rep.TraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != len(evs)+n {
		t.Errorf("exported %d records, want %d events + %d thread names",
			len(decoded.TraceEvents), len(evs), n)
	}

	// The audit invariant EXPERIMENTS.md documents: between AlignClocks and
	// the measured end, the traced substrate operations explain (almost)
	// all of each PE's virtual time. The put/fence/barrier sequence leaves
	// only inter-op bookkeeping uncovered.
	for pe := 0; pe < n; pe++ {
		cov := stats.Coverage(evs, pe, starts[pe], starts[pe].Add(elapsed[pe]))
		if cov < 0.95 {
			t.Errorf("PE %d: trace covers %.1f%% of measured window, want >= 95%%", pe, 100*cov)
		}
		if cov > 1 {
			t.Errorf("PE %d: coverage %.3f exceeds 1 (double-counted nesting?)", pe, cov)
		}
	}
}

// The trace cap drops events but never corrupts counters.
func TestTraceCap(t *testing.T) {
	cfg := gxCfg(2)
	cfg.Trace = true
	cfg.TraceCap = 3
	rep := runT(t, cfg, func(pe *PE) error {
		for i := 0; i < 10; i++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	})
	agg := rep.Stats()
	if agg.TraceDropped == 0 {
		t.Error("cap of 3 never dropped events over 10 barriers")
	}
	if rep.DroppedEvents() != agg.TraceDropped {
		t.Errorf("DroppedEvents() = %d, want %d (a capped trace must be detectable)",
			rep.DroppedEvents(), agg.TraceDropped)
	}
	for _, c := range rep.PECounters {
		if c.Ops[stats.OpBarrier] != 11 { // 10 + start_pes barrier
			t.Errorf("dropped events must still count: barriers=%d, want 11", c.Ops[stats.OpBarrier])
		}
	}
	perPE := map[int32]int{}
	for _, e := range rep.Trace() {
		perPE[e.PE]++
	}
	for pe, got := range perPE {
		if got > 3 {
			t.Errorf("PE %d buffered %d events beyond cap 3", pe, got)
		}
	}
}
