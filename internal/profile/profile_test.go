package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// sumBlame is the ledger invariant's left-hand side.
func sumBlame(b [NumCategories]vtime.Duration) vtime.Duration {
	var s vtime.Duration
	for _, d := range b {
		s += d
	}
	return s
}

func TestNilRecorderIsSafe(t *testing.T) {
	var p *Recorder
	p.Advance(CatUDNSend, 0, 100)
	p.Merge(CatUDNWait, 0, sanitize.Edge{PE: 0, Peer: 1, Sent: 10, Arrive: 20})
}

func TestAdvanceIgnoresEmptySpans(t *testing.T) {
	p := New(0)
	p.Advance(CatUDNSend, 100, 100)
	p.Advance(CatUDNSend, 100, 50)
	if len(p.segs) != 0 || p.ledger[CatUDNSend] != 0 {
		t.Fatalf("empty spans recorded: segs=%d ledger=%v", len(p.segs), p.ledger[CatUDNSend])
	}
}

// TestMergeSplit exercises the three-way wait/transport split.
func TestMergeSplit(t *testing.T) {
	t.Run("already-arrived", func(t *testing.T) {
		p := New(0)
		p.Merge(CatUDNWait, 100, sanitize.Edge{Peer: 1, Sent: 20, Arrive: 80})
		if len(p.segs) != 0 {
			t.Fatalf("arrive<=start must record nothing, got %d segs", len(p.segs))
		}
	})
	t.Run("idle-then-transport", func(t *testing.T) {
		p := New(0)
		p.Merge(CatBarrierWait, 100, sanitize.Edge{Peer: 3, Sent: 150, Arrive: 200})
		if p.ledger[CatBarrierWait] != 50 || p.ledger[CatMesh] != 50 {
			t.Fatalf("split = (%v idle, %v mesh), want (50, 50)",
				p.ledger[CatBarrierWait], p.ledger[CatMesh])
		}
		if len(p.segs) != 2 {
			t.Fatalf("want 2 segs, got %d", len(p.segs))
		}
		if p.segs[0].Peer != -1 {
			t.Fatalf("idle seg must carry no edge, got peer %d", p.segs[0].Peer)
		}
		if p.segs[1].Peer != 3 || p.segs[1].Cat != CatMesh || p.segs[1].Sent != 150 {
			t.Fatalf("transport seg = %+v", p.segs[1])
		}
	})
	t.Run("sent-before-start", func(t *testing.T) {
		// The dependency was published before we started waiting: the
		// whole span is transport, and the edge target keeps the original
		// (earlier) Sent so the walk jumps behind our start.
		p := New(0)
		p.Merge(CatUDNWait, 100, sanitize.Edge{Peer: 2, Sent: 60, Arrive: 180})
		if p.ledger[CatUDNWait] != 0 || p.ledger[CatMesh] != 80 {
			t.Fatalf("split = (%v idle, %v mesh), want (0, 80)",
				p.ledger[CatUDNWait], p.ledger[CatMesh])
		}
		if len(p.segs) != 1 || p.segs[0].Sent != 60 || p.segs[0].Start != 100 {
			t.Fatalf("transport seg = %+v", p.segs[0])
		}
	})
	t.Run("zero-transport", func(t *testing.T) {
		// WaitUntil shape: the store's visibility time is the writer's
		// clock, so Sent == Arrive. All idle, but the edge survives.
		p := New(0)
		p.Merge(CatUDNWait, 100, sanitize.Edge{Peer: 5, Sent: 200, Arrive: 200})
		if p.ledger[CatUDNWait] != 100 || p.ledger[CatMesh] != 0 {
			t.Fatalf("split = (%v idle, %v mesh), want (100, 0)",
				p.ledger[CatUDNWait], p.ledger[CatMesh])
		}
		if len(p.segs) != 1 || p.segs[0].Peer != 5 || p.segs[0].Sent != 200 {
			t.Fatalf("zero-transport seg = %+v", p.segs[0])
		}
	})
}

// TestAssembleInvariant checks the ledger invariant sum(Blame) == End and
// the compute residual.
func TestAssembleInvariant(t *testing.T) {
	p := New(0)
	p.Advance(CatUDNSend, 10, 30)
	p.Merge(CatBarrierWait, 50, sanitize.Edge{Peer: 1, Sent: 70, Arrive: 90})
	prof := Assemble([]*Recorder{p, nil}, []vtime.Time{100, 40})
	for i, pe := range prof.PEs {
		if got := sumBlame(pe.Blame); got != vtime.Duration(pe.End) {
			t.Fatalf("PE %d: sum(Blame) = %v, want End = %v", i, got, pe.End)
		}
	}
	// PE 0: 20 send + 20 idle + 20 mesh attributed, 40 compute residual.
	if prof.PEs[0].Blame[CatCompute] != 40 {
		t.Fatalf("compute residual = %v, want 40", prof.PEs[0].Blame[CatCompute])
	}
	// PE 1 has no recorder: its whole timeline is compute.
	if prof.PEs[1].Blame[CatCompute] != 40 {
		t.Fatalf("nil-recorder compute = %v, want 40", prof.PEs[1].Blame[CatCompute])
	}
	if prof.Makespan != 100 {
		t.Fatalf("makespan = %v, want 100", prof.Makespan)
	}
	if prof.PEs[1].Slack != 60 {
		t.Fatalf("PE 1 slack = %v, want 60", prof.PEs[1].Slack)
	}
}

// pathChecks asserts the structural critical-path invariants: steps are
// chronological, contiguous, start at 0, and end at the makespan.
func pathChecks(t *testing.T, prof *Profile) {
	t.Helper()
	if len(prof.Path) == 0 {
		t.Fatal("empty critical path")
	}
	if prof.Path[0].Start != 0 {
		t.Fatalf("path starts at %v, want 0", prof.Path[0].Start)
	}
	if got := prof.Path[len(prof.Path)-1].End; vtime.Duration(got) != prof.Makespan {
		t.Fatalf("path ends at %v, want makespan %v", got, prof.Makespan)
	}
	var sum vtime.Duration
	for i, s := range prof.Path {
		if s.End <= s.Start {
			t.Fatalf("step %d empty: %+v", i, s)
		}
		if i > 0 && s.Start != prof.Path[i-1].End {
			t.Fatalf("step %d not contiguous: prev end %v, start %v",
				i, prof.Path[i-1].End, s.Start)
		}
		sum += s.Dur()
	}
	if sum != prof.Makespan {
		t.Fatalf("step durations sum to %v, want makespan %v", sum, prof.Makespan)
	}
}

// TestCriticalPathHandBuilt walks a two-PE DAG with a known answer:
//
//	PE 0: compute [0,40), send [40,60) --edge--> idle on PE 1
//	PE 1: waits [0,100) for the packet sent at 60, arriving 100,
//	      then computes [100,140). Makespan 140 on PE 1.
//
// The path must be: PE0 compute+send [0,60), mesh [60,100) toward PE 1,
// PE1 compute [100,140). PE 1's idle wait [0,60) must NOT appear.
func TestCriticalPathHandBuilt(t *testing.T) {
	p0 := New(0)
	p0.Advance(CatUDNSend, 40, 60)
	p1 := New(1)
	p1.Merge(CatUDNWait, 0, sanitize.Edge{PE: 1, Peer: 0, Sent: 60, Arrive: 100})
	prof := Assemble([]*Recorder{p0, p1}, []vtime.Time{60, 140})
	pathChecks(t, prof)
	want := []Step{
		{PE: 0, Cat: CatCompute, Start: 0, End: 40},
		{PE: 0, Cat: CatUDNSend, Start: 40, End: 60},
		{PE: 1, Cat: CatMesh, Start: 60, End: 100},
		{PE: 1, Cat: CatCompute, Start: 100, End: 140},
	}
	if len(prof.Path) != len(want) {
		t.Fatalf("path = %+v, want %+v", prof.Path, want)
	}
	for i := range want {
		if prof.Path[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, prof.Path[i], want[i])
		}
	}
}

// TestCriticalPathMergesAndSorts: adjacent segments of one category on one
// PE come out as one step however many the walk met, the path is exactly as
// long as its steps (the walk's scratch is recycled, the path is the
// profile's own), and a stream recorded out of order — which the recorders
// never produce — is put in order before the walk, not trusted.
func TestCriticalPathMergesAndSorts(t *testing.T) {
	want := []Step{
		{PE: 0, Cat: CatCompute, Start: 0, End: 10},
		{PE: 0, Cat: CatRMAL2, Start: 10, End: 40},
		{PE: 0, Cat: CatCompute, Start: 40, End: 50},
	}
	for _, spans := range [][][2]vtime.Time{
		{{10, 20}, {20, 30}, {30, 40}},
		{{30, 40}, {10, 20}, {20, 30}},
	} {
		p := New(0)
		for _, sp := range spans {
			p.Advance(CatRMAL2, sp[0], sp[1])
		}
		var first *Profile
		for run := 0; run < 2; run++ { // the second walk reuses the first's scratch
			prof := Assemble([]*Recorder{p}, []vtime.Time{50})
			pathChecks(t, prof)
			if !slices.Equal(prof.Path, want) || cap(prof.Path) != len(want) {
				t.Fatalf("spans %v: path = %+v (cap %d), want %+v", spans, prof.Path, cap(prof.Path), want)
			}
			if first == nil {
				first = prof
			}
		}
		if !slices.Equal(first.Path, want) {
			t.Fatalf("spans %v: the first profile's path changed under the second walk: %+v", spans, first.Path)
		}
	}
}

// TestCriticalPathZeroTransport: a zero-transport edge (WaitUntil flag)
// must hop to the writer without emitting an empty step.
func TestCriticalPathZeroTransport(t *testing.T) {
	p0 := New(0) // writer: computes to 80, stores the flag at 80
	p1 := New(1)
	p1.Merge(CatUDNWait, 10, sanitize.Edge{PE: 1, Peer: 0, Sent: 80, Arrive: 80})
	prof := Assemble([]*Recorder{p0, p1}, []vtime.Time{80, 120})
	pathChecks(t, prof)
	// Expected: PE0 compute [0,80), PE1 compute [80,120).
	if len(prof.Path) != 2 || prof.Path[0].PE != 0 || prof.Path[1].PE != 1 {
		t.Fatalf("path = %+v", prof.Path)
	}
}

func TestTaxonomyCoversEveryCategory(t *testing.T) {
	tax := Taxonomy()
	if len(tax) != int(NumCategories) {
		t.Fatalf("taxonomy has %d entries, want %d", len(tax), NumCategories)
	}
	for i, e := range tax {
		if e.Name != Category(i).String() {
			t.Fatalf("entry %d = %q, want %q", i, e.Name, Category(i))
		}
		if c, ok := CategoryByName(e.Name); !ok || c != Category(i) {
			t.Fatalf("CategoryByName(%q) = %v, %v", e.Name, c, ok)
		}
	}
	if _, ok := CategoryByName("bogus"); ok {
		t.Fatal("CategoryByName accepted an unknown name")
	}
}

func TestRMAMapping(t *testing.T) {
	if RMA(stats.CacheL1d) != CatRMAL1d || RMA(stats.CacheDRAM) != CatRMADRAM {
		t.Fatal("RMA level mapping broken")
	}
	if RMA(stats.NumCacheLevels+3) != CatRMADRAM {
		t.Fatal("RMA must clamp out-of-range levels to DRAM")
	}
}

// sampleProfile builds a small deterministic profile for export tests.
// Times are in vtime's picosecond ticks at nanosecond scale, so the
// integer-ns exporters see nonzero weights.
func sampleProfile() *Profile {
	p0 := New(0)
	p0.Advance(CatUDNSend, 40_000, 60_000)
	p0.Advance(CatRMAL2, 60_000, 75_000)
	p1 := New(1)
	p1.Merge(CatBarrierWait, 0, sanitize.Edge{PE: 1, Peer: 0, Sent: 60_000, Arrive: 100_000})
	return Assemble([]*Recorder{p0, p1}, []vtime.Time{75_000, 140_000})
}

func TestWriteFolded(t *testing.T) {
	var b bytes.Buffer
	if err := sampleProfile().WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"PE 0;udn.send 20\n", "PE 0;rma.L2 15\n", "PE 0;compute 40\n",
		"PE 1;barrier.wait 60\n", "PE 1;mesh 40\n", "PE 1;compute 40\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("folded output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasSuffix(line, " 0") {
			t.Fatalf("folded output contains zero-weight line %q", line)
		}
	}
}

func TestJSONRoundTripAndDiff(t *testing.T) {
	prof := sampleProfile()
	var b bytes.Buffer
	if err := prof.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/p.json"
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	js, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if js.Schema != "tshmem-profile/1" || js.NPEs != 2 || js.MakespanPs != int64(prof.Makespan) {
		t.Fatalf("round trip = %+v", js)
	}
	// Self-diff reports a zero makespan delta.
	d := Diff(js, js)
	if !strings.Contains(d, "+0.000") && !strings.Contains(d, "0.000") {
		t.Fatalf("self-diff: %s", d)
	}
	// A perturbed copy must surface the changed category first.
	other := *js
	other.BlamePs = map[string]int64{}
	for k, v := range js.BlamePs {
		other.BlamePs[k] = v
	}
	other.BlamePs["barrier.wait"] += 1_000_000
	d = Diff(js, &other)
	if !strings.Contains(d, "barrier.wait") {
		t.Fatalf("diff missing perturbed category:\n%s", d)
	}
}

func TestReadJSONRejectsForeignSchema(t *testing.T) {
	path := t.TempDir() + "/bad.json"
	if err := os.WriteFile(path, []byte(`{"schema":"something-else/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(path); err == nil {
		t.Fatal("ReadJSON accepted a foreign schema")
	}
}

// TestWritePprof gunzips the export and checks the protobuf carries the
// expected strings and a plausible structure; go tool pprof itself is
// exercised by ci.sh.
func TestWritePprof(t *testing.T) {
	prof := sampleProfile()
	var b bytes.Buffer
	if err := prof.WritePprof(&b); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&b)
	if err != nil {
		t.Fatalf("export is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"virtualtime", "nanoseconds", "udn.send", "PE 1", "barrier.wait"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("pprof protobuf missing %q", want)
		}
	}
	// Determinism: a second export is byte-identical (gzip header has no
	// timestamp).
	var b2 bytes.Buffer
	if err := prof.WritePprof(&b2); err != nil {
		t.Fatal(err)
	}
	// b was consumed by the reader; re-export.
	var b1 bytes.Buffer
	if err := prof.WritePprof(&b1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("pprof export is not byte-deterministic")
	}
}

func TestTablesRender(t *testing.T) {
	prof := sampleProfile()
	bt := prof.BlameTable()
	if !strings.Contains(bt, "barrier.wait") || !strings.Contains(bt, "TOTAL") {
		t.Fatalf("blame table:\n%s", bt)
	}
	pt := prof.PathTable()
	if !strings.Contains(pt, "critical path") || !strings.Contains(pt, "slack") {
		t.Fatalf("path table:\n%s", pt)
	}
}

// TestSegCapDrops fills a recorder past maxSegs and checks the ledger
// stays exact while the drop count surfaces.
func TestSegCapDrops(t *testing.T) {
	p := New(0)
	for i := 0; i < maxSegs+10; i++ {
		t0 := vtime.Time(i * 2)
		p.Advance(CatUDNSend, t0, t0+1)
	}
	if p.dropped != 10 {
		t.Fatalf("dropped = %d, want 10", p.dropped)
	}
	if p.ledger[CatUDNSend] != vtime.Duration(maxSegs+10) {
		t.Fatalf("ledger lost dropped time: %v", p.ledger[CatUDNSend])
	}
	prof := Assemble([]*Recorder{p}, []vtime.Time{vtime.Time(2 * (maxSegs + 10))})
	if prof.DroppedSegs != 10 {
		t.Fatalf("profile dropped = %d", prof.DroppedSegs)
	}
	if !strings.Contains(prof.BlameTable(), "WARNING") {
		t.Fatal("blame table must warn about dropped segments")
	}
}
