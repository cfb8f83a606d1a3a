package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/stats"
)

func TestParseThreshold(t *testing.T) {
	good := []struct {
		in   string
		want float64
	}{
		{"5%", 0.05}, {"0.05", 0.05}, {"25%", 0.25}, {"0", 0},
		{" 10 % ", 0.10}, {"100%", 1},
	}
	for _, c := range good {
		got, err := ParseThreshold(c.in)
		if err != nil {
			t.Errorf("ParseThreshold(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("ParseThreshold(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "-5%", "%", "5%%"} {
		if _, err := ParseThreshold(bad); err == nil {
			t.Errorf("ParseThreshold(%q) accepted", bad)
		}
	}
}

// The suite must be deterministic (virtual time, no host clocks) and
// round-trip through the JSON file format unchanged; a self-compare must
// pass at any threshold.
func TestBaselineRoundTripAndSelfCompare(t *testing.T) {
	b1, err := RunSuite(ProbeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Results) != len(SuiteProbes()) {
		t.Fatalf("suite produced %d results, want %d", len(b1.Results), len(SuiteProbes()))
	}
	for _, r := range b1.Results {
		if r.MakespanUs <= 0 || r.P50Us <= 0 || r.Chip == "" || r.PEs == 0 {
			t.Errorf("degenerate result: %+v", r)
		}
		if !(r.P50Us <= r.P90Us && r.P90Us <= r.P99Us && r.P99Us <= r.MaxUs) {
			t.Errorf("%s: quantiles not monotone: %+v", r.Benchmark, r)
		}
		if len(r.Counters) == 0 {
			t.Errorf("%s: no counters embedded", r.Benchmark)
		}
	}

	b2, err := RunSuite(ProbeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	var f1, f2 bytes.Buffer
	if err := WriteBaseline(&f1, b1); err != nil {
		t.Fatal(err)
	}
	if err := WriteBaseline(&f2, b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1.Bytes(), f2.Bytes()) {
		t.Error("two runs of the suite wrote different baselines; virtual time leaked host state")
	}

	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, f1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	deltas := Compare(loaded, b2, 0)
	if Regressed(deltas) {
		t.Errorf("self-compare regressed at threshold 0:\n%s", FormatCompare(deltas, 0))
	}
	if want := len(b1.Results) * 3; len(deltas) != want {
		t.Errorf("self-compare produced %d deltas, want %d", len(deltas), want)
	}
}

func TestReadBaselineRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	vpath := filepath.Join(dir, "v.json")
	os.WriteFile(vpath, []byte(`{"schema_version": 99, "results": []}`), 0o644)
	if _, err := ReadBaseline(vpath); err == nil {
		t.Error("schema version 99 accepted")
	}
	gpath := filepath.Join(dir, "g.json")
	os.WriteFile(gpath, []byte(`not json`), 0o644)
	if _, err := ReadBaseline(gpath); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// slowGx returns a TILE-Gx whose UDN and memcpy paths are deliberately
// degraded — the fixture the regression gate must catch.
func slowGx() *arch.Chip {
	c := arch.Gx8036()
	c.UDNSetupNs *= 3
	c.UDNSWForwardNs *= 3
	c.CopyCallNs *= 3
	for i := range c.SharedCopy {
		c.SharedCopy[i].MBs /= 2
	}
	for i := range c.PrivateCopy {
		c.PrivateCopy[i].MBs /= 2
	}
	return c
}

// A deliberately slowed mesh/chip must trip the 5% gate on every probe's
// makespan — the end-to-end contract behind tshmem-bench -compare's
// non-zero exit.
func TestCompareDetectsSlowedChip(t *testing.T) {
	base, err := RunSuite(ProbeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunSuite(ProbeOpts{Chip: slowGx()})
	if err != nil {
		t.Fatal(err)
	}
	deltas := Compare(base, slow, 0.05)
	if !Regressed(deltas) {
		t.Fatalf("slowed chip passed the 5%% gate:\n%s", FormatCompare(deltas, 0.05))
	}
	byBench := map[string]bool{}
	for _, d := range deltas {
		if d.Regressed {
			byBench[d.Benchmark] = true
		}
	}
	for _, p := range SuiteProbes() {
		if !byBench[p.ID] {
			t.Errorf("probe %s did not regress on the slowed chip", p.ID)
		}
	}
	// The reverse comparison is an improvement, never a regression.
	if rev := Compare(slow, base, 0.05); Regressed(rev) {
		t.Error("getting faster flagged as a regression")
	}
}

func TestCompareMissingBenchmarkRegresses(t *testing.T) {
	base := &Baseline{SchemaVersion: BaselineSchemaVersion, Results: []Result{
		{Benchmark: "barrier", MakespanUs: 1, P50Us: 1, P99Us: 1},
		{Benchmark: "put", MakespanUs: 1, P50Us: 1, P99Us: 1},
	}}
	cur := &Baseline{SchemaVersion: BaselineSchemaVersion, Results: []Result{
		{Benchmark: "barrier", MakespanUs: 1, P50Us: 1, P99Us: 1},
	}}
	deltas := Compare(base, cur, 0.5)
	if !Regressed(deltas) {
		t.Error("benchmark missing from the current run did not regress")
	}
	var missing bool
	for _, d := range deltas {
		missing = missing || d.Missing
	}
	if !missing {
		t.Error("no delta marked Missing")
	}
	// New benchmarks in cur have no reference and must not fail the gate.
	if rev := Compare(cur, base, 0.5); Regressed(rev) {
		t.Error("benchmark new in the current run flagged as regression")
	}
}

// Per-chip stats of a 2-chip probe-scale run must sum exactly to the
// global aggregate, with cross-chip traffic attributed to the issuing
// chip — the audit surface multi-device runs rely on.
func TestMultichipStatsFold(t *testing.T) {
	cfg := core.Config{
		Chip: arch.Gx8036(), NPEs: 8, NChips: 2,
		HeapPerPE: 1 << 20, Observe: true,
	}
	rep, err := core.Run(cfg, func(pe *core.PE) error {
		x, err := core.Malloc[int64](pe, 512)
		if err != nil {
			return err
		}
		y, err := core.Malloc[int64](pe, 512)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		// Every PE puts to its cross-chip partner: 4 cross-chip ops per chip.
		if err := core.Put(pe, y, x, 512, (pe.MyPE()+4)%8); err != nil {
			return err
		}
		pe.Quiet()
		return pe.BarrierAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	per := rep.StatsByChip()
	if len(per) != 2 {
		t.Fatalf("StatsByChip returned %d chips, want 2", len(per))
	}
	var fold stats.Counters
	for i := range per {
		fold.Add(&per[i])
	}
	if agg := rep.Stats(); !fold.Equal(&agg) {
		t.Error("per-chip counters do not fold to the global aggregate")
	}
	for i := range per {
		if got := per[i].RMAOps[stats.CrossChip]; got != 4 {
			t.Errorf("chip %d: %d cross-chip RMA ops, want 4", i, got)
		}
		if per[i].Ops[stats.OpBarrier] == 0 {
			t.Errorf("chip %d recorded no barriers", i)
		}
	}
	if len(rep.MeshUtil) != 2 {
		t.Errorf("2-chip run snapshotted %d meshes, want 2", len(rep.MeshUtil))
	}
}
