package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// registry from drifting: same workloads, same metrics, same units,
// directions and bounds, in the same order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := b.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the registry %+v", i, g, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := b.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the registry %+v", i, g, d)
		}
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the charset [A-Za-z0-9_.-]", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the unit charset", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name, "")
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.name, d.unit)
		}
	}
}

// TestSmoke runs every workload once at tiny sizes on both engines,
// untraced and traced, and asserts that every metric BENCHMARK.json names
// is emitted and finite and that every correctness check passes.
func TestSmoke(t *testing.T) {
	// The sweep workload reads BENCH_baseline.json relative to the
	// repository root, where the benchmark runs from.
	t.Chdir("..")
	outDir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs, pass := endToEnd, "timed"
			if traced {
				defs, pass = perLayer, "traced"
			}
			t.Run(w.name+"/"+pass, func(t *testing.T) {
				if testing.Short() && traced && w.name != "observed" {
					t.Skip("the ladder does not depend on the workload; -short climbs it once")
				}
				res, err := run(options{workload: w.name, seed: 1, reps: 1, trace: traced, sz: tiny, outDir: outDir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.OpsFailed != 0 {
					t.Errorf("checks failed: %d of %d reps, %d of %d simulations: %v",
						res.Failed, res.Attempted, res.OpsFailed, res.OpsTried, res.Errors)
				}
				if res.MakespanUs <= 0 {
					t.Errorf("virtual makespan %g us, want positive", res.MakespanUs)
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s was not emitted", d.name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("metric %s = %v, want a finite number", d.name, v.Value)
					case v.Unit != d.unit:
						t.Errorf("metric %s has unit %q, the registry says %q", d.name, v.Unit, d.unit)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want positive", d.name, v.Value)
					}
				}
				if _, err := res.lastLine(defs); err != nil {
					t.Error(err)
				}
				if traced {
					if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestPutSweepPeersRaceFree asserts the property that makes put-sweep
// sanitizer-clean: in every round each target has exactly one writer, and
// no PE puts to itself.
func TestPutSweepPeersRaceFree(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for r, d := range putPeers(seed, 50, gxPEs) {
			if d < 1 || d >= gxPEs {
				t.Fatalf("seed %d round %d: distance %d outside [1, %d)", seed, r, d, gxPEs)
			}
			writers := make([]int, gxPEs)
			for me := 0; me < gxPEs; me++ {
				writers[(me+d)%gxPEs]++
			}
			for target, n := range writers {
				if n != 1 {
					t.Fatalf("seed %d round %d: PE %d has %d writers, want 1", seed, r, target, n)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// which the benchmark driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python says 3.5, 31.0", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v; Python says 0.75, 2.25", q1, q3)
	}
}

// TestCompareVerdicts covers the three verdicts of -compare.
func TestCompareVerdicts(t *testing.T) {
	d := metricDef{name: "wall_s", unit: "s", better: "lower", bound: 0.10}
	tight := func(v float64) side {
		return side{vals: []float64{v, v * 1.01}, median: v * 1.005, q1: v, q3: v * 1.01, n: 2}
	}
	wide := func(v float64) side {
		return side{vals: []float64{v * 0.8, v * 1.2}, median: v, q1: v * 0.8, q3: v * 1.2, n: 2}
	}
	for _, c := range []struct {
		name string
		a, b side
		want string
	}{
		{"same", tight(1), tight(1.02), "ok"},
		{"slower", tight(1), tight(1.2), "regress"},
		{"noisy", wide(1), wide(1.02), "unresolved"},
		{"noisy but every run faster", wide(1), tight(0.5), "ok"},
	} {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	floor := metricDef{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.2}
	if got := verdict(floor, tight(0.1), tight(0.25)); got != "ok" {
		t.Errorf("0.1 s -> 0.25 s set-up is within the 0.2 s floor, got %q", got)
	}
}
