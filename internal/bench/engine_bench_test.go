package bench

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"tshmem/internal/core"
)

// medianPoint picks the trial with the median throughput.
func medianPoint(pts []ScalingPoint) ScalingPoint {
	sort.Slice(pts, func(i, j int) bool { return pts[i].SimsPerSec < pts[j].SimsPerSec })
	return pts[len(pts)/2]
}

// BenchmarkBarrierEvent is BenchmarkBarrier on the event engine,
// uninstrumented: the calendar's yield/grant hot path (park channel,
// ready scan, wake matching) must add 0 allocs/op on top of the barrier
// chain — the figure ci.sh's bench-alloc smoke stage enforces.
func BenchmarkBarrierEvent(b *testing.B) {
	benchBarrier(b, core.Config{NPEs: benchPEs, HeapPerPE: 64 << 10, Engine: core.EngineEvent})
}

// BenchmarkPutEvent is BenchmarkPut on the event engine: the put fast
// path never parks, so the calendar must stay entirely off it (0
// allocs/op, and ns/op within noise of the goroutine engine).
func BenchmarkPutEvent(b *testing.B) {
	benchPut(b, core.Config{NPEs: 2, HeapPerPE: 1 << 20, Engine: core.EngineEvent})
}

// TestEngineScalingSmoke checks the measurement machinery itself at a
// small concurrency: both engines complete, report sane fields, and the
// event engine never lets a second PE goroutine become runnable.
func TestEngineScalingSmoke(t *testing.T) {
	for _, eng := range core.Engines() {
		pt, err := MeasureEngineScaling(eng, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if pt.Sims != 4 || pt.SimsPerSec <= 0 {
			t.Errorf("%s: implausible point %+v", eng, pt)
		}
		if eng == core.EngineEvent && pt.RunnablePerSim > 2 {
			t.Errorf("event engine made %d goroutines per sim runnable, want <= 2", pt.RunnablePerSim)
		}
	}
}

// TestEngineScalingWorker is the subprocess half of the throughput gate:
// it runs a single MeasureEngineScaling in a fresh process (engine and
// shape passed by environment) and writes the resulting point as JSON.
// Run directly it has nothing to do and skips.
func TestEngineScalingWorker(t *testing.T) {
	name := os.Getenv("TSHMEM_SCALING_WORKER")
	if name == "" {
		t.Skip("subprocess helper for TestEngineScalingGate")
	}
	eng, err := core.ParseEngine(name)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := strconv.Atoi(os.Getenv("TSHMEM_SCALING_CONCURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := strconv.Atoi(os.Getenv("TSHMEM_SCALING_ROUNDS"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := MeasureEngineScaling(eng, concurrent, rounds)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv("TSHMEM_SCALING_OUT"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// scalingSubprocess measures one engine in a fresh process. Process
// isolation is what makes the gate repeatable: a 128-run storm grows the
// Go heap by hundreds of megabytes, and the retained spans plus the
// re-paced collector make whatever runs next in the same process measure
// ~40% faster than it would cold. Each sample here starts from the same
// cold runtime.
func scalingSubprocess(t *testing.T, eng core.Engine, concurrent, rounds int) ScalingPoint {
	t.Helper()
	out := filepath.Join(t.TempDir(), "point.json")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestEngineScalingWorker$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"TSHMEM_SCALING_WORKER="+eng.String(),
		"TSHMEM_SCALING_CONCURRENT="+strconv.Itoa(concurrent),
		"TSHMEM_SCALING_ROUNDS="+strconv.Itoa(rounds),
		"TSHMEM_SCALING_OUT="+out,
	)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("scaling worker (%s): %v\n%s", eng, err, b)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var pt ScalingPoint
	if err := json.Unmarshal(data, &pt); err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestEngineScalingGate is the ci.sh engine-stage gate: at 128 concurrent
// simulations the event engine must keep at most 2 runnable goroutines per
// simulation — the structural property the calendar exists for — and its
// median throughput must not fall below the goroutine engine's. The ratio
// itself is logged, not gated: it was 3.4-5.6x while only the event engine
// recycled arenas and is 1.5-1.7x now that both do, so most of the old
// ">= 2x" measured page zeroing, not scheduling. The full sweep costs tens
// of host seconds, so it only arms when the ci stage requests it via
// TSHMEM_ENGINE_GATE=1; a plain `go test ./...` skips it.
func TestEngineScalingGate(t *testing.T) {
	if os.Getenv("TSHMEM_ENGINE_GATE") == "" {
		t.Skip("set TSHMEM_ENGINE_GATE=1 to run the engine throughput gate")
	}
	// Alternate engines across three cold-process trials each and gate on
	// medians: a one-core CI host schedules a 4000-goroutine storm with
	// real run-to-run variance, and a single sample in either direction
	// would make the gate flaky. Eight rounds per worker keep each
	// measurement long enough (~1000 simulations) to reach the storm's
	// steady state rather than its first transient.
	const concurrent, rounds, trials = 128, 8, 3
	var gs, es []ScalingPoint
	for i := 0; i < trials; i++ {
		gs = append(gs, scalingSubprocess(t, core.EngineGoroutine, concurrent, rounds))
		es = append(es, scalingSubprocess(t, core.EngineEvent, concurrent, rounds))
	}
	g, e := medianPoint(gs), medianPoint(es)
	t.Logf("medians of %d trials:\n%s", trials, FormatEngineScaling([]ScalingPoint{g, e}))
	if e.RunnablePerSim > 2 {
		t.Errorf("event engine: %d runnable goroutines per simulation, want <= 2", e.RunnablePerSim)
	}
	t.Logf("event engine throughput at %d concurrent = %.2fx goroutine engine", concurrent, e.SimsPerSec/g.SimsPerSec)
	if e.SimsPerSec < g.SimsPerSec {
		t.Errorf("event engine throughput at %d concurrent fell below the goroutine engine's (event %.0f sims/s, goroutine %.0f sims/s)",
			concurrent, e.SimsPerSec, g.SimsPerSec)
	}
}
