package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tshmem/internal/core"
)

// Engine-scaling measurement: how many concurrent simulations the host
// sustains under each execution engine (docs/PERFORMANCE.md, "Engines").
// The unit of work is the suite's barrier probe — 16 PEs, aligned clocks,
// a run of barrier_all chains — the workload where host scheduling, not
// memcpy, dominates, exactly the regime the event engine exists for.

// ScalingConcurrencies are the standard sweep points tshmem-bench
// -engine-scaling and the ci.sh engine gate measure.
var ScalingConcurrencies = []int{16, 64, 128}

// A ScalingPoint is one (engine, concurrency) measurement.
type ScalingPoint struct {
	Engine     string  `json:"engine"`
	Concurrent int     `json:"concurrent"`   // simulations in flight at once
	Sims       int     `json:"sims"`         // total simulations completed
	WallMs     float64 `json:"wall_ms"`      // host wall time for all of them
	SimsPerSec float64 `json:"sims_per_sec"` // throughput
	// PeakGoroutines is the peak host goroutine count observed during the
	// storm (includes parked ones; the event engine still parks one
	// goroutine per PE in its first-cut calendar).
	PeakGoroutines int `json:"peak_goroutines"`
	// RunnablePerSim is the per-simulation runnable-goroutine bound: the
	// engine's peak simultaneously-schedulable PE goroutines (1 under the
	// event calendar, by construction) plus the worker driving the run.
	// The goroutine engine has no bound below NPEs and reports NPEs+1.
	RunnablePerSim int `json:"runnable_per_sim"`
}

// MeasureEngineScaling runs `concurrent` workers, each executing `rounds`
// barrier-probe simulations under eng, and reports aggregate throughput.
// Goroutine counts are sampled while the storm runs.
func MeasureEngineScaling(eng core.Engine, concurrent, rounds int) (ScalingPoint, error) {
	pt := ScalingPoint{
		Engine:     eng.String(),
		Concurrent: concurrent,
		Sims:       concurrent * rounds,
	}
	// The launch matches the scale of a real suite run: 16 PEs with
	// suite-sized heaps plus the default scratch arena, ~12 MiB per
	// simulation (the bcast probe allocates over 1 MiB per PE). With 128
	// simulations in flight the engines diverge on how much of that is
	// resident at once. The event calendar hands the host scheduler one
	// runnable goroutine per simulation and its admission gate keeps only
	// a few runs resident, so runs complete in nearly run-to-completion
	// order and almost every launch finds a recycled arena in the pool.
	// The goroutine engine's 16 free-running PEs per run interleave every
	// simulation's progress: all 128 arenas are live for the whole storm,
	// far more than the pool's budget, so most of its launches allocate
	// (and the runtime zeroes) a fresh one.
	cfg := core.Config{NPEs: 16, HeapPerPE: 512 << 10, Engine: eng}
	// scalingBarriers stretches the barrier probe's chain so host
	// scheduling — not launch/teardown, which costs the same under both
	// engines — dominates each simulation's wall time.
	const scalingBarriers = 8 * probeBarriers
	body := func(pe *core.PE) error {
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		for i := 0; i < scalingBarriers; i++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	}

	var peakG atomic.Int64
	stop := make(chan struct{})
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		for {
			if g := int64(runtime.NumGoroutine()); g > peakG.Load() {
				peakG.Store(g)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var maxRunnable atomic.Int64
	errs := make([]error, concurrent)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(concurrent)
	for w := 0; w < concurrent; w++ {
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				rep, err := core.Run(cfg, body)
				if err != nil {
					errs[w] = err
					return
				}
				if int64(rep.MaxRunnablePEs) > maxRunnable.Load() {
					maxRunnable.Store(int64(rep.MaxRunnablePEs))
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	<-sampler
	for _, err := range errs {
		if err != nil {
			return pt, err
		}
	}

	pt.WallMs = float64(wall.Nanoseconds()) / 1e6
	if wall > 0 {
		pt.SimsPerSec = float64(pt.Sims) / wall.Seconds()
	}
	pt.PeakGoroutines = int(peakG.Load())
	if eng == core.EngineEvent {
		pt.RunnablePerSim = int(maxRunnable.Load()) + 1
	} else {
		pt.RunnablePerSim = cfg.NPEs + 1
	}
	return pt, nil
}

// EngineScalingSweep measures every engine at every standard concurrency,
// rounds simulations per worker, in a fixed order (goroutine first).
func EngineScalingSweep(rounds int) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, eng := range core.Engines() {
		for _, c := range ScalingConcurrencies {
			pt, err := MeasureEngineScaling(eng, c, rounds)
			if err != nil {
				return nil, fmt.Errorf("engine %s at %d concurrent: %w", eng, c, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// FormatEngineScaling renders scaling points as the table tshmem-bench
// -engine-scaling prints (and docs/PERFORMANCE.md commits). Wall times are
// host wall-clock — unlike everything else tshmem-bench reports, this
// table is about the host, so absolute numbers vary by machine; the
// event:goroutine throughput ratio at equal concurrency is the figure
// that travels.
func FormatEngineScaling(points []ScalingPoint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %11s %6s %10s %10s %8s %9s\n",
		"engine", "concurrent", "sims", "wall_ms", "sims/s", "peak_g", "runnable")
	base := map[int]float64{}
	for _, p := range points {
		if p.Engine == core.EngineGoroutine.String() {
			base[p.Concurrent] = p.SimsPerSec
		}
	}
	for _, p := range points {
		ratio := ""
		if b := base[p.Concurrent]; b > 0 && p.Engine != core.EngineGoroutine.String() {
			ratio = fmt.Sprintf("  (%.2fx)", p.SimsPerSec/b)
		}
		fmt.Fprintf(&sb, "%-10s %11d %6d %10.1f %10.0f %8d %9d%s\n",
			p.Engine, p.Concurrent, p.Sims, p.WallMs, p.SimsPerSec,
			p.PeakGoroutines, p.RunnablePerSim, ratio)
	}
	return sb.String()
}
