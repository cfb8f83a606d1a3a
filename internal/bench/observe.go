package bench

import (
	"fmt"

	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/fault"
	"tshmem/internal/stats"
)

// ProbeOpts configures one probe launch.
type ProbeOpts struct {
	// Trace additionally buffers the per-operation event timeline.
	Trace bool
	// Chip overrides the modeled chip; nil selects the TILE-Gx8036 the
	// probes are written for. Baseline tests use this to run the same
	// probe on a deliberately slowed chip model.
	Chip *arch.Chip
	// Sanitize runs the probe under the happens-before checker; the
	// probe's Report then carries any Diagnostics. Virtual time — and so
	// the probe's metrics — is unaffected.
	Sanitize bool
	// Profile runs the probe under the causal profiler; the probe's Report
	// then carries a profile.Profile (blame ledger + critical path).
	// Virtual time is unaffected.
	Profile bool
	// Faults injects a deterministic fault plan into the probe's substrate
	// and bounds every blocking wait (see docs/ROBUSTNESS.md). A probe run
	// under faults may return both a Report and a core.ErrTimeout error.
	Faults *fault.Plan
	// BarrierAlgo/LockAlgo select synchronization algorithms for the
	// probe's run (docs/SYNC.md). The zero values, the linear chain and the
	// CAS lock, keep default probe runs and BENCH_baseline.json unchanged.
	BarrierAlgo core.BarrierAlgo
	LockAlgo    core.LockAlgo
	// Engine is vestigial (core.Config.Engine has one value); the frozen
	// benchmark/ package still sets it.
	Engine core.Engine
}

func (o ProbeOpts) chip() *arch.Chip {
	if o.Chip != nil {
		return o.Chip
	}
	return arch.Gx8036()
}

// A Probe is a small single-run microbenchmark built for observability
// rather than for a paper figure: it launches one program with substrate
// counters (and optionally the event trace) enabled and hands back the
// Report, so callers can print the counter table with Report.Stats and
// export the Chrome trace with Report.TraceTo. tshmem-bench runs probes
// with -probe (and -trace / -stats / -heatmap / -json); see
// docs/OBSERVABILITY.md.
type Probe struct {
	ID    string
	Title string
	// PrimaryOp is the op class whose latency histogram headlines this
	// probe in the machine-readable baseline (p50/p90/p99/max).
	PrimaryOp stats.Op
	// Run launches the probe with counters on.
	Run func(opts ProbeOpts) (*core.Report, error)
}

// probeBarriers is how many barrier_all calls the barrier probe issues.
const probeBarriers = 8

var probes = []Probe{
	{
		ID:        "barrier",
		Title:     fmt.Sprintf("%d aligned barrier_all calls on 16 TILE-Gx tiles (Figure 8 instrumented)", probeBarriers),
		PrimaryOp: stats.OpBarrier,
		Run: func(opts ProbeOpts) (*core.Report, error) {
			cfg := core.Config{
				Chip: opts.chip(), NPEs: 16, HeapPerPE: 64 << 10,
				Observe: true, Trace: opts.Trace, Sanitize: opts.Sanitize, Profile: opts.Profile, Faults: opts.Faults,
				BarrierAlgo: opts.BarrierAlgo, LockAlgo: opts.LockAlgo, Engine: opts.Engine,
			}
			return core.Run(cfg, func(pe *core.PE) error {
				if err := pe.AlignClocks(); err != nil {
					return err
				}
				for i := 0; i < probeBarriers; i++ {
					if err := pe.BarrierAll(); err != nil {
						return err
					}
				}
				return nil
			})
		},
	},
	{
		ID:        "put",
		Title:     "put size sweep 8 B..64 kB between two TILE-Gx tiles (Figure 6 instrumented)",
		PrimaryOp: stats.OpPut,
		Run: func(opts ProbeOpts) (*core.Report, error) {
			const maxElems = 64 << 10 / 8
			cfg := core.Config{
				Chip: opts.chip(), NPEs: 2, HeapPerPE: 2*64<<10 + 1<<20,
				Observe: true, Trace: opts.Trace, Sanitize: opts.Sanitize, Profile: opts.Profile, Faults: opts.Faults,
				BarrierAlgo: opts.BarrierAlgo, LockAlgo: opts.LockAlgo, Engine: opts.Engine,
			}
			return core.Run(cfg, func(pe *core.PE) error {
				x, err := core.Malloc[int64](pe, maxElems)
				if err != nil {
					return err
				}
				y, err := core.Malloc[int64](pe, maxElems)
				if err != nil {
					return err
				}
				if err := pe.AlignClocks(); err != nil {
					return err
				}
				if pe.MyPE() == 0 {
					for nelems := 1; nelems <= maxElems; nelems *= 2 {
						if err := core.Put(pe, y, x, nelems, 1); err != nil {
							return err
						}
						pe.Quiet()
					}
				}
				return pe.BarrierAll()
			})
		},
	},
	{
		ID:        "bcast",
		Title:     "pull-based broadcast of 32 kB to 16 TILE-Gx tiles (Figure 10 instrumented)",
		PrimaryOp: stats.OpBroadcast,
		Run: func(opts ProbeOpts) (*core.Report, error) {
			const nelems = 32 << 10 / 4 // 32 kB of int32
			cfg := core.Config{
				Chip: opts.chip(), NPEs: 16, HeapPerPE: 2*32<<10 + 1<<20,
				Observe: true, Trace: opts.Trace, Sanitize: opts.Sanitize, Profile: opts.Profile, Faults: opts.Faults,
				BarrierAlgo: opts.BarrierAlgo, LockAlgo: opts.LockAlgo, Engine: opts.Engine,
			}
			return core.Run(cfg, func(pe *core.PE) error {
				target, err := core.Malloc[int32](pe, nelems)
				if err != nil {
					return err
				}
				source, err := core.Malloc[int32](pe, nelems)
				if err != nil {
					return err
				}
				ps, err := core.Malloc[int64](pe, core.BcastSyncSize)
				if err != nil {
					return err
				}
				src := core.MustLocal(pe, source)
				for i := range src {
					src[i] = int32(pe.MyPE() + i)
				}
				if err := pe.AlignClocks(); err != nil {
					return err
				}
				return core.BroadcastPull(pe, target, source, nelems, 0,
					core.AllPEs(pe.NumPEs()), ps)
			})
		},
	},
}

// Probes lists every probe — the figure probes above, then the
// scenario-corpus kernel probes (kernels.go) — in registration order.
// Only the figure probes feed RunSuite and BENCH_baseline.json; the
// kernel probes are run individually via -probe.
func Probes() []Probe {
	out := make([]Probe, 0, len(probes)+4)
	out = append(out, probes...)
	return append(out, kernelProbes()...)
}

// SuiteProbes lists only the figure probes — the RunSuite membership
// whose results BENCH_baseline.json records.
func SuiteProbes() []Probe {
	out := make([]Probe, len(probes))
	copy(out, probes)
	return out
}

// ProbeIDs lists the valid -probe arguments in registration order.
func ProbeIDs() []string {
	all := Probes()
	ids := make([]string, len(all))
	for i, p := range all {
		ids[i] = p.ID
	}
	return ids
}

// LookupProbe finds a probe by ID.
func LookupProbe(id string) (Probe, bool) {
	for _, p := range Probes() {
		if p.ID == id {
			return p, true
		}
	}
	return Probe{}, false
}
