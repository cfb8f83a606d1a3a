package bench

import (
	"fmt"
	"strings"

	"tshmem/internal/core"
	"tshmem/internal/kernels"
	"tshmem/internal/stats"
)

// The scenario-corpus probes (tshmem-bench -probe sort|bfs|stencil|
// wordcount). Each wraps one internal/kernels workload as a
// self-verifying probe: the run's PE-0 output is checked against the
// kernel's serial oracle before the Report is handed back, so a probe
// that "succeeds" with wrong data is impossible. Like the algorithm
// and chip sweeps, kernel probes are deliberately NOT members of the
// baseline suite: RunSuite iterates the figure probes only, keeping
// BENCH_baseline.json byte-identical while the corpus exists.

// kernelPrimaryOp headlines the op class that defines each kernel's
// communication skeleton in probe output.
var kernelPrimaryOp = map[string]stats.Op{
	"sort":      stats.OpCollect, // all-to-all exchange
	"bfs":       stats.OpGet,     // irregular one-sided reads
	"stencil":   stats.OpPut,     // ghost-cell puts
	"wordcount": stats.OpReduce,  // tree reduction
}

// kernelProbes builds one probe per corpus kernel, in menu order.
func kernelProbes() []Probe {
	var out []Probe
	for _, k := range kernels.Kernels() {
		k := k
		out = append(out, Probe{
			ID:        k.Name(),
			Title:     k.Title() + " [scenario corpus, oracle-verified]",
			PrimaryOp: kernelPrimaryOp[k.Name()],
			Run: func(opts ProbeOpts) (*core.Report, error) {
				s := kernels.ProbeSpec(k.Name())
				cfg := core.Config{
					Chip:    opts.chip(),
					Observe: true, Trace: opts.Trace, Sanitize: opts.Sanitize,
					Profile: opts.Profile, Faults: opts.Faults,
					BarrierAlgo: opts.BarrierAlgo, LockAlgo: opts.LockAlgo, Engine: opts.Engine,
				}
				rep, out, err := kernels.Launch(k, s, cfg)
				if err != nil {
					// Fault-plan timeouts hand back the report with the
					// error, matching the probe contract.
					return rep, err
				}
				if err := k.Verify(s, out); err != nil {
					return rep, fmt.Errorf("differential check failed: %w", err)
				}
				return rep, nil
			},
		})
	}
	return out
}

// sweepKernelPEs is the communicator size the kernel sweep compares
// across chips, bounded by the smallest swept chip (16-core E-III).
const sweepKernelPEs = 8

// SweepKernels runs every corpus kernel on every chip family at the
// same PE count and renders the verified-makespan table — the
// workload-selection companion to SweepChips (tshmem-bench
// -sweep-kernels). Every cell is a fresh oracle-checked run, so the
// table cannot quote a makespan for a wrong answer.
func SweepKernels(opt Options) (string, error) {
	var b strings.Builder
	chips := sweepChipSet()
	b.WriteString("== scenario-corpus sweep: oracle-verified makespan (us) ==\n")
	fmt.Fprintf(&b, "(%d PEs per run; probe-sized inputs: ", sweepKernelPEs)
	for i, k := range kernels.Kernels() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", k.Name(), kernels.ProbeSpec(k.Name()).Size)
	}
	b.WriteString(")\n\n")

	fmt.Fprintf(&b, "%-12s", "kernel \\ chip")
	for _, chip := range chips {
		fmt.Fprintf(&b, " %14s", chip.Name)
	}
	b.WriteString("\n")
	for _, k := range kernels.Kernels() {
		fmt.Fprintf(&b, "%-12s", k.Name())
		for _, chip := range chips {
			s := kernels.ProbeSpec(k.Name())
			s.NPEs = sweepKernelPEs
			rep, err := kernels.Check(k, s, core.Config{Chip: chip})
			if err != nil {
				return "", fmt.Errorf("bench: %s on %s: %w", k.Name(), chip.Name, err)
			}
			fmt.Fprintf(&b, " %14.1f", rep.MaxTime.Us())
		}
		b.WriteString("\n")
	}
	b.WriteString("\n(each cell is a fresh run whose output was checked against the\n" +
		" kernel's serial oracle; columns share the chip set of -sweep-chips.\n" +
		" bfs leans on remote fetch-ops, so the Epiphany TESTSET-emulation\n" +
		" premium shows there first; sort and wordcount stress collectives.)\n")
	return b.String(), nil
}
