// Package kernels is the scenario corpus: distributed OpenSHMEM
// workloads with communication skeletons the FFT and CBIR case studies
// do not exercise — all-to-all exchange (sample-sort), irregular
// one-sided gets plus atomic claims (BFS), deep halo exchange
// (stencil), and lock-protected shared state plus tree reduction
// (word count).
//
// Every kernel implements the Kernel interface: a distributed Run that
// executes on each PE inside core.Run, a serial RefSolve oracle that
// recomputes the answer from the Spec alone, and a Verify that checks
// a run's output against the oracle plus kernel-specific invariants.
// The differential contract — Run output == RefSolve output on every
// chip, engine, PE count, and sync-algorithm selection — is what the
// test matrix in this package enforces.
//
// All kernels are deterministic in virtual time: inputs derive from
// Spec.Seed via a splitmix-style hash, communication phases are
// barrier-separated so no PE's clock depends on host scheduling, and
// atomics are used only in commutative (FAdd) or single-writer (CSwap
// by the owner) patterns. That is what lets the cross-engine tests
// demand byte-identical reports.
package kernels

import (
	"fmt"
	"slices"
	"sync"

	"tshmem/internal/core"
)

// Spec parameterizes one kernel run. The zero value of an optional
// field selects a kernel-specific default; Run and RefSolve normalize
// the Spec identically, so the oracle always agrees on the effective
// problem.
type Spec struct {
	Size int   // problem size: keys (sort), vertices (bfs), grid side (stencil), words (wordcount)
	Seed int64 // input generator seed
	NPEs int   // PEs the kernel runs on (Launch copies this into Config.NPEs)

	Width int // stencil only: halo depth w >= 1 (0 means 1)
	Iters int // stencil only: total sub-iterations; rounded up to a multiple of Width (0 means 4*Width)
}

// Kernel is the shared contract every corpus member implements.
type Kernel interface {
	// Name is the short registry/probe ID (e.g. "sort").
	Name() string
	// Title is a one-line human description.
	Title() string
	// HeapPerPE returns a sufficient symmetric-heap size for the spec.
	HeapPerPE(s Spec) int64
	// Run executes the distributed kernel on this PE. The returned
	// slice is the kernel's canonical output and is non-nil only on
	// PE 0; every other PE returns nil.
	Run(pe *core.PE, s Spec) ([]int64, error)
	// RefSolve computes the same output serially from the Spec alone.
	RefSolve(s Spec) []int64
	// Verify checks a run's PE-0 output against the serial oracle and
	// any kernel-specific invariants (sortedness, fixed boundaries,
	// conserved counts).
	Verify(s Spec, got []int64) error
}

// registry holds the corpus in menu order.
var registry = []Kernel{
	sampleSort{},
	bfsKernel{},
	stencilKernel{},
	wordCount{},
}

// Kernels returns the corpus in stable menu order.
func Kernels() []Kernel {
	out := make([]Kernel, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registry IDs in menu order.
func Names() []string {
	names := make([]string, len(registry))
	for i, k := range registry {
		names[i] = k.Name()
	}
	return names
}

// ByName looks a kernel up by its registry ID.
func ByName(name string) (Kernel, error) {
	for _, k := range registry {
		if k.Name() == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown kernel %q (have %v)", name, Names())
}

// Launch runs kernel k under cfg with the spec's PE count and a
// sufficient heap, and returns the report plus PE 0's output. cfg's
// NPEs and HeapPerPE fields are overridden from the spec (HeapPerPE
// only if unset); everything else — chip, engine, sanitizer, faults,
// sync algorithms, observability — passes through, so the harness
// composes with every correctness layer.
//
// On error (including fault-plan timeouts) the report, when non-nil,
// still carries diagnostics and fault counts.
func Launch(k Kernel, s Spec, cfg core.Config) (*core.Report, []int64, error) {
	if s.NPEs > 0 {
		cfg.NPEs = s.NPEs
	}
	if cfg.NPEs <= 0 {
		cfg.NPEs = 4
	}
	s.NPEs = cfg.NPEs
	if cfg.HeapPerPE == 0 {
		cfg.HeapPerPE = k.HeapPerPE(s)
		if cfg.HeapPerPE < 1<<16 {
			cfg.HeapPerPE = 1 << 16 // runtime minimum partition size
		}
	}

	var (
		mu  sync.Mutex
		out []int64
	)
	rep, err := core.Run(cfg, func(pe *core.PE) error {
		res, err := k.Run(pe, s)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			mu.Lock()
			out = res
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return rep, nil, err
	}
	if out == nil {
		return rep, nil, fmt.Errorf("kernels: %s produced no output on PE 0", k.Name())
	}
	return rep, out, nil
}

// Check is Launch followed by Verify: the one-call differential test.
func Check(k Kernel, s Spec, cfg core.Config) (*core.Report, error) {
	rep, out, err := Launch(k, s, cfg)
	if err != nil {
		return rep, err
	}
	if err := k.Verify(s, out); err != nil {
		return rep, err
	}
	return rep, nil
}

// mix64 is a splitmix64-style avalanche; the corpus's only source of
// "randomness", so inputs are pure functions of (seed, index).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash folds a seed and indices into a nonnegative int64.
func hash(seed int64, idx ...int64) int64 {
	h := mix64(uint64(seed) ^ 0xc0ffee)
	for _, v := range idx {
		h = mix64(h ^ uint64(v))
	}
	return int64(h &^ (1 << 63))
}

// blockLo returns the start of PE k's block when n items are split
// over p PEs with the standard balanced formula lo(k) = k*n/p.
func blockLo(k, n, p int) int { return k * n / p }

// chargeSort charges the virtual-time cost of sorting m elements:
// a comparison-sort's m*ceil(log2 m) compare-and-move steps.
func chargeSort(pe *core.PE, m int) {
	if m < 2 {
		return
	}
	lg := int64(0)
	for x := m - 1; x > 0; x >>= 1 {
		lg++
	}
	pe.ComputeIntOps(int64(m) * lg * 4)
}

// sortI64 sorts a slice ascending.
func sortI64(v []int64) {
	slices.Sort(v)
}

// eqOracle compares an output vector against the oracle and reports
// the first divergence with context.
func eqOracle(name string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: output has %d elements, oracle has %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: output[%d] = %d, oracle says %d", name, i, got[i], want[i])
		}
	}
	return nil
}
