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
	"math/bits"

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

// ProbeSpec is the fixed small-input spec each kernel's probe
// (tshmem-bench -probe NAME) and BenchmarkKernelRun run: large enough
// that every communication phase moves data on all 8 PEs, small enough
// that a probe stays interactive under the sanitizer.
func ProbeSpec(name string) Spec {
	s := Spec{NPEs: 8, Seed: 1}
	switch name {
	case "sort":
		s.Size = 4096
	case "bfs":
		s.Size = 640
	case "stencil":
		s.Size = 64
		s.Width = 2
	case "wordcount":
		s.Size = 8192
	}
	return s
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

	// Only PE 0 writes out, and Run's return orders that write before the
	// read below.
	var out []int64
	rep, err := core.Run(cfg, func(pe *core.PE) error {
		res, err := k.Run(pe, s)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			out = res
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

// sortI64 sorts v ascending in place and allocates nothing: MSD radix
// levels (American flag sort) leave buckets of insertionMax keys or fewer,
// and one insertion sort of the whole slice finishes them. A key's digits
// are taken from its offset from the minimum, uint64(x) - uint64(lo),
// which keeps the order across the whole int64 range and starts the first
// digit at the highest bit in which two keys differ. Its cost is host
// time only: chargeSort prices a sort in virtual time by formula.
// FuzzSortI64 holds it to slices.Sort.
func sortI64(v []int64) {
	radixSort(v)
	insertionSort(v)
}

const (
	// insertionMax is the bucket length at or below which a bucket is
	// left to the final insertion sort instead of another radix level.
	insertionMax = 24
	// scatterMax is the longest slice a level distributes through a
	// stack buffer and copies back. A longer one is permuted in place by
	// cycle leading, whose chain of dependent loads costs more per key.
	scatterMax = 512
)

// radixSort orders v into buckets of insertionMax keys or fewer, each
// holding the keys that belong at its place in the sorted slice.
func radixSort(v []int64) {
	if len(v) <= insertionMax {
		return
	}
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	radixLevel(v, uint64(lo), bits.Len64(uint64(hi)-uint64(lo)))
}

// radixLevel orders v, whose keys' offsets from lo are all below
// 1<<width, by the top digit of the offset, and then each bucket of more
// than insertionMax keys by the next digit. A digit has up to 8 bits, and
// fewer when v is short, so that its buckets hold about four keys each.
func radixLevel(v []int64, lo uint64, width int) {
	w := min(width, 8, max(1, bits.Len(uint(len(v)))-2))
	shift := width - w
	mask := uint8(1<<w - 1)
	var next, end [256]int32
	for _, x := range v {
		end[digit(x, lo, shift, mask)]++
	}
	sum := int32(0)
	for b := range end[:int(mask)+1] {
		next[b] = sum
		sum += end[b]
		end[b] = sum
	}
	if len(v) <= scatterMax {
		var buf [scatterMax]int64
		for _, x := range v {
			d := digit(x, lo, shift, mask)
			buf[next[d]] = x
			next[d]++
		}
		copy(v, buf[:len(v)])
	} else {
		for b := range end[:int(mask)+1] {
			for next[b] < end[b] {
				// Carry the key at bucket b's next free slot to its own
				// bucket, and the key it displaces to that one's, until
				// a key belonging in b closes the cycle.
				x := v[next[b]]
				for d := digit(x, lo, shift, mask); d != uint8(b); d = digit(x, lo, shift, mask) {
					x, v[next[d]] = v[next[d]], x
					next[d]++
				}
				v[next[b]] = x
				next[b]++
			}
		}
	}
	if shift == 0 {
		return
	}
	start := int32(0)
	for _, e := range end[:int(mask)+1] {
		if e-start > insertionMax {
			radixLevel(v[start:e], lo, shift)
		}
		start = e
	}
}

// digit returns key x's radix digit at a level: its offset from lo,
// shifted down and masked.
func digit(x int64, lo uint64, shift int, mask uint8) uint8 {
	return uint8((uint64(x)-lo)>>shift) & mask
}

// insertionSort sorts v ascending in place. It costs little beyond one
// pass when each key is only a few places from where it belongs, as in a
// slice radixSort has left in short, ordered buckets.
func insertionSort(v []int64) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for ; j >= 0 && v[j] > x; j-- {
			v[j+1] = v[j]
		}
		v[j+1] = x
	}
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
