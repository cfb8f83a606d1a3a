package kernels

import (
	"fmt"
	"testing"

	"tshmem/internal/core"
)

// BenchmarkKernelRun times one Launch per op of each corpus kernel at
// its probe size (ProbeSpec), unobserved, with allocations reported: the
// host cost of a kernel's Run body and the launch around it.
//
//	go test ./internal/kernels -run '^$' -bench KernelRun -benchmem
func BenchmarkKernelRun(b *testing.B) {
	for _, k := range Kernels() {
		b.Run(k.Name(), func(b *testing.B) {
			s := ProbeSpec(k.Name())
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := Launch(k, s, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sortSizes are the lengths the sort probe hands sortI64: a PE's regular
// samples, a PE's key block, and the whole key set RefSolve sorts.
var sortSizes = []int{64, 512, 4096}

// BenchmarkSortI64 times sortI64 on the sort kernel's own keys at each
// of sortSizes; every op re-copies the unsorted keys, which the timing
// includes.
//
//	go test ./internal/kernels -run '^$' -bench SortI64 -benchmem
func BenchmarkSortI64(b *testing.B) {
	for _, n := range sortSizes {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = sortKeyAt(1, i)
			}
			buf := make([]int64, n)
			b.ReportAllocs()
			for b.Loop() {
				copy(buf, keys)
				sortI64(buf)
			}
		})
	}
}

// TestSortI64ZeroAlloc: sortI64 runs inside every sort-kernel PE body and
// its oracle, so it sorts in place with no heap scratch.
func TestSortI64ZeroAlloc(t *testing.T) {
	for _, n := range sortSizes {
		keys := make([]int64, n)
		buf := make([]int64, n)
		for i := range keys {
			keys[i] = sortKeyAt(1, i)
		}
		if a := testing.AllocsPerRun(20, func() {
			copy(buf, keys)
			sortI64(buf)
		}); a != 0 {
			t.Errorf("sortI64 of %d keys: %v allocs, want 0", n, a)
		}
	}
}
