package kernels

import (
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
