package core

import (
	"fmt"
	"testing"
	"unsafe"

	"tshmem/internal/arch"
)

// BenchmarkLaunch times a warm empty-body launch, Run to Run, at three
// sizes: Gx8036's 36 tiles, a Synthetic 16x16 mesh (the benchmark's launch
// workload) and a Synthetic 32x32 one. Warm means what the process keeps
// between launches of a shape is kept: the pooled shell, with the start_pes
// replay one launch before the timer stores in it, the Program it holds, and
// the PE workers. Run it with -benchmem: a warm launch at 36 or 256 PEs
// allocates its Report and PETimes, 2 objects (TestLaunchBytesPerPE), where
// it allocated 23 objects, 9-11 KB, while each launch made its Program. Past
// 256 PEs the worker pool's cap makes the rest of the workers anew each launch, and
// the 1024-PE shell (72 MiB) is over arenaPoolBudget and never pooled, so
// that leg also builds a new shell and walks the handshake at every launch.
func BenchmarkLaunch(b *testing.B) {
	for _, c := range []struct {
		chip *arch.Chip
		n    int
	}{
		{arch.Gx8036(), 36},
		{arch.Synthetic(16, 16), 256},
		{arch.Synthetic(32, 32), 1024},
	} {
		b.Run(fmt.Sprint(c.n), func(b *testing.B) {
			cfg := Config{Chip: c.chip, NPEs: c.n, HeapPerPE: 64 << 10}
			body := func(*PE) error { return nil }
			if _, err := Run(cfg, body); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPESize pins PE at its current 368 bytes. Every launch clears and
// walks the PE slab, so its size sets what a warm launch costs: a build
// with 160 B of padding in PE read BenchmarkLaunch/256 at 166–185 µs
// against 133–144 µs (three alternated 1000x runs each). Per-PE state for a
// new mechanism goes in a launch-shell slab of its own, as phaseRun does.
func TestPESize(t *testing.T) {
	if got := unsafe.Sizeof(PE{}); got > 368 {
		t.Errorf("PE is %d B, over its 368 B: a build with 160 B of padding in PE read BenchmarkLaunch/256 at 166–185 µs "+
			"against 133–144 µs; move the new per-PE state to a launch-shell slab, as phaseRun is", got)
	}
}
