package core

import (
	"fmt"
	"testing"

	"tshmem/internal/arch"
)

// BenchmarkLaunch times a warm empty-body launch, Run to Run, at three
// sizes: Gx8036's 36 tiles, a Synthetic 16x16 mesh (the benchmark's launch
// workload) and a Synthetic 32x32 one. Warm means what the process keeps
// between launches of a shape is kept: the pooled shell, with the start_pes
// replay one launch before the timer stores in it, and the PE workers. Run it
// with -benchmem: a warm launch allocates no per-PE state
// (TestLaunchBytesPerPE), and past 256 PEs the worker pool's cap makes the
// rest of the workers anew each launch. The 1024-PE shell (72 MiB) is over
// arenaPoolBudget and never pooled, so that leg also zeroes a new segment
// and walks the handshake at every launch.
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
