package core

import (
	"runtime"
	"testing"
	"time"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// TestBigMeshBarrierProbe runs the full 4096-PE (64x64 synthetic)
// barrier probe on both engines — the scale the sparse mesh layer and the
// replayed start_pes handshake exist for. It fits a -race build too: one
// goroutine per PE stays well under the detector's 8128-goroutine ceiling
// now that interrupt servicers start on first use.
//
// Host memory is the gate's point: ~33 KiB per PE (the barrier queue's
// buffer, the goroutine stack, the PE itself), i.e. O(n), where the
// pre-sparse mesh layer alone would have needed ~400 MB of n^2 path table
// and eager UDN queues and interrupt lanes another ~70 KiB per PE.
func TestBigMeshBarrierProbe(t *testing.T) {
	const n = 4096
	const perPE = 96 << 10 // measured ~33 KiB/PE; ~3x headroom
	var makespan vtime.Duration
	for _, eng := range Engines() {
		cfg := Config{
			Chip: arch.Synthetic(64, 64), NPEs: n, Engine: eng,
			HeapPerPE: 4096, ScratchBytes: 1 << 16,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		rep, err := Run(cfg, func(pe *PE) error { return pe.BarrierAll() })
		if err != nil {
			t.Fatalf("%s engine, %d PEs: %v", eng, n, err)
		}
		runtime.ReadMemStats(&after)
		delta := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s %d PEs: makespan %v, host %v, %.1f MiB allocated (%.0f KiB/PE)",
			eng, n, rep.MaxTime, time.Since(t0).Round(time.Millisecond),
			float64(delta)/(1<<20), float64(delta)/float64(n)/(1<<10))
		if rep.MaxTime <= 0 {
			t.Errorf("%s engine, %d PEs: nonpositive makespan %v", eng, n, rep.MaxTime)
		}
		// The O(n) memory bar: per-PE host cost must stay bounded as n
		// grows, so a 64x64 run costs hundreds of MB, not the old n^2 GBs.
		if delta > uint64(n)*perPE {
			t.Errorf("%s engine, %d PEs: %d bytes allocated, O(n) gate is %d",
				eng, n, delta, uint64(n)*perPE)
		}
		// The engines must agree exactly.
		if makespan == 0 {
			makespan = rep.MaxTime
		} else if rep.MaxTime != makespan {
			t.Errorf("%d PEs: engines disagree on makespan: %v vs %v", n, makespan, rep.MaxTime)
		}
	}
}
