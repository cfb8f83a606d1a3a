package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// TestBigMeshBarrierProbe runs the full barrier probe on a 64x64 (4096-PE)
// and a 128x128 (16 384-PE) synthetic mesh — the scale the sparse mesh
// layer, the replayed start_pes handshake and the calendar's ready heap
// exist for. The 4096-PE leg fits a -race build too: one goroutine per PE
// stays under the detector's 8128-goroutine ceiling; the larger leg does
// not and is skipped there.
//
// Host memory is the gate's point: ~17 KiB per PE (the goroutine stack,
// the PE itself, a few ring slots of barrier queue), i.e. O(n), where the
// pre-sparse mesh layer alone would have needed ~400 MB of n^2 path table
// and eager UDN queues and interrupt lanes another ~70 KiB per PE.
func TestBigMeshBarrierProbe(t *testing.T) {
	const perPE = 96 << 10 // measured ~17 KiB/PE
	for _, leg := range []struct {
		side int
		// The makespan the goroutine engine (deleted in PR 15) produced for
		// this probe, to the picosecond; the calendar is what has to keep
		// reproducing it, whatever it grants from.
		makespan vtime.Duration
		// Host-time ceiling, uninstrumented builds only. The 16 384-PE leg
		// is the guard on the grant: it takes ~1.2 s off the ready heap
		// and took 6.6 s when every grant scanned all n nodes.
		ceiling time.Duration
	}{
		{side: 64, makespan: 732781800},
		{side: 128, makespan: 3631155550, ceiling: 5 * time.Second},
	} {
		n := leg.side * leg.side
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			if raceBuild && n > 8000 {
				t.Skipf("%d PE goroutines exceed the race detector's 8128-goroutine ceiling", n)
			}
			cfg := Config{
				Chip: arch.Synthetic(leg.side, leg.side), NPEs: n,
				HeapPerPE: 4096, ScratchBytes: 1 << 16,
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			rep, err := Run(cfg, func(pe *PE) error { return pe.BarrierAll() })
			host := time.Since(t0)
			if err != nil {
				t.Fatalf("%d PEs: %v", n, err)
			}
			runtime.ReadMemStats(&after)
			delta := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d PEs: makespan %v, host %v, %.1f MiB allocated (%.0f KiB/PE)",
				n, rep.MaxTime, host.Round(time.Millisecond),
				float64(delta)/(1<<20), float64(delta)/float64(n)/(1<<10))
			if rep.MaxTime != leg.makespan {
				t.Errorf("%d PEs: makespan %d ps, the reference engine's was %d ps", n, rep.MaxTime, leg.makespan)
			}
			// The O(n) memory bar: per-PE host cost stays bounded as n grows.
			if delta > uint64(n)*perPE {
				t.Errorf("%d PEs: %d bytes allocated, O(n) gate is %d", n, delta, uint64(n)*perPE)
			}
			if leg.ceiling > 0 && !raceBuild && host > leg.ceiling {
				t.Errorf("%d PEs: %v of host time, ceiling %v: a per-grant cost that grows with n is back", n, host, leg.ceiling)
			}
		})
	}
}
