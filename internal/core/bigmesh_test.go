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
// Host memory is the gate's point: ~10 KiB per PE, 8 of it the stack of a PE
// coroutine the worker pool did not have (it keeps 256), the rest the PE,
// its port and a few ring slots of barrier queue (TestLaunchBytesPerPE
// measures that rest alone) — i.e. O(n), where the pre-sparse mesh layer
// alone would have needed ~400 MB of n^2 path table and eager UDN queues and
// interrupt lanes another ~70 KiB per PE. It was 16 KiB while every PE
// carried a 6 KiB copy-cost memo of its own.
func TestBigMeshBarrierProbe(t *testing.T) {
	const perPE = 14 << 10 // measured ~10 KiB/PE
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

// TestLaunchBytesPerPE holds a launch's fixed host cost per PE: a warm
// 256-PE empty launch — PE workers pooled, arena pooled, the handshake in
// the replay cache — allocates 1.4 KiB and 1.1 objects per PE. The objects
// are slabs (PEs with their allocators, ports, calendar nodes, watch hubs,
// partition tables, first rings of the barrier queues) plus one interrupt
// handler closure per PE. It read 7.6 KiB and 8.2 objects while a PE owned
// a copy-cost memo and every piece of launch state was its own allocation.
func TestLaunchBytesPerPE(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates on the launch path")
	}
	const n, maxBytes, maxMallocs = 256, 2 << 10, 2
	cfg := Config{Chip: arch.Synthetic(16, 16), NPEs: n, HeapPerPE: 64 << 10}
	body := func(*PE) error { return nil }
	for i := 0; i < 2; i++ {
		runT(t, cfg, body)
	}
	const launches = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		runT(t, cfg, body)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / launches / n
	mallocs := float64(after.Mallocs-before.Mallocs) / launches / n
	t.Logf("warm %d-PE launch: %.0f B and %.2f mallocs per PE", n, bytes, mallocs)
	if bytes >= maxBytes || mallocs >= maxMallocs {
		t.Errorf("a warm %d-PE launch allocates %.0f B and %.2f objects per PE, the gate is %d B and %d",
			n, bytes, mallocs, maxBytes, maxMallocs)
	}
}
