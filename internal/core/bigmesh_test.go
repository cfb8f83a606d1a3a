package core

import (
	"runtime"
	"testing"
	"time"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// TestBigMeshBarrierProbe runs the full 4096-PE (64x64 synthetic)
// barrier probe — the scale the sparse mesh layer and the replayed
// start_pes handshake exist for. It fits a -race build too: one goroutine
// per PE stays well under the detector's 8128-goroutine ceiling.
//
// Host memory is the gate's point: ~17 KiB per PE (the goroutine stack,
// the PE itself, a few ring slots of barrier queue), i.e. O(n), where the
// pre-sparse mesh layer alone would have needed ~400 MB of n^2 path table
// and eager UDN queues and interrupt lanes another ~70 KiB per PE.
func TestBigMeshBarrierProbe(t *testing.T) {
	const n = 4096
	const perPE = 96 << 10 // measured ~17 KiB/PE
	// The goroutine engine's makespan for this probe, to the picosecond
	// (PR 15's parent; the two engines agreed on it then).
	const makespan = vtime.Duration(732781800)
	cfg := Config{
		Chip: arch.Synthetic(64, 64), NPEs: n,
		HeapPerPE: 4096, ScratchBytes: 1 << 16,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	rep, err := Run(cfg, func(pe *PE) error { return pe.BarrierAll() })
	if err != nil {
		t.Fatalf("%d PEs: %v", n, err)
	}
	runtime.ReadMemStats(&after)
	delta := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d PEs: makespan %v, host %v, %.1f MiB allocated (%.0f KiB/PE)",
		n, rep.MaxTime, time.Since(t0).Round(time.Millisecond),
		float64(delta)/(1<<20), float64(delta)/float64(n)/(1<<10))
	if rep.MaxTime != makespan {
		t.Errorf("%d PEs: makespan %d ps, the reference engine's was %d ps", n, rep.MaxTime, makespan)
	}
	// The O(n) memory bar: per-PE host cost stays bounded as n grows.
	if delta > uint64(n)*perPE {
		t.Errorf("%d PEs: %d bytes allocated, O(n) gate is %d", n, delta, uint64(n)*perPE)
	}
}
