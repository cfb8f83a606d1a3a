package bench

// Host-side (wall-clock) microbenchmarks for the simulator itself. The
// virtual-time baseline (BENCH_baseline.json) gates the *model*; these
// gate the *host cost* of running it: ns/op and — the figure ci.sh's
// bench-alloc smoke stage enforces — allocs/op on the uninstrumented hot
// paths. With Config.Observe unset, Put and Barrier must report
// 0 allocs/op; docs/PERFORMANCE.md records the budget per operation.
//
// Run with:
//
//	go test ./internal/bench -run '^$' -bench . -benchmem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tshmem/internal/core"
)

// benchPEs is the PE count the barrier/bcast benchmarks run on: large
// enough that the signal chains do real work, small enough that host
// goroutine scheduling stays cheap on small CI machines.
const benchPEs = 8

// BenchmarkPut measures one 1 KiB dynamic-target put between two tiles,
// uninstrumented. allocs/op must be 0: the put path is pointer arithmetic,
// one memcpy, and float cost-model math.
func BenchmarkPut(b *testing.B) {
	benchPut(b, core.Config{NPEs: 2, HeapPerPE: 1 << 20})
}

// BenchmarkPutObserved is BenchmarkPut with substrate counters on, the
// instrumented bound the observability layer must stay close to.
func BenchmarkPutObserved(b *testing.B) {
	benchPut(b, core.Config{NPEs: 2, HeapPerPE: 1 << 20, Observe: true})
}

func benchPut(b *testing.B, cfg core.Config) {
	const nelems = 128 // 1 KiB of int64
	b.ReportAllocs()
	_, err := core.Run(cfg, func(pe *core.PE) error {
		x, err := core.Malloc[int64](pe, nelems)
		if err != nil {
			return err
		}
		y, err := core.Malloc[int64](pe, nelems)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.Put(pe, y, x, nelems, 1); err != nil {
					return err
				}
			}
			b.StopTimer()
		}
		return pe.BarrierAll()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier measures one barrier_all over the UDN wait+release
// chain on benchPEs tiles, uninstrumented — which makes it the computed
// chain (internal/core, barrier.go): no packet moves. allocs/op counts the
// work of the whole chain (every PE's arrival and release per barrier) and
// must be 0; BenchmarkBarrierObserved sends the packets.
func BenchmarkBarrier(b *testing.B) {
	benchBarrier(b, core.Config{NPEs: benchPEs, HeapPerPE: 64 << 10})
}

// BenchmarkBarrierObserved is BenchmarkBarrier with counters on.
func BenchmarkBarrierObserved(b *testing.B) {
	benchBarrier(b, core.Config{NPEs: benchPEs, HeapPerPE: 64 << 10, Observe: true})
}

func benchBarrier(b *testing.B, cfg core.Config) {
	b.ReportAllocs()
	_, err := core.Run(cfg, func(pe *core.PE) error {
		if pe.MyPE() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		if pe.MyPE() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBcast measures one 4 KiB pull broadcast to benchPEs tiles,
// uninstrumented. The pull design bounds it by two barrier chains plus
// one charged copy per PE.
func BenchmarkBcast(b *testing.B) {
	const nelems = 1 << 9 // 4 KiB of int64
	b.ReportAllocs()
	cfg := core.Config{NPEs: benchPEs, HeapPerPE: 1 << 20}
	_, err := core.Run(cfg, func(pe *core.PE) error {
		target, err := core.Malloc[int64](pe, nelems)
		if err != nil {
			return err
		}
		source, err := core.Malloc[int64](pe, nelems)
		if err != nil {
			return err
		}
		ps, err := core.Malloc[int64](pe, core.BcastSyncSize)
		if err != nil {
			return err
		}
		as := core.AllPEs(pe.NumPEs())
		if pe.MyPE() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := core.BroadcastPull(pe, target, source, nelems, 0, as, ps); err != nil {
				return err
			}
		}
		if pe.MyPE() == 0 {
			b.StopTimer()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunStartup measures a full launch-to-teardown cycle of a
// benchPEs-PE program with an empty body: taking the launch shell (segment
// and per-PE slabs) from the pool, UDN construction, the start_pes exchange
// and closing barrier the launcher computes instead of running (the
// exchange's clocks from the shell's replay after the first iteration), and
// teardown. BenchmarkLaunch in internal/core times the same at 36, 256 and
// 1024 PEs.
func BenchmarkRunStartup(b *testing.B) {
	b.ReportAllocs()
	cfg := core.Config{NPEs: benchPEs, HeapPerPE: 64 << 10}
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, func(pe *core.PE) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFanOutRunnableBound is the structural property behind running many
// simulations at once (EXPERIMENTS.md): 128 concurrent 16-PE runs of the
// barrier probe's chain, stretched eightfold so scheduling dominates, and
// on every one of them the calendar keeps exactly one PE goroutine
// runnable. The host then schedules 128 runnable goroutines, not 2048, and
// the admission gate keeps only a few arenas resident; the peak goroutine
// count (parked PEs included) is logged. Throughput is the benchmark's
// business (core.sims_per_s), not this test's.
func TestFanOutRunnableBound(t *testing.T) {
	const concurrent = 128
	cfg := core.Config{NPEs: 16, HeapPerPE: 512 << 10}
	body := func(pe *core.PE) error {
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		for i := 0; i < 8*probeBarriers; i++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	}
	var peak atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			peak.Store(max(peak.Load(), int64(runtime.NumGoroutine())))
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < concurrent; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := core.Run(cfg, body)
			if err != nil {
				t.Error(err)
			} else if rep.MaxRunnablePEs != 1 {
				t.Errorf("a run had %d PEs runnable at once, want exactly 1", rep.MaxRunnablePEs)
			}
		}()
	}
	wg.Wait()
	close(stop)
	t.Logf("%d concurrent %d-PE runs: peak %d goroutines", concurrent, cfg.NPEs, peak.Load())
}
