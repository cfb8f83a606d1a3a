package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"tshmem/internal/alloc"
	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/core"
	"tshmem/internal/fault"
	"tshmem/internal/kernels"
	"tshmem/internal/mesh"
	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/stats"
	"tshmem/internal/tmc"
	"tshmem/internal/udn"
	"tshmem/internal/vtime"
)

// The ladder: one rung per layer, each a tight loop over the layer's
// public functions, timed in host nanoseconds from outside the layer.
// Rungs are independent of the workload and of the seed; a traced
// invocation emits all of them once.

// sink keeps the results of measured calls alive so the compiler cannot
// drop the calls.
var sink int64

// perCall converts the time since t0 into nanoseconds per call.
func perCall(t0 time.Time, calls int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// A ladderRung measures one layer function and returns host time per call
// in the unit its metric is registered with.
type ladderRung struct {
	name string
	run  func() (float64, error)
}

// rung repeats a measurement and returns the median.
func rung(repeats int, measure func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		v, err := measure()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// ladder runs every rung and stores the results in m.
func ladder(m metrics, sz sizes, seed int64, def, event core.Engine) error {
	n := sz.LadderIters
	gx := arch.Gx8036()
	geo := mesh.FullGeometry(gx)
	tiles := geo.Tiles()

	rungs := []ladderRung{
		{"vtime.advance_ns", func() (float64, error) {
			var c vtime.Clock
			t0 := time.Now()
			for i := 0; i < n; i++ {
				c.Advance(vtime.Duration(i & 7))
			}
			sink += int64(c.Now())
			return perCall(t0, n), nil
		}},
		{"vtime.resource_acquire_ns", func() (float64, error) {
			var r vtime.Resource
			var now vtime.Time
			t0 := time.Now()
			for i := 0; i < n; i++ {
				now = r.Acquire(now, vtime.Duration(1+i&3))
			}
			sink += int64(now)
			return perCall(t0, n), nil
		}},
		{"mesh.path_ns", func() (float64, error) { return pathRung(geo, n) }},
		{"mesh.path_4096_ns", func() (float64, error) {
			side := int(math.Sqrt(float64(sz.LadderBigMesh)))
			return pathRung(mesh.FullGeometry(arch.Synthetic(side, side)), n)
		}},
		{"mesh.geometry_4096_us", func() (float64, error) {
			side := int(math.Sqrt(float64(sz.LadderBigMesh)))
			chip := arch.Synthetic(side, side)
			calls := max(n/100, 1)
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				sink += int64(mesh.FullGeometry(chip).Tiles())
			}
			return perCall(t0, calls) / 1e3, nil
		}},
		{"mesh.record_route_ns", func() (float64, error) {
			ls := mesh.NewLinkStats(geo)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				ls.RecordRoute(i%tiles, (i*7+3)%tiles, 1+i&3)
			}
			return perCall(t0, n), nil
		}},
		{"cache.memo_hit_ns", func() (float64, error) {
			model, memo := cache.NewModel(gx), new(cache.Memo)
			var d vtime.Duration
			t0 := time.Now()
			for i := 0; i < n; i++ {
				d += memo.CopyCostHomed(model, 1024, cache.SharedAny, cache.HashForHome, 1)
			}
			sink += int64(d)
			return perCall(t0, n), nil
		}},
		{"cache.memo_miss_ns", func() (float64, error) {
			// Sizes that do not repeat within the memo's capacity, so
			// every lookup recomputes the cost and replaces an entry.
			model, memo := cache.NewModel(gx), new(cache.Memo)
			var d vtime.Duration
			t0 := time.Now()
			for i := 0; i < n; i++ {
				d += memo.CopyCostHomed(model, int64(8+(i*7919)%(1<<20)), cache.SharedAny, cache.HashForHome, 1)
			}
			sink += int64(d)
			return perCall(t0, n), nil
		}},
		{"udn.send_recv_ns", func() (float64, error) {
			net := udn.New(geo)
			defer net.Close()
			a, err := net.Port(0)
			if err != nil {
				return 0, err
			}
			b, err := net.Port(tiles - 1)
			if err != nil {
				return 0, err
			}
			var ca, cb vtime.Clock
			word := []uint64{1}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := a.Send(&ca, b.CPU(), 0, 1, word); err != nil {
					return 0, err
				}
				if _, err := b.Recv(&cb, 0); err != nil {
					return 0, err
				}
			}
			return perCall(t0, n), nil
		}},
		{"udn.pingpong_ns", func() (float64, error) { return udnPingPong(geo, n/10) }},
		{"udn.interrupt_ns", func() (float64, error) {
			net := udn.New(geo)
			defer net.Close()
			a, err := net.Port(0)
			if err != nil {
				return 0, err
			}
			b, err := net.Port(1)
			if err != nil {
				return 0, err
			}
			reply := []uint64{2}
			if err := b.SetHandler(func(udn.Packet) ([]uint64, vtime.Duration) { return reply, 10 }); err != nil {
				return 0, err
			}
			var c vtime.Clock
			calls := n / 10
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				if _, err := a.Interrupt(&c, b.CPU(), 1, reply); err != nil {
					return 0, err
				}
			}
			return perCall(t0, calls), nil
		}},
		{"tmc.barrier_wait_ns", func() (float64, error) {
			const parties = 8
			rounds := n / 100
			b, err := tmc.NewBarrier(gx, tmc.SpinBarrier, parties)
			if err != nil {
				return 0, err
			}
			var wg sync.WaitGroup
			t0 := time.Now()
			for p := 0; p < parties; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var c vtime.Clock
					for i := 0; i < rounds; i++ {
						b.Wait(&c)
					}
				}()
			}
			wg.Wait()
			return perCall(t0, rounds), nil
		}},
		{"tmc.commonmem_new_us", func() (float64, error) {
			t0 := time.Now()
			cm, err := tmc.NewCommonMemory(sz.LadderCommonMem)
			if err != nil {
				return 0, err
			}
			us := perCall(t0, 1) / 1e3
			sink += cm.Size()
			return us, nil
		}},
		{"tmc.map_unmap_ns", func() (float64, error) {
			cm, err := tmc.NewCommonMemory(1 << 20)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if i&1023 == 0 {
					cm.Reset() // Unmap does not recycle space
				}
				off, err := cm.Map(256, 0)
				if err != nil {
					return 0, err
				}
				if err := cm.Unmap(off); err != nil {
					return 0, err
				}
			}
			return perCall(t0, n), nil
		}},
		{"alloc.alloc_free_ns", func() (float64, error) {
			a, err := alloc.New(1 << 20)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			for i := 0; i < n; i++ {
				off, err := a.Alloc(int64(64 + i&255))
				if err != nil {
					return 0, err
				}
				if err := a.Free(off); err != nil {
					return 0, err
				}
			}
			return perCall(t0, n), nil
		}},
		{"stats.recorder_rma_ns", func() (float64, error) {
			rec := stats.New(0, false, 0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				rec.RMA(stats.SameChip, 64, vtime.Duration(100+i&1023))
			}
			c := rec.Counters()
			sink += c.RMAOps[stats.SameChip]
			return perCall(t0, n), nil
		}},
		{"stats.hist_observe_ns", func() (float64, error) {
			var h stats.Hist
			t0 := time.Now()
			for i := 0; i < n; i++ {
				h.Observe(int64(100 + i&0xffff))
			}
			sink += h.MeanPs()
			return perCall(t0, n), nil
		}},
		{"sanitize.write_read_ns", func() (float64, error) {
			// A fenced put and a read of it from the same PE: the shadow
			// check with nothing to report.
			h := sanitize.New(2).PE(0)
			calls := n / 10
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				off, vt := int64(i&255)*64, vtime.Time(i)
				h.Write("put", 1, 0, off, 64, vt)
				h.Quiet()
				h.Read("get", 1, 0, off, 64, vt)
			}
			return perCall(t0, calls), nil
		}},
		{"profile.advance_ns", func() (float64, error) {
			// The ledger keeps at most 2^18 segments before it only counts.
			p := profile.New(0)
			calls := min(n, 1<<17)
			t0 := time.Now()
			for i := 0; i < calls; i++ {
				p.Advance(profile.CatCompute, vtime.Time(2*i), vtime.Time(2*i+1))
			}
			return perCall(t0, calls), nil
		}},
		{"kernels.refsolve_s", func() (float64, error) {
			bfs, err := kernels.ByName("bfs")
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			oracle := bfs.RefSolve(kernels.Spec{Size: sz.BFSVertices / bfsGraphs, Seed: seed, NPEs: gxPEs})
			s := time.Since(t0).Seconds()
			sink += int64(len(oracle))
			return s, nil
		}},
	}
	for _, r := range rungs {
		v, err := rung(sz.LadderRepeats, r.run)
		if err != nil {
			return fmt.Errorf("ladder rung %s: %w", r.name, err)
		}
		m.set(r.name, v)
	}
	if err := coreLadder(m, sz, def, event); err != nil {
		return err
	}
	return opsLadder(m)
}

func pathRung(geo mesh.Geometry, n int) (float64, error) {
	tiles := geo.Tiles()
	var hops int
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p, err := geo.Path(i%tiles, (i*7+3)%tiles, 1+i&3)
		if err != nil {
			return 0, err
		}
		hops += p.Hops
	}
	sink += int64(hops)
	return perCall(t0, n), nil
}

// udnPingPong bounces a one-word packet between two goroutines that each
// block in Recv: the channel hand-off the goroutine engine pays at every
// modeled wait. It reports nanoseconds per one-way hand-off.
func udnPingPong(geo mesh.Geometry, rounds int) (float64, error) {
	net := udn.New(geo)
	defer net.Close()
	a, err := net.Port(0)
	if err != nil {
		return 0, err
	}
	b, err := net.Port(1)
	if err != nil {
		return 0, err
	}
	word := []uint64{1}
	echoErr := make(chan error, 1) // the echo goroutine's single result
	go func() {
		var c vtime.Clock
		for i := 0; i < rounds; i++ {
			if _, err := b.Recv(&c, 0); err != nil {
				echoErr <- err
				return
			}
			if err := b.Send(&c, a.CPU(), 0, 1, word); err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var c vtime.Clock
	var firstErr error
	t0 := time.Now()
	for i := 0; i < rounds && firstErr == nil; i++ {
		if firstErr = a.Send(&c, b.CPU(), 0, 1, word); firstErr == nil {
			_, firstErr = a.Recv(&c, 0)
		}
	}
	ns := perCall(t0, 2*rounds)
	if firstErr != nil {
		net.Close() // unblocks the echo goroutine
	}
	if err := <-echoErr; firstErr == nil {
		firstErr = err
	}
	return ns, firstErr
}

// coreLadder measures the engine hand-off (a 2-PE P+WaitUntil ping-pong)
// and launch time at three PE counts, on every engine.
func coreLadder(m metrics, sz sizes, def, event core.Engine) error {
	for _, v := range []struct {
		e   core.Engine
		sfx string
	}{{def, ""}, {event, "_event"}} {
		e, sfx := v.e, v.sfx
		ns, err := rung(sz.LadderRepeats, func() (float64, error) { return corePingPong(e, sz.LadderIters/20) })
		if err != nil {
			return fmt.Errorf("ladder rung core.pingpong%s_ns: %w", sfx, err)
		}
		m.set("core.pingpong"+sfx+"_ns", ns)

		var secs [3]float64
		for i, pes := range sz.LadderLaunchPEs {
			side := int(math.Round(math.Sqrt(float64(pes))))
			chip := arch.Synthetic(side, side)
			cfg := core.Config{Chip: chip, NPEs: chip.Tiles, HeapPerPE: 64 << 10, Engine: e}
			// The largest launch takes seconds on the event engine: time
			// it once, the smaller ones three times.
			repeats := 3
			if i == len(sz.LadderLaunchPEs)-1 {
				repeats = 1
			}
			vals := make([]float64, 0, repeats)
			for k := 0; k < repeats; k++ {
				t0 := time.Now()
				if _, err := core.Run(cfg, func(*core.PE) error { return nil }); err != nil {
					return fmt.Errorf("ladder rung core.launch%s at %d PEs: %w", sfx, chip.Tiles, err)
				}
				vals = append(vals, time.Since(t0).Seconds())
			}
			secs[i] = median(vals)
		}
		names := [3]string{"pes64_s", "pes256_s", "pes1024_s"}
		for i, name := range names {
			m.set("core.launch"+sfx+"."+name, secs[i])
		}
		scale := float64(sz.LadderLaunchPEs[2]) / float64(sz.LadderLaunchPEs[1])
		m.set("core.launch"+sfx+".exponent", math.Log(secs[2]/secs[1])/math.Log(scale))
	}
	return nil
}

// corePingPong reports host nanoseconds per park/wake hand-off between
// two PEs that alternate P and WaitUntil on each other's flag.
func corePingPong(e core.Engine, rounds int) (float64, error) {
	var ns float64
	_, err := core.Run(core.Config{NPEs: 2, HeapPerPE: 64 << 10, Engine: e}, func(pe *core.PE) error {
		flag, err := core.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		me, other := pe.MyPE(), 1-pe.MyPE()
		t0 := time.Now()
		for i := int64(1); i <= int64(rounds); i++ {
			if me == 0 {
				if err := core.P(pe, flag, i, other); err != nil {
					return err
				}
			}
			if err := core.WaitUntil(pe, flag, core.CmpEQ, i); err != nil {
				return err
			}
			if me == 1 {
				if err := core.P(pe, flag, i, other); err != nil {
					return err
				}
			}
		}
		if me == 0 {
			ns = perCall(t0, 2*rounds) // PE 0 alone writes; Run's return orders the read
		}
		return nil
	})
	return ns, err
}

// opsBatch is the number of calls in one timed batch of an op class:
// one clock read per 64 calls, so that time.Now does not swamp a 100 ns
// operation.
const opsBatch = 64

// opsBatches is how many batches of each class the ops ladder times.
const opsBatches = 8

// opsLadder times every op class in batches of 64 calls inside one 36-PE
// body on the default engine and reports the median nanoseconds per call
// as PE 0 saw it. Every PE runs the same calls against the next PE, so
// each target has one writer and no lock is contended.
func opsLadder(m metrics) error {
	perCallNs := make(map[string][]float64)
	cfg := putConfig(64 << 10)
	_, err := core.Run(cfg, func(pe *core.PE) error {
		n, me := pe.NumPEs(), pe.MyPE()
		next := (me + 1) % n
		as := core.AllPEs(n)
		src, err := core.Malloc[int64](pe, 64<<10/8)
		if err != nil {
			return err
		}
		dst, err := core.Malloc[int64](pe, 64<<10/8)
		if err != nil {
			return err
		}
		word, err := core.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		redIn, err := core.Malloc[int64](pe, stormElems)
		if err != nil {
			return err
		}
		redOut, err := core.Malloc[int64](pe, stormElems)
		if err != nil {
			return err
		}
		pwrk, err := core.Malloc[int64](pe, core.ReduceMinWrkSize)
		if err != nil {
			return err
		}
		ps, err := core.Malloc[int64](pe, core.ReduceSyncSize)
		if err != nil {
			return err
		}
		locks, err := core.Malloc[int64](pe, n)
		if err != nil {
			return err
		}

		// batch times opsBatches batches of opsBatch calls of op; only PE 0
		// reads the clock.
		batch := func(name string, op func(i int) error) error {
			for b := 0; b < opsBatches; b++ {
				var t0 time.Time
				if me == 0 {
					t0 = time.Now()
				}
				for i := 0; i < opsBatch; i++ {
					if err := op(b*opsBatch + i); err != nil {
						return fmt.Errorf("%s: %w", name, err)
					}
				}
				if me == 0 {
					perCallNs[name] = append(perCallNs[name], perCall(t0, opsBatch))
				}
				pe.Quiet()
			}
			return pe.BarrierAll()
		}
		put := func(nelems int) func(int) error {
			return func(int) error { return core.Put(pe, dst, src, nelems, next) }
		}
		steps := []struct {
			name string
			op   func(i int) error
		}{
			{"core.put_ns.8B", put(1)},
			{"core.put_ns.1KiB", put(1 << 10 / 8)},
			{"core.put_ns.64KiB", put(64 << 10 / 8)},
			{"core.get_ns", func(int) error { _, err := core.G(pe, word, next); return err }},
			{"core.atomic_ns", func(int) error { _, err := core.FAdd(pe, word, 1, next); return err }},
			{"core.barrier_all_ns", func(int) error { return pe.BarrierAll() }},
			{"core.reduce_ns", func(int) error { return core.SumToAll(pe, redOut, redIn, stormElems, as, pwrk, ps) }},
			{"core.bcast_ns", func(i int) error { return core.BroadcastPull(pe, dst, src, stormElems, i%n, as, ps) }},
			{"core.lock_ns", func(int) error {
				if err := pe.SetLock(locks.At(me)); err != nil {
					return err
				}
				return pe.ClearLock(locks.At(me))
			}},
		}
		for _, s := range steps {
			if err := batch(s.name, s.op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ops ladder: %w", err)
	}
	for name, vals := range perCallNs {
		m.set(name, median(vals))
	}
	return nil
}

// armedFaults is a fault plan whose only window lies an hour of virtual
// time after any makespan here: it arms every bounded wait and perturbs
// nothing.
func armedFaults() (*fault.Plan, error) {
	return fault.Parse("tileslow:pe=1,factor=2,start=3600s,end=3601s")
}

// observerRatios measures what each observer costs on its own: the wall
// time of the observed bodies with exactly one hook on, divided by their
// wall time with none. It is independent of the workload being traced.
func observerRatios(m metrics, seed int64, sz sizes) error {
	o, err := newObserved(seed, sz)
	if err != nil {
		return err
	}
	armed, err := armedFaults()
	if err != nil {
		return err
	}
	variants := []struct {
		name  string
		hooks core.Config
	}{
		{"", core.Config{}},
		{"stats.observe_ratio", core.Config{Observe: true}},
		{"stats.trace_ratio", core.Config{Trace: true}},
		{"sanitize.ratio", core.Config{Sanitize: true}},
		{"profile.ratio", core.Config{Profile: true}},
		{"fault.armed_ratio", core.Config{Faults: armed}},
	}
	walls := make([][]float64, len(variants))
	for k := 0; k < sz.ObserverRepeats; k++ {
		for i, v := range variants {
			r := &rep{eng: (core.Config{}).Engine}
			o.run(r, v.hooks)
			if len(r.errs) > 0 {
				return fmt.Errorf("observer ratio %q: %w", v.name, r.errs[0])
			}
			walls[i] = append(walls[i], r.wall.Seconds())
		}
	}
	base := median(walls[0])
	for i, v := range variants[1:] {
		m.set(v.name, median(walls[i+1])/base)
	}
	return nil
}
