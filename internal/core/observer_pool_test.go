package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/stats"
)

// allocDuring reports the bytes f allocates (TotalAlloc delta).
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestObservedLaunchBudget runs the big-mesh barrier probe with
// Config.Observe on. A PE's counter block is 1 376 B. The probe samples five
// of its thirty histogram classes; about four of them reach a second bucket
// and open a 224 B window, so a PE's counters cost ~2.3 KB and the observed
// run ~15 KiB per PE, cold or warm. With a 2 KB bucket array per sampled
// class the run cost ~24 KiB per PE, and the block with every class's
// buckets inline was 60 656 B per PE by itself. The bound is per PE and
// does not depend on n: 1024 PEs, not TestBigMeshBarrierProbe's 4096,
// because an observed launch accounts every packet of the n(n-1) start_pes
// exchange (4 s at 4096 PEs, a minute under the race detector), which is
// not what is measured here.
func TestObservedLaunchBudget(t *testing.T) {
	const n, perPE = 1024, 20 << 10
	cfg := Config{
		Chip: arch.Synthetic(32, 32), NPEs: n,
		HeapPerPE: 4096, ScratchBytes: 1 << 16, Observe: true,
	}
	var rep *Report
	delta := allocDuring(func() { rep = runT(t, cfg, func(pe *PE) error { return pe.BarrierAll() }) })
	t.Logf("%d observed PEs: %.1f MiB allocated (%.1f KiB/PE)", n, float64(delta)/(1<<20), float64(delta)/n/(1<<10))
	if delta > n*perPE {
		t.Errorf("%d bytes allocated, the observed-launch gate is %d (%d per PE)", delta, n*perPE, perPE)
	}
	if agg := rep.Stats(); agg.Ops[stats.OpBarrier] != 2*n {
		t.Errorf("Ops[barrier] = %d, want %d: the budget was met by not observing", agg.Ops[stats.OpBarrier], 2*n)
	}
}

// mixedBody does a little of everything the observers record: puts, gets,
// atomics, a lock, barriers. rounds scales how much.
func mixedBody(rounds int) func(*PE) error {
	return func(pe *PE) error {
		x, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		lock, err := Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		next := (pe.MyPE() + 1) % pe.NumPEs()
		for r := 0; r < rounds; r++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if err := Put(pe, x, x, 64, next); err != nil {
				return err
			}
			pe.Quiet()
			if _, err := FAdd(pe, x.At(0), int64(1), next); err != nil {
				return err
			}
			if err := pe.SetLock(lock); err != nil {
				return err
			}
			if _, err := G(pe, x.At(1), next); err != nil {
				return err
			}
			if err := pe.ClearLock(lock); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
}

func fullyObserved(npes int) Config {
	cfg := gxCfg(npes)
	cfg.Trace, cfg.Profile = true, true
	return cfg
}

// TestObserverBuffersRecycled: per-PE event and segment buffers stay in the
// launch shell at the size the last run of the shape grew them to, so a
// repeat of a traced and profiled run allocates its report and little else.
func TestObserverBuffersRecycled(t *testing.T) {
	cfg, body := fullyObserved(16), mixedBody(200)
	drainArenaPool()
	runT(t, gxCfg(16), body) // the shell and the PE workers are pooled too: warm those first
	var runs [3]uint64
	for i := range runs {
		runs[i] = allocDuring(func() { runT(t, cfg, body) })
	}
	t.Logf("allocated per run: %d, %d, %d bytes", runs[0], runs[1], runs[2])
	if runs[2] >= runs[0]/2 {
		t.Errorf("the third identical run allocated %d bytes, the first %d: want less than half", runs[2], runs[0])
	}
	s := pooledShell(t, cfg)
	for i := 0; i < cfg.NPEs; i++ {
		if s == nil || i >= len(s.events) || i >= len(s.segs) || cap(s.events[i]) == 0 || cap(s.segs[i]) == 0 {
			t.Fatalf("rank %d's trace or profile buffer did not come back to the pooled shell", i)
		}
	}
}

// TestObserverBuffersFollowLaunches: a traced and profiled launch whose
// shell holds no observer buffers takes those of the most recently
// checked-in shell that does, so two shapes launched in turn record into
// one set. The other shape's first traced run allocates under half what the
// first shape's did, and the donor's pooled size stops counting the
// buffers. Then two goroutines launch the shapes in turn, handing buffers
// from shell to shell under the pool's lock: each report must stay what its
// shape reports alone, and the detector must see no buffer two runs write.
func TestObserverBuffersFollowLaunches(t *testing.T) {
	body := mixedBody(200)
	first, second := fullyObserved(16), fullyObserved(16)
	second.HeapPerPE *= 2
	drainArenaPool()
	for _, cfg := range []Config{gxCfg(16), {Chip: second.Chip, NPEs: 16, HeapPerPE: second.HeapPerPE, ScratchBytes: second.ScratchBytes}} {
		runT(t, cfg, body) // pool both shapes' shells and the PE workers first
	}
	took := allocDuring(func() { runT(t, first, body) })
	donor := pooledShell(t, first)
	if donor == nil || donor.events == nil || donor.segs == nil {
		t.Fatal("the traced and profiled run left no observer buffers in its pooled shell")
	}
	held := donor.size
	got := allocDuring(func() { runT(t, second, body) })
	t.Logf("first traced run of each shape allocated %d and %d bytes", took, got)
	if got >= took/2 {
		t.Errorf("the second shape's first traced run allocated %d bytes, the first shape's %d: want less than half", got, took)
	}
	if donor.events != nil || donor.segs != nil {
		t.Error("the donor shell still holds the observer buffers the other shape took")
	}
	if donor.size >= held || donor.size != donor.bytes() {
		t.Errorf("the donor shell's pooled size is %d (was %d, holds %d)", donor.size, held, donor.bytes())
	}

	cfgs := [2]Config{first, second}
	var want [2]string
	for k, cfg := range cfgs {
		want[k] = reportDigest(t, runT(t, cfg, body))
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (g + i) % 2
				rep, err := Run(cfgs[k], body)
				if err != nil {
					t.Error(err)
					return
				}
				if reportDigest(t, rep) != want[k] {
					t.Errorf("goroutine %d, run %d: shape %d's report differs from its report alone", g, i, k)
				}
			}
		}()
	}
	wg.Wait()
}

// reportDigest hashes everything a Report exports that teardown built from
// per-PE observer state.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%v", rep.Trace())
	if err := rep.Profile().WriteJSON(h); err != nil {
		t.Error(err)
	}
	c, err := json.Marshal(rep.PECounters)
	if err != nil {
		t.Error(err)
	}
	h.Write(c)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReportSurvivesNextRun is the aliasing test for the observer buffers a
// shell keeps: what a returned Report holds must not be backed by anything a
// later run of the same shape records into. Runs 2 and 3 record more, and differently, into
// the buffers run 1 gave back; run 1's trace, profile and counters do not
// move. Then the same from two goroutines at once, each of which must get
// buffers of its own.
func TestReportSurvivesNextRun(t *testing.T) {
	cfg := fullyObserved(8)
	other := func(pe *PE) error {
		if err := mixedBody(5)(pe); err != nil {
			return err
		}
		return pe.BarrierAll()
	}
	// check reports through t.Error only: it also runs off the test's
	// goroutine.
	check := func() {
		first, err := Run(cfg, mixedBody(3))
		if err != nil {
			t.Error(err)
			return
		}
		want := reportDigest(t, first)
		for i := 0; i < 2; i++ {
			next, err := Run(cfg, other)
			if err != nil {
				t.Error(err)
				return
			}
			if got := reportDigest(t, next); got == want {
				t.Error("the other body produced the same report: the test overwrites nothing")
			}
			if got := reportDigest(t, first); got != want {
				t.Errorf("run 1's report changed after run %d", i+2)
				return
			}
		}
		// A repeat of run 1 on recycled buffers is run 1 again.
		again, err := Run(cfg, mixedBody(3))
		if err != nil {
			t.Error(err)
		} else if got := reportDigest(t, again); got != want {
			t.Error("the same body on recycled buffers produced a different report")
		}
	}
	check()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				check()
			}
		}()
	}
	wg.Wait()
}

// TestCountersCopyIsDeep: PE.Counters() and Report.Stats() hand out copies
// that own their bucket windows; recording into the source afterwards does
// not reach them.
func TestCountersCopyIsDeep(t *testing.T) {
	cfg := gxCfg(4)
	cfg.Observe = true
	rep := runT(t, cfg, func(pe *PE) error {
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		c := pe.Counters()
		was, _ := json.Marshal(c)
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if now, _ := json.Marshal(c); !bytes.Equal(now, was) {
			t.Errorf("PE %d: its Counters() copy moved when it entered another barrier", pe.MyPE())
		}
		if live := pe.Counters(); c.Equal(&live) {
			t.Errorf("PE %d: the second barrier recorded nothing", pe.MyPE())
		}
		return nil
	})
	agg := rep.Stats()
	was, _ := json.Marshal(agg)
	for i := range rep.PECounters {
		rep.PECounters[i].Hists[stats.HistForOp(stats.OpBarrier)].Observe(12345)
	}
	if now, _ := json.Marshal(agg); !bytes.Equal(now, was) {
		t.Error("Report.Stats() copy moved when PECounters were written")
	}
	if again := rep.Stats(); agg.Equal(&again) {
		t.Error("writing PECounters did not change a fresh Stats()")
	}
}
