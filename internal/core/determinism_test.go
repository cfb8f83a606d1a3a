package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/mesh"
	"tshmem/internal/vtime"
)

// determinismBody is a communication-heavy observed program exercising the
// paths the host fast-path work touches: memoized RMA costs, the barrier
// generation fast path, collective signals, and the scratch arena (via
// static-static puts). Every run must produce bit-identical virtual
// time and counters regardless of host scheduling.
//
// Phases are separated by barriers so no symmetric object is concurrently
// read and written on the host — SHMEM semantics require that of the
// program, not the substrate. The static put uses distinct source/target
// objects because the target side is written by the remote tile's
// interrupt servicer while the owner may be mid-transfer itself.
func determinismBody(pe *PE) error {
	const n = 256
	x, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	y, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	ps, err := Malloc[int64](pe, BcastSyncSize)
	if err != nil {
		return err
	}
	stSrc, err := DeclareStatic[int64](pe, "det-src", 64)
	if err != nil {
		return err
	}
	stDst, err := DeclareStatic[int64](pe, "det-dst", 64)
	if err != nil {
		return err
	}
	lv, err := Local(pe, x)
	if err != nil {
		return err
	}
	for i := range lv {
		lv[i] = int64(pe.MyPE()*n + i)
	}
	as := AllPEs(pe.NumPEs())
	for iter := 0; iter < 3; iter++ {
		next := (pe.MyPE() + 1) % pe.NumPEs()
		if err := Put(pe, y, x, n, next); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if err := Get(pe, x, y, n, (pe.MyPE()+pe.NumPEs()-1)%pe.NumPEs()); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		// Static-static transfer: exercises the UDN interrupt redirection
		// and a scratch-arena bounce on every PE concurrently.
		if err := Put(pe, stDst, stSrc, 64, next); err != nil {
			return err
		}
		if err := BroadcastPull(pe, y, x, n, 0, as, ps); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.NumPEs() >= 4 {
			half := ActiveSet{Start: 0, LogStride: 1, Size: pe.NumPEs() / 2}
			if half.Contains(pe.MyPE()) {
				if err := pe.Barrier(half); err != nil {
					return err
				}
			}
		}
	}
	return pe.BarrierAll()
}

// runDeterminism runs the observed program and returns its report.
func runDeterminism(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 20, Observe: true}, determinismBody)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// compareReports asserts that two runs of the same program agree on every
// deterministic output: per-PE virtual times, substrate counters, and the
// per-chip mesh link traffic. The per-tile QueueHWM is deliberately NOT
// compared: it samples the host-side receive-channel occupancy at send
// time, a scheduling diagnostic that is host-dependent by design.
func compareReports(t testing.TB, label string, a, b *Report) {
	t.Helper()
	if !reflect.DeepEqual(a.PETimes, b.PETimes) {
		t.Errorf("%s: PETimes diverged:\n  a: %v\n  b: %v", label, a.PETimes, b.PETimes)
	}
	if a.MaxTime != b.MaxTime || a.MinTime != b.MinTime {
		t.Errorf("%s: makespan diverged: [%v,%v] vs [%v,%v]",
			label, a.MinTime, a.MaxTime, b.MinTime, b.MaxTime)
	}
	if !reflect.DeepEqual(a.PECounters, b.PECounters) {
		for i := range a.PECounters {
			if !reflect.DeepEqual(a.PECounters[i], b.PECounters[i]) {
				t.Errorf("%s: PE %d counters diverged", label, i)
			}
		}
	}
	if len(a.MeshUtil) != len(b.MeshUtil) {
		t.Fatalf("%s: %d vs %d mesh snapshots", label, len(a.MeshUtil), len(b.MeshUtil))
	}
	for i := range a.MeshUtil {
		ua, ub := a.MeshUtil[i], b.MeshUtil[i]
		if ua.Chip != ub.Chip || ua.Width != ub.Width || ua.Height != ub.Height {
			t.Errorf("%s: chip %d geometry diverged", label, i)
		}
		for y := 0; y < ua.Height; y++ {
			for x := 0; x < ua.Width; x++ {
				for d := mesh.LinkDir(0); d < mesh.NumLinkDirs; d++ {
					if ua.Link(x, y, d) != ub.Link(x, y, d) {
						t.Errorf("%s: chip %d link (%d,%d) %v word counts diverged", label, i, x, y, d)
					}
					if ua.Packets(x, y, d) != ub.Packets(x, y, d) {
						t.Errorf("%s: chip %d link (%d,%d) %v packet counts diverged", label, i, x, y, d)
					}
				}
			}
		}
	}
}

// TestDeterministicRepeat runs the same observed program twice on the same
// host configuration: all virtual-time outputs must be bit-identical.
func TestDeterministicRepeat(t *testing.T) {
	a := runDeterminism(t)
	b := runDeterminism(t)
	compareReports(t, "repeat", a, b)
	if a.MaxTime == 0 {
		t.Error("program did no modeled work")
	}
	var total vtime.Duration
	for _, d := range a.PETimes {
		total += d
	}
	if total == 0 {
		t.Error("all PE clocks stayed at zero")
	}
}

// TestDeterministicAcrossGOMAXPROCS pins the host to one OS thread and
// re-runs the program: serializing all PE goroutines must not move a
// single modeled picosecond, counter, or link count relative to the
// fully parallel run.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	parallel := runDeterminism(t)
	old := runtime.GOMAXPROCS(1)
	serial := runDeterminism(t)
	runtime.GOMAXPROCS(old)
	compareReports(t, "gomaxprocs", parallel, serial)
}

// TestFlagChainDeterministic passes a token down a P -> WaitUntil chain,
// several laps per run, and requires every repeat to land on the same virtual
// times. A waiter that polls between a writer's store and the store's
// visibility stamp would resume without merging the writer's clock — a
// host-dependent result on the goroutine engine, most readily under -race,
// which widens that window.
func TestFlagChainDeterministic(t *testing.T) {
	const laps = 10
	body := func(pe *PE) error {
		flag, err := Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		me, np := pe.MyPE(), pe.NumPEs()
		for lap := int64(1); lap <= laps; lap++ {
			if me > 0 {
				if err := WaitUntil(pe, flag, CmpGE, lap); err != nil {
					return err
				}
			}
			if me+1 < np {
				if err := P(pe, flag, lap, me+1); err != nil {
					return err
				}
			}
			// One store per flag per lap: without the barrier PE 0 would run
			// laps ahead and which of its stores a waiter observes is racy.
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	}
	var want []vtime.Duration
	for run := 0; run < 30; run++ {
		rep, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 16}, body)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep.PETimes
		} else if !reflect.DeepEqual(rep.PETimes, want) {
			t.Fatalf("run %d: PETimes diverged:\n  first: %v\n  now:   %v", run, want, rep.PETimes)
		}
	}
}

// TestMemoIsPerRun holds the copy-cost memo to its scope. The PEs of a run
// share one memo, which is sound because they execute one at a time and
// price their copies on one chip; a memo shared any wider — by the process,
// or by a cache.Model two runs use — would be neither. Its key has no chip
// in it, so a TILEPro run that found a TILE-Gx run's entries would charge
// TILE-Gx costs: every put of the body below is checked against the chip's
// own model, computed without a memo. And runs execute concurrently (a
// sweep): the same body runs on both chips from four goroutines at once and
// must report the clocks it reports alone, with the race detector watching
// the table (ci.sh race smoke).
func TestMemoIsPerRun(t *testing.T) {
	const npes = 8
	elems := []int{1, 8, 128, 2048}
	run := func(chip *arch.Chip) (*Report, error) {
		model := cache.NewModel(chip)
		return Run(Config{Chip: chip, NPEs: npes, HeapPerPE: 1 << 16}, func(pe *PE) error {
			x, err := Malloc[int64](pe, elems[len(elems)-1])
			if err != nil {
				return err
			}
			y, err := Malloc[int64](pe, elems[len(elems)-1])
			if err != nil {
				return err
			}
			for _, n := range elems {
				t0 := pe.Now()
				if err := Put(pe, y, x, n, (pe.MyPE()+1)%npes); err != nil {
					return err
				}
				want := model.CopyCostHomed(int64(n)*8, cache.SharedAny, cache.HashForHome, 1)
				if got := pe.Now().Sub(t0); got != want {
					return fmt.Errorf("PE %d: a %d-element put on %s cost %v, its model says %v",
						pe.MyPE(), n, chip.Name, got, want)
				}
			}
			return pe.BarrierAll()
		})
	}
	chips := []*arch.Chip{arch.Gx8036(), arch.Pro64()}
	alone := make([][]vtime.Duration, len(chips))
	// Either order: whichever chip ran first would be the one to leave
	// entries behind.
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		for _, c := range order {
			rep, err := run(chips[c])
			if err != nil {
				t.Fatal(err)
			}
			if alone[c] == nil {
				alone[c] = rep.PETimes
			} else if !reflect.DeepEqual(rep.PETimes, alone[c]) {
				t.Errorf("%s: PETimes depend on what ran before:\n  first: %v\n  now:   %v", chips[c].Name, alone[c], rep.PETimes)
			}
		}
	}
	if reflect.DeepEqual(alone[0], alone[1]) {
		t.Fatal("both chips report the same clocks: the body does not tell them apart")
	}
	for round := 0; round < 3; round++ {
		const runs = 4
		var reps [runs]*Report
		var errs [runs]error
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = run(chips[i%len(chips)])
			}()
		}
		wg.Wait()
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if c := i % len(chips); !reflect.DeepEqual(rep.PETimes, alone[c]) {
				t.Errorf("round %d: %s beside three other runs:\n  alone: %v\n  now:   %v", round, chips[c].Name, alone[c], rep.PETimes)
			}
		}
	}
}
