package core

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
)

// TestEngineParse checks the -engine flag surface: names round-trip,
// empty and "default" select the goroutine engine, and unknown names
// fail listing the valid set.
func TestEngineParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Engine
	}{
		{"", EngineGoroutine},
		{"default", EngineGoroutine},
		{"goroutine", EngineGoroutine},
		{"event", EngineEvent},
	} {
		got, err := ParseEngine(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseEngine("fiber"); err == nil || !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("ParseEngine(fiber) error %v does not list valid engines", err)
	}
	engines := Engines()
	if len(engines) != 2 || engines[0].String() != "goroutine" || engines[1].String() != "event" {
		t.Errorf("Engines() = %v", engines)
	}
	for _, e := range engines {
		back, err := ParseEngine(e.String())
		if err != nil || back != e {
			t.Errorf("ParseEngine(%q) did not round-trip: %v, %v", e.String(), back, err)
		}
	}
}

// engineEquivBody is the cross-engine equivalence workload: ring puts and
// gets, full and subset barriers, a broadcast, static-put interrupt
// redirection, a WaitUntil flag chain fed by remote atomics, and a
// round-robin lock handoff. Lock acquisition is serialized by barriers on
// purpose: contended CAS retry counts are host-racy by design (each retry
// advances the spinner's clock), so only uncontended acquisition is
// byte-comparable across engines.
func engineEquivBody(pe *PE) error {
	const n = 64
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
	flag, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	lk, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	ctr, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	stSrc, err := DeclareStatic[int64](pe, "eng-src", 32)
	if err != nil {
		return err
	}
	stDst, err := DeclareStatic[int64](pe, "eng-dst", 32)
	if err != nil {
		return err
	}
	if err := pe.AlignClocks(); err != nil {
		return err
	}
	lv, err := Local(pe, x)
	if err != nil {
		return err
	}
	for i := range lv {
		lv[i] = int64(pe.MyPE()*n + i)
	}
	np := pe.NumPEs()
	as := AllPEs(np)
	half := ActiveSet{Start: 0, LogStride: 1, Size: np / 2}
	for iter := 0; iter < 2; iter++ {
		next := (pe.MyPE() + 1) % np
		if err := Put(pe, y, x, n, next); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if err := Get(pe, x, y, n, (pe.MyPE()+np-1)%np); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.prog.chip.UDNInterrupts {
			if err := Put(pe, stDst, stSrc, 32, next); err != nil {
				return err
			}
		}
		if err := BroadcastPull(pe, y, x, n, 0, as, ps); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if np >= 4 && pe.prog.cfg.BarrierAlgo != BarrierAlgoSpin && half.Contains(pe.MyPE()) {
			if err := pe.Barrier(half); err != nil {
				return err
			}
		}
	}
	for iter := int64(1); iter <= 2; iter++ {
		next := (pe.MyPE() + 1) % np
		if err := Add(pe, flag, 1, next); err != nil {
			return err
		}
		if err := WaitUntil(pe, flag, CmpGE, iter); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}
	for turn := 0; turn < np; turn++ {
		if turn == pe.MyPE() {
			if err := pe.SetLock(lk); err != nil {
				return err
			}
			if err := Add(pe, ctr, 1, 0); err != nil {
				return err
			}
			if err := pe.ClearLock(lk); err != nil {
				return err
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}
	return pe.BarrierAll()
}

// runBothEngines runs the same config and body under both engines and
// requires the same success/failure outcome.
func runBothEngines(t *testing.T, label string, cfg Config, body func(*PE) error) (g, e *Report) {
	t.Helper()
	gc, ec := cfg, cfg
	gc.Engine = EngineGoroutine
	ec.Engine = EngineEvent
	g, gerr := Run(gc, body)
	e, eerr := Run(ec, body)
	if gerr != nil || eerr != nil {
		t.Fatalf("%s: run failed:\n  goroutine: %v\n  event:     %v", label, gerr, eerr)
	}
	return g, e
}

// compareEngineRuns asserts byte-identity of everything the run produced:
// report fields, diagnostics, fault counts, traces (structured and
// serialized), and profiles — plus the engine bookkeeping itself.
func compareEngineRuns(t *testing.T, label string, g, e *Report) {
	t.Helper()
	compareReports(t, label, g, e)
	if !reflect.DeepEqual(g.Diagnostics, e.Diagnostics) {
		t.Errorf("%s: diagnostics diverged:\n  goroutine: %v\n  event:     %v", label, g.Diagnostics, e.Diagnostics)
	}
	if !reflect.DeepEqual(g.FaultCounts, e.FaultCounts) {
		t.Errorf("%s: fault counts diverged: %v vs %v", label, g.FaultCounts, e.FaultCounts)
	}
	if !reflect.DeepEqual(g.Trace(), e.Trace()) {
		t.Errorf("%s: traces diverged (%d vs %d events)", label, len(g.Trace()), len(e.Trace()))
	}
	var gt, et bytes.Buffer
	if err := g.TraceTo(&gt); err != nil {
		t.Fatalf("%s: goroutine TraceTo: %v", label, err)
	}
	if err := e.TraceTo(&et); err != nil {
		t.Fatalf("%s: event TraceTo: %v", label, err)
	}
	if !bytes.Equal(gt.Bytes(), et.Bytes()) {
		t.Errorf("%s: serialized traces are not byte-identical (%d vs %d bytes)", label, gt.Len(), et.Len())
	}
	gp, ep := g.Profile(), e.Profile()
	if (gp == nil) != (ep == nil) {
		t.Fatalf("%s: one engine produced a profile, the other did not", label)
	}
	if gp != nil {
		if gp.BlameTable() != ep.BlameTable() {
			t.Errorf("%s: blame tables diverged:\n--- goroutine\n%s--- event\n%s", label, gp.BlameTable(), ep.BlameTable())
		}
		if gp.PathTable() != ep.PathTable() {
			t.Errorf("%s: critical paths diverged:\n--- goroutine\n%s--- event\n%s", label, gp.PathTable(), ep.PathTable())
		}
		var gj, ej bytes.Buffer
		if err := gp.WriteJSON(&gj); err != nil {
			t.Fatalf("%s: goroutine profile JSON: %v", label, err)
		}
		if err := ep.WriteJSON(&ej); err != nil {
			t.Fatalf("%s: event profile JSON: %v", label, err)
		}
		if !bytes.Equal(gj.Bytes(), ej.Bytes()) {
			t.Errorf("%s: profile JSON is not byte-identical", label)
		}
	}
	if g.EngineUsed != "goroutine" || e.EngineUsed != "event" {
		t.Errorf("%s: EngineUsed = %q / %q", label, g.EngineUsed, e.EngineUsed)
	}
	if g.MaxRunnablePEs != 0 {
		t.Errorf("%s: goroutine engine reported MaxRunnablePEs %d, want 0", label, g.MaxRunnablePEs)
	}
	if e.MaxRunnablePEs != 1 {
		t.Errorf("%s: event engine let %d PEs run at once, want exactly 1", label, e.MaxRunnablePEs)
	}
}

// TestEngineEquivalenceMatrix is the tentpole's hard bar: byte-identical
// reports, traces, diagnostics, and profiles between engines over the
// chip models x every barrier algorithm (plus the legacy default) x every
// lock algorithm, with observation, tracing, sanitizing, and profiling
// all on. Epiphany-III exercises the scratchpad + emulated-RMW paths and
// synthetic-8x3 a non-square grid whose XY routes bend at asymmetric
// coordinates.
func TestEngineEquivalenceMatrix(t *testing.T) {
	chips := []*arch.Chip{arch.Gx8036(), arch.Pro64(), arch.EpiphanyIII(), arch.Synthetic(8, 3)}
	algos := append([]BarrierAlgo{BarrierAlgoDefault}, BarrierAlgos()...)
	for _, chip := range chips {
		for _, ba := range algos {
			cfg := Config{
				Chip: chip, NPEs: 8, HeapPerPE: 1 << 20,
				BarrierAlgo: ba,
				Observe:     true, Trace: true, Sanitize: true, Profile: true,
			}
			label := chip.Name + "/" + ba.String()
			g, e := runBothEngines(t, label, cfg, engineEquivBody)
			compareEngineRuns(t, label, g, e)
			if len(g.Diagnostics) != 0 {
				t.Errorf("%s: sanitizer flagged the equivalence body: %v", label, g.Diagnostics)
			}
		}
		for _, la := range LockAlgos() {
			cfg := Config{
				Chip: chip, NPEs: 8, HeapPerPE: 1 << 20,
				LockAlgo: la,
				Observe:  true, Trace: true, Sanitize: true, Profile: true,
			}
			label := chip.Name + "/lock-" + la.String()
			g, e := runBothEngines(t, label, cfg, engineEquivBody)
			compareEngineRuns(t, label, g, e)
		}
	}
}

// multichipBody moves 64 words one rank up by put and back down by get,
// three times, on two chips, so the mPIPE fabric's event hooks carry real
// traffic. With wrap the ranks form a ring, and the 3->4 and 7->0
// transfers cross the one chip-pair wire in the same phase; without it
// they form a chain with a single crossing per phase.
func multichipBody(wrap bool) func(*PE) error {
	return func(pe *PE) error {
		const n = 64
		x, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		y, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		me, np := pe.MyPE(), pe.NumPEs()
		for iter := 0; iter < 3; iter++ {
			if wrap || me+1 < np {
				if err := Put(pe, y, x, n, (me+1)%np); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if wrap || me > 0 {
				if err := Get(pe, x, y, n, (me+np-1)%np); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
}

// TestEngineEquivalenceMultichip routes a ring and a chain across a chip
// boundary.
//
// The ring has two bulk transfers contending for the chip-pair wire in
// every phase. That wire is a vtime.Resource, which serves requests in
// host arrival order, so on the goroutine engine which of the two pays the
// queueing delay — and with it every later clock — is host-scheduled
// (ROADMAP files this under the schedule explorer). The event engine
// arbitrates by (clock, rank): two event runs of the ring must be
// byte-identical in full, and the goroutine run must agree with them on
// everything that does not depend on the arbitration.
//
// The chain has one crossing per phase and so no arbitration to lose: the
// engines must agree on every clock. Even there the comparison stops at
// virtual-time outcomes: the goroutine engine delivers same-inbox fabric
// messages in host arrival order, so its per-op latency histograms (and
// hence trace rows) are not self-deterministic under load — invisible to
// clocks because merges take the max.
func TestEngineEquivalenceMultichip(t *testing.T) {
	cfg := Config{NPEs: 8, NChips: 2, HeapPerPE: 1 << 20, Observe: true, Trace: true}
	traffic := func(label string, g, e *Report) {
		t.Helper()
		if g.PutBytes != e.PutBytes || g.GetBytes != e.GetBytes || g.Barriers != e.Barriers {
			t.Errorf("%s: aggregate traffic diverged: put %d/%d get %d/%d barriers %d/%d",
				label, g.PutBytes, e.PutBytes, g.GetBytes, e.GetBytes, g.Barriers, e.Barriers)
		}
		if e.MaxRunnablePEs != 1 {
			t.Errorf("%s: event engine let %d PEs run at once, want exactly 1", label, e.MaxRunnablePEs)
		}
	}

	ring := multichipBody(true)
	g, e := runBothEngines(t, "multichip/ring", cfg, ring)
	traffic("multichip/ring", g, e)
	ec := cfg
	ec.Engine = EngineEvent
	e2, err := Run(ec, ring)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, "multichip/ring/event-self", e, e2)
	if !reflect.DeepEqual(e.Trace(), e2.Trace()) {
		t.Errorf("multichip/ring: event engine traces diverged between identical runs")
	}

	g, ce := runBothEngines(t, "multichip/chain", cfg, multichipBody(false))
	traffic("multichip/chain", g, ce)
	if !reflect.DeepEqual(g.PETimes, ce.PETimes) {
		t.Errorf("multichip/chain: PETimes diverged:\n  goroutine: %v\n  event:     %v", g.PETimes, ce.PETimes)
	}
	if g.MaxTime != ce.MaxTime || g.MinTime != ce.MinTime {
		t.Errorf("multichip/chain: makespan diverged: [%v,%v] vs [%v,%v]", g.MinTime, g.MaxTime, ce.MinTime, ce.MaxTime)
	}
	// The ring's second crossing queues behind the first, so the ring must
	// finish later than the chain: the contended path was really taken.
	if e.MaxTime <= ce.MaxTime {
		t.Errorf("multichip: contended ring finished at %v, no later than the chain's %v", e.MaxTime, ce.MaxTime)
	}
}

// TestEngineEquivalenceFaulted replays the stall-plan demo under both
// engines: same ErrTimeout, byte-identical timeout diagnostics, fault
// counts, virtual times, and traces. The event engine reaches the same
// result through quiescence mass-expiry instead of per-wait grace timers.
func TestEngineEquivalenceFaulted(t *testing.T) {
	plan, err := fault.Parse("stall:pe=2,q=0")
	if err != nil {
		t.Fatal(err)
	}
	run := func(eng Engine) *Report {
		t.Helper()
		rep, rerr := Run(Config{
			NPEs: 4, HeapPerPE: 1 << 16, Observe: true, Trace: true, Engine: eng,
			Faults: plan, WaitGrace: testGrace,
		}, func(pe *PE) error {
			return pe.BarrierAll()
		})
		if !errors.Is(rerr, ErrTimeout) {
			t.Fatalf("engine %s: Run error = %v, want ErrTimeout", eng, rerr)
		}
		return rep
	}
	g, e := run(EngineGoroutine), run(EngineEvent)
	compareEngineRuns(t, "faulted", g, e)
	if len(timeoutDiags(e)) == 0 {
		t.Error("faulted event run produced no timeout diagnostics")
	}
}

// TestEngineEquivalenceSeededFaults runs a seeded (transient) fault plan
// to completion under both engines: perturbed but successful runs must
// still be byte-identical.
func TestEngineEquivalenceSeededFaults(t *testing.T) {
	cfg := Config{
		NPEs: 8, HeapPerPE: 1 << 18, Observe: true,
		Faults: &fault.Plan{Seed: 42},
	}
	g, e := runBothEngines(t, "seeded", cfg, determinismBody)
	compareEngineRuns(t, "seeded", g, e)
	if g.MaxTime == 0 {
		t.Error("seeded run did no modeled work")
	}
}

// TestEngineEventLockContention exercises the event engine's parked lock
// waits (CAS spin, ticket hub wait, MCS queue handoff) under genuine
// contention — correctness, not byte-comparison, since contended retry
// counts are engine-specific.
func TestEngineEventLockContention(t *testing.T) {
	const n, iters = 6, 5
	for _, algo := range LockAlgos() {
		var inside, count int64
		rep, err := Run(Config{NPEs: n, HeapPerPE: 1 << 16, LockAlgo: algo, Engine: EngineEvent},
			func(pe *PE) error {
				lk, err := Malloc[int64](pe, 1)
				if err != nil {
					return err
				}
				for i := 0; i < iters; i++ {
					if err := pe.SetLock(lk); err != nil {
						return err
					}
					if !atomic.CompareAndSwapInt64(&inside, 0, 1) {
						t.Errorf("%s: PE %d entered an occupied critical section", algo, pe.MyPE())
					}
					count++
					if !atomic.CompareAndSwapInt64(&inside, 1, 0) {
						t.Errorf("%s: critical section emptied twice", algo)
					}
					if err := pe.ClearLock(lk); err != nil {
						return err
					}
				}
				return pe.BarrierAll()
			})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if count != n*iters {
			t.Errorf("%s: %d increments survived, want %d", algo, count, n*iters)
		}
		if rep.MaxRunnablePEs != 1 {
			t.Errorf("%s: MaxRunnablePEs = %d, want 1", algo, rep.MaxRunnablePEs)
		}
	}
}

// TestEngineEventDeadlockAborts documents the one intended behavioral
// divergence: a program that deadlocks without fault injection hangs
// forever under the goroutine engine, but the calendar sees global
// quiescence and aborts the run with a diagnosis instead.
func TestEngineEventDeadlockAborts(t *testing.T) {
	_, err := Run(Config{NPEs: 2, HeapPerPE: 1 << 16, Engine: EngineEvent}, func(pe *PE) error {
		flag, ferr := Malloc[int64](pe, 1)
		if ferr != nil {
			return ferr
		}
		// Both PEs wait on flags nobody ever writes: global quiescence.
		return WaitUntil(pe, flag, CmpNE, 0)
	})
	if err == nil {
		t.Fatal("deadlocked event run returned nil error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("deadlock abort error %q does not name the deadlock", err)
	}
}

// TestEngineEventDeterminism replays the standard determinism workload
// under the event engine, repeated and serialized onto one OS thread.
func TestEngineEventDeterminism(t *testing.T) {
	run := func() *Report {
		rep, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 20, Observe: true, Engine: EngineEvent},
			determinismBody)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	compareReports(t, "event/repeat", a, b)
}
