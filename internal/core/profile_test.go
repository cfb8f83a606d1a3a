package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
	"tshmem/internal/profile"
	"tshmem/internal/vtime"
)

// profileBody extends the determinism body with a lock phase and a
// WaitUntil flag handoff, so every wait category the profiler knows can
// show up in the ledger. The PEs take the lock in turn: the order in which
// contenders win a lock is host-scheduled on the goroutine engine (each
// lost CAS advances the loser's clock), so only uncontended acquisition is
// byte-comparable across runs there.
func profileBody(pe *PE) error { return profileProgram(pe, false) }

// profileBodyContended takes the lock from every PE at once. Deterministic
// only on the event engine, where contenders run in (clock, rank) order.
func profileBodyContended(pe *PE) error { return profileProgram(pe, true) }

func profileProgram(pe *PE, contended bool) error {
	if pe.prog.chip.UDNInterrupts {
		// The full determinism body includes static-static puts, which
		// need the TILE-Gx UDN interrupt redirection.
		if err := determinismBody(pe); err != nil {
			return err
		}
	} else {
		const n = 256
		x, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		y, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		next := (pe.MyPE() + 1) % pe.NumPEs()
		for iter := 0; iter < 3; iter++ {
			if err := Put(pe, y, x, n, next); err != nil {
				return err
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
	}
	lk, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	ctr, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	flag, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	locked := func() error {
		if err := pe.SetLock(lk); err != nil {
			return err
		}
		if _, err := FAdd(pe, ctr, 1, 0); err != nil {
			return err
		}
		return pe.ClearLock(lk)
	}
	if contended {
		if err := locked(); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	} else {
		for turn := 0; turn < pe.NumPEs(); turn++ {
			if turn == pe.MyPE() {
				if err := locked(); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
	}
	// Flag chain: each PE releases its right neighbor via an elemental put
	// observed by WaitUntil.
	if pe.MyPE() == 0 {
		if err := P(pe, flag, 1, (pe.MyPE()+1)%pe.NumPEs()); err != nil {
			return err
		}
	} else {
		if err := WaitUntil(pe, flag, CmpEQ, int64(1)); err != nil {
			return err
		}
		if pe.MyPE() != pe.NumPEs()-1 {
			if err := P(pe, flag, 1, pe.MyPE()+1); err != nil {
				return err
			}
		}
	}
	return pe.BarrierAll()
}

// checkProfile asserts the tentpole invariants on an assembled profile:
// every PE's blame categories sum exactly to its end time, the critical
// path tiles [0, makespan) contiguously, and the path's end equals the
// report's makespan.
func checkProfile(t *testing.T, rep *Report) {
	t.Helper()
	p := rep.Profile()
	if p == nil {
		t.Fatal("Config.Profile was set but Report.Profile() is nil")
	}
	if p.Makespan != rep.MaxTime {
		t.Fatalf("profile makespan %v != report makespan %v", p.Makespan, rep.MaxTime)
	}
	for i := range p.PEs {
		pp := &p.PEs[i]
		var sum vtime.Duration
		for c := profile.Category(0); c < profile.NumCategories; c++ {
			if pp.Blame[c] < 0 {
				t.Fatalf("PE %d: negative blame %v in %s (double attribution)",
					i, pp.Blame[c], c)
			}
			sum += pp.Blame[c]
		}
		if sum != vtime.Duration(pp.End) {
			t.Fatalf("PE %d: ledger sums to %v, want end %v (delta %v)",
				i, sum, pp.End, vtime.Duration(pp.End)-sum)
		}
		if want := p.Makespan - vtime.Duration(pp.End); pp.Slack != want {
			t.Fatalf("PE %d: slack %v, want %v", i, pp.Slack, want)
		}
	}
	if len(p.Path) == 0 {
		t.Fatal("empty critical path")
	}
	if p.Path[0].Start != 0 {
		t.Fatalf("critical path starts at %v, want 0", p.Path[0].Start)
	}
	if got := p.Path[len(p.Path)-1].End; vtime.Duration(got) != p.Makespan {
		t.Fatalf("critical path ends at %v, want makespan %v", got, p.Makespan)
	}
	var sum vtime.Duration
	for i, s := range p.Path {
		if s.End <= s.Start {
			t.Fatalf("path step %d is empty: %+v", i, s)
		}
		if i > 0 && s.Start != p.Path[i-1].End {
			t.Fatalf("path step %d not contiguous with predecessor", i)
		}
		sum += s.Dur()
	}
	if sum != p.Makespan {
		t.Fatalf("path steps sum to %v, want makespan %v", sum, p.Makespan)
	}
}

// TestProfileLedgerInvariant runs the profiled program on both modeled
// chips and under each synchronization-algorithm family, checking the
// exact-partition invariant and path structure every time.
func TestProfileLedgerInvariant(t *testing.T) {
	chips := map[string]*arch.Chip{"gx": arch.Gx8036(), "pro": arch.Pro64()}
	for name, chip := range chips {
		for _, ba := range []BarrierAlgo{BarrierAlgoLinear, BarrierAlgoDissemination, BarrierAlgoCounter} {
			for _, la := range []LockAlgo{LockAlgoCAS, LockAlgoTicket, LockAlgoMCS} {
				rep, err := Run(Config{
					Chip: chip, NPEs: 8, HeapPerPE: 1 << 20,
					Profile: true, BarrierAlgo: ba, LockAlgo: la,
				}, profileBody)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", name, ba, la, err)
				}
				checkProfile(t, rep)
			}
		}
	}
}

// TestProfileWithoutConfigIsNil: an unprofiled run must carry no profile
// (the recorder pointers stay nil, keeping the hot paths allocation-free).
func TestProfileWithoutConfigIsNil(t *testing.T) {
	rep, err := Run(Config{NPEs: 4, HeapPerPE: 1 << 20}, determinismBody)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile() != nil {
		t.Fatal("unprofiled run returned a profile")
	}
}

// profileJSON renders a run's profile snapshot; byte equality of these
// snapshots is the determinism bar for the profiler.
func profileJSON(t testing.TB, rep *Report) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := rep.Profile().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func runProfiled(t *testing.T, chip *arch.Chip) *Report {
	t.Helper()
	rep, err := Run(Config{
		Chip: chip, NPEs: 8, HeapPerPE: 1 << 20, Profile: true,
	}, profileBody)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestProfileDeterministic requires the assembled profile — ledger and
// critical path — to be byte-identical across repeated runs and across
// GOMAXPROCS, on both chips.
func TestProfileDeterministic(t *testing.T) {
	for name, chip := range map[string]*arch.Chip{"gx": arch.Gx8036(), "pro": arch.Pro64()} {
		a := profileJSON(t, runProfiled(t, chip))
		b := profileJSON(t, runProfiled(t, chip))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: profile diverged across repeat runs", name)
		}
		old := runtime.GOMAXPROCS(1)
		c := profileJSON(t, runProfiled(t, chip))
		runtime.GOMAXPROCS(old)
		if !bytes.Equal(a, c) {
			t.Errorf("%s: profile diverged across GOMAXPROCS", name)
		}
	}
}

// TestProfileContendedLockEvent keeps one profiled run with genuine lock
// contention: under the calendar's (clock, rank) schedule the ledger
// must hold its invariants, blame the losers' spinning on lock.wait, and
// repeat byte for byte, for every lock algorithm.
func TestProfileContendedLockEvent(t *testing.T) {
	for _, la := range LockAlgos() {
		run := func() *Report {
			rep, err := Run(Config{
				NPEs: 8, HeapPerPE: 1 << 20, Profile: true,
				LockAlgo: la,
			}, profileBodyContended)
			if err != nil {
				t.Fatalf("%v: %v", la, err)
			}
			return rep
		}
		rep := run()
		checkProfile(t, rep)
		var lockWait vtime.Duration
		for i := range rep.Profile().PEs {
			lockWait += rep.Profile().PEs[i].Blame[profile.CatLockWait]
		}
		if lockWait <= 0 {
			t.Errorf("%v: eight PEs contended for one lock and nobody is blamed lock.wait", la)
		}
		if !bytes.Equal(profileJSON(t, rep), profileJSON(t, run())) {
			t.Errorf("%v: contended profile diverged across repeat event-engine runs", la)
		}
	}
}

// TestProfileVirtualTimeUnchanged: profiling must not move a single
// modeled picosecond — the recorder observes clocks, never advances them.
func TestProfileVirtualTimeUnchanged(t *testing.T) {
	plain, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 20}, profileBody)
	if err != nil {
		t.Fatal(err)
	}
	prof := runProfiled(t, nil)
	if plain.MaxTime != prof.MaxTime || plain.MinTime != prof.MinTime {
		t.Fatalf("profiling moved virtual time: [%v,%v] vs [%v,%v]",
			plain.MinTime, plain.MaxTime, prof.MinTime, prof.MaxTime)
	}
	for i := range plain.PETimes {
		if plain.PETimes[i] != prof.PETimes[i] {
			t.Fatalf("PE %d virtual time moved under profiling: %v vs %v",
				i, plain.PETimes[i], prof.PETimes[i])
		}
	}
}

// TestProfileFaultAttribution runs the demo stall plan under the
// profiler: the starved PE's expired bounded wait must show up as
// fault.stall blame in its ledger, and the profiled faulted run must
// stay deterministic.
func TestProfileFaultAttribution(t *testing.T) {
	run := func() *Report {
		t.Helper()
		plan, err := fault.Parse("stall:pe=2,q=0")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Config{
			NPEs: 4, HeapPerPE: 1 << 16, Profile: true,
			Faults: plan,
		}, func(pe *PE) error {
			return pe.BarrierAll()
		})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("Run error = %v, want ErrTimeout", err)
		}
		return rep
	}
	rep := run()
	checkProfile(t, rep)
	p := rep.Profile()
	if got := p.PEs[2].Blame[profile.CatFault]; got <= 0 {
		t.Fatalf("starved PE 2 has no fault.stall blame (ledger %v)", p.PEs[2].Blame)
	}
	if bytes.Equal(profileJSON(t, rep), profileJSON(t, run())) == false {
		t.Error("faulted profile diverged across repeat runs")
	}
}
