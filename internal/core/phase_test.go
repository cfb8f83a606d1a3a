package core

import (
	"fmt"
	"strings"
	"testing"

	"tshmem/internal/arch"
)

// parkFixture is what a park-count case's collective works on, made before
// it by every run of the case alike.
type parkFixture struct {
	src, dst, wrk, ps Ref[int64]
	ssrc, sdst        Ref[int64] // static objects
}

func newParkFixture(pe *PE) (*parkFixture, error) {
	n := pe.NumPEs()
	f := &parkFixture{}
	for _, m := range []struct {
		r *Ref[int64]
		n int
	}{{&f.src, 8}, {&f.dst, 8 * n}, {&f.wrk, ReduceMinWrkSize}, {&f.ps, ReduceSyncSize}} {
		var err error
		if *m.r, err = Malloc[int64](pe, m.n); err != nil {
			return nil, err
		}
	}
	var err error
	if f.ssrc, err = DeclareStatic[int64](pe, "park-src", 8); err != nil {
		return nil, err
	}
	if f.sdst, err = DeclareStatic[int64](pe, "park-dst", 8); err != nil {
		return nil, err
	}
	return f, nil
}

// collectiveParks is how many times the PEs of cfg park in coll, run under
// lit: the parks of a run that makes the fixture and then calls coll, less
// those of a run that only makes the fixture.
func collectiveParks(t *testing.T, cfg Config, lit literals, coll func(*PE, *parkFixture) error) int {
	t.Helper()
	count := func(call bool) int {
		var prog *Program
		_, err := run(cfg, lit, func(pe *PE) error {
			prog = pe.prog
			f, err := newParkFixture(pe)
			if err != nil || !call {
				return err
			}
			return coll(pe, f)
		})
		if err != nil {
			t.Fatal(err)
		}
		return prog.sched.parks
	}
	return count(true) - count(false)
}

// TestCollectiveParksOncePerMember: a collective whose barriers are all on the
// computed chain parks each member once, however many barriers it takes, the
// driver running the steps between them (phase.go) — observed every way or
// not. The collectives that keep their steps in the body park as many times
// as they did before the driver took steps: a static operand, a set across
// two chips, and the literal chain (those counts were measured then).
func TestCollectiveParksOncePerMember(t *testing.T) {
	const n = 8
	all := AllPEs(n)
	turned := []struct {
		name string
		coll func(*PE, *parkFixture) error
	}{
		{"SumToAll", func(pe *PE, f *parkFixture) error { return SumToAll(pe, f.dst, f.src, 8, all, f.wrk, f.ps) }},
		{"BroadcastPull", func(pe *PE, f *parkFixture) error { return BroadcastPull(pe, f.dst, f.src, 8, 3, all, f.ps) }},
		{"BroadcastPush", func(pe *PE, f *parkFixture) error { return BroadcastPush(pe, f.dst, f.src, 8, 5, all, f.ps) }},
		{"FCollect", func(pe *PE, f *parkFixture) error { return FCollect(pe, f.dst, f.src, 8, all, f.ps) }},
		{"Malloc", func(pe *PE, f *parkFixture) error { _, err := Malloc[int64](pe, 16); return err }},
		{"Free", func(pe *PE, f *parkFixture) error { return Free(pe, f.wrk) }},
	}
	for _, obs := range []Config{{}, {Observe: true, Trace: true, Profile: true, Sanitize: true}} {
		cfg := obs
		cfg.Chip, cfg.NPEs, cfg.HeapPerPE = arch.Gx8036(), n, 1<<16
		for _, c := range turned {
			if got := collectiveParks(t, cfg, literals{}, c.coll); got != n {
				t.Errorf("%s/observed=%v: %d parks on %d PEs, want one per member", c.name, cfg.Observe, got, n)
			}
		}
		inline := []struct {
			name string
			cfg  Config
			lit  literals
			coll func(*PE, *parkFixture) error
			want int
		}{
			{"static BroadcastPull", cfg, literals{}, func(pe *PE, f *parkFixture) error {
				return BroadcastPull(pe, f.sdst, f.ssrc, 8, 3, all, f.ps)
			}, 2 * n},
			{"two-chip SumToAll", twoChips(cfg), literals{}, func(pe *PE, f *parkFixture) error {
				return SumToAll(pe, f.dst, f.src, 8, all, f.wrk, f.ps)
			}, 29},
			{"literal-chain SumToAll", cfg, literals{chain: literalChain}, func(pe *PE, f *parkFixture) error {
				return SumToAll(pe, f.dst, f.src, 8, all, f.wrk, f.ps)
			}, 3 * n},
		}
		for _, c := range inline {
			if got := collectiveParks(t, c.cfg, c.lit, c.coll); got != c.want {
				t.Errorf("%s/observed=%v: %d parks on %d PEs, want %d", c.name, cfg.Observe, got, n, c.want)
			}
		}
	}
	// The benchmark's sync-storm in small: a BarrierAll, a SumToAll and a
	// BroadcastPull a round, and a lock every fourth. It parked 6.17 times
	// per PE-round while every barrier parked every member.
	const pes, rounds = 36, 100
	var prog *Program
	if _, err := Run(Config{NPEs: pes, HeapPerPE: 1 << 16}, func(pe *PE) error {
		prog = pe.prog
		return stormLikeBody(rounds)(pe)
	}); err != nil {
		t.Fatal(err)
	}
	if per := float64(prog.sched.parks) / (pes * rounds); per > 3.3 {
		t.Errorf("the sync-storm body parked %.2f times per PE-round, want at most 3.3", per)
	}
}

// twoChips is cfg with its PEs spread over two chips.
func twoChips(cfg Config) Config {
	cfg.NChips = 2
	return cfg
}

// TestNothingParksOnTheDriver: a park outside the PE's own resume — what a
// step the driver takes would do if it could block — panics naming the PE,
// for both ways of parking; and a step that parks runs, when its collective
// says so (runPhases' inline), in the body, between plain barriers.
func TestNothingParksOnTheDriver(t *testing.T) {
	for name, park := range map[string]func(s *evsched){
		"yield":      func(s *evsched) { s.yield(1, wkHub, 0, 0) },
		"yieldReady": func(s *evsched) { s.yieldReady(1) },
	} {
		_, err := Run(gxCfg(2), func(pe *PE) error {
			if pe.MyPE() == 0 {
				park(pe.prog.sched)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "PE 1 parks outside its own resume") {
			t.Errorf("%s for PE 1 from PE 0's resume: Run returned %v, want the guard's panic", name, err)
		}
	}
	const n = 4
	cfg := gxCfg(n)
	cfg.HeapPerPE = 1 << 16
	parks := collectiveParks(t, cfg, literals{}, func(pe *PE, f *parkFixture) error {
		r := pe.phase(AllPEs(n), pe.MyPE(), 1, waitStep{})
		r.dst = Ref[byte](f.src)
		if err := pe.runPhases(r, true); err != nil {
			return err
		}
		if v, err := G(pe, f.src.At(0), pe.MyPE()); pe.MyPE() < n-1 && (err != nil || v != 1) {
			return fmt.Errorf("PE %d read %d, %v from its word; want 1", pe.MyPE(), v, err)
		}
		return nil
	})
	// Two barriers' parks, and the waits in the step.
	if parks <= 2*n {
		t.Errorf("a collective whose step waits parked %d times on %d PEs, want more than its barriers' %d", parks, n, 2*n)
	}
}

// waitStep is a step that parks: every member but the last waits until the
// last has set its word of r.dst, which it does after computing for a while.
type waitStep struct{}

func (waitStep) run(pe *PE, r *phaseRun) error {
	word := Ref[int64](r.dst).At(0)
	as := r.w.as
	if r.w.idx < as.Size-1 {
		return WaitUntil(pe, word, CmpEQ, 1)
	}
	pe.ComputeIntOps(10_000)
	for i := 0; i < as.Size-1; i++ {
		if err := P(pe, word, 1, as.PE(i)); err != nil {
			return err
		}
	}
	return nil
}
