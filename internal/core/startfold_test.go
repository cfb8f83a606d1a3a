package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"tshmem/internal/arch"
)

// The start barrier fold's tests. An unobserved, unfaulted single-chip
// launch walks the wait pass of start_pes' BarrierAll on the launcher and
// lets each PE leave the barrier on its first resume (foldStart,
// leaveStart); the literal chain seam turns the fold off, so a run with
// literals{chain: literalChain} is the unfolded run each folded one is held
// to.

// foldShapes are the meshes the fold is held to the unfolded chain on, each
// at 1 and 2 PEs and on a partial area.
func foldShapes() []Config {
	var cfgs []Config
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64(), arch.EpiphanyIII(), arch.Synthetic(8, 3), arch.Synthetic(16, 16)} {
		for _, n := range []int{1, 2, chip.Tiles/2 + 3} {
			cfgs = append(cfgs, Config{Chip: chip, NPEs: n, HeapPerPE: 1 << 16, ScratchBytes: 1 << 16})
		}
	}
	return cfgs
}

// foldOrderBody is a program whose PEs act before their first barrier, so
// what each does depends on the order the calendar resumes them from
// start_pes: odd ranks hand off first (yieldSpin), every PE races a CSwap
// and a FAdd on PE 0's words, sets its predecessor's flag and waits until
// its successor has set its own. Each step is logged on the host with the
// rank, what it returned and the clock after it.
func foldOrderBody(log *[]string) func(*PE) error {
	return func(pe *PE) error {
		me, n := pe.MyPE(), pe.NumPEs()
		// Malloc's allocation without its symmetry barrier: the same offset on
		// every PE, and re-zeroed when the run's arena is pooled.
		off, err := pe.heap.Alloc(3 * 8)
		if err != nil {
			return err
		}
		flag, word := dynRef[int64](off, 1), dynRef[int64](off+8, 2)
		note := func(step string, v int64) {
			*log = append(*log, fmt.Sprintf("PE %d %s %d @%d", me, step, v, pe.Now()))
		}
		note("enter", 0)
		if me%2 == 1 {
			pe.yieldSpin()
			note("spun", 0)
		}
		old, err := CSwap(pe, word.At(0), 0, int64(me+1), 0)
		if err != nil {
			return err
		}
		note("cswap", old)
		sum, err := FAdd(pe, word.At(1), int64(me+1), 0)
		if err != nil {
			return err
		}
		note("fadd", sum)
		if me > 0 {
			if err := P(pe, flag, int64(me), me-1); err != nil {
				return err
			}
			note("set", int64(me-1))
		}
		if me < n-1 {
			if err := WaitUntil(pe, flag, CmpNE, 0); err != nil {
				return err
			}
			note("woke", MustLocal(pe, flag)[0])
		}
		return pe.BarrierAll()
	}
}

// TestStartBarrierFoldOrder: bodies that race right after start_pes run in
// the same order, to the same clocks and results, whether the launcher
// folded the start barrier or the PEs ran it on the calendar.
func TestStartBarrierFoldOrder(t *testing.T) {
	for _, cfg := range foldShapes() {
		label := fmt.Sprintf("%s/%d PEs", cfg.Chip.Name, cfg.NPEs)
		var folded, unfolded []string
		computed := runChain(t, cfg, literals{}, foldOrderBody(&folded))
		literal := runChain(t, cfg, literals{chain: literalChain}, foldOrderBody(&unfolded))
		compareOutcomes(t, label, cfg, computed, literal)
		if !slices.Equal(folded, unfolded) {
			t.Errorf("%s: the PEs ran in another order folded:\n  folded:   %v\n  unfolded: %v", label, folded, unfolded)
		}
	}
}

// TestStartBarrierFoldAbort: when a body fails, the PEs resumed after it
// leave start_pes as the unfolded chain of packets lets them, whose abort
// closes the networks: one the release had not reached, or had reached with
// a release still to pass on, unwinds without entering its body; the last
// PE, if reached, enters it. So PE 0's body failing at once leaves PE 1's
// unentered from 3 PEs on, though PE 0 passed the release on first.
func TestStartBarrierFoldAbort(t *testing.T) {
	type outcome struct {
		entered []int
		err     string
	}
	launch := func(cfg Config, lit literals, fail int) outcome {
		var out outcome
		_, err := run(cfg, lit, func(pe *PE) error {
			out.entered = append(out.entered, pe.MyPE())
			if pe.MyPE() == fail {
				return errors.New("failed at once")
			}
			return nil
		})
		if err != nil {
			out.err = err.Error()
		}
		return out
	}
	for _, cfg := range []Config{
		{Chip: arch.Gx8036(), NPEs: 2, HeapPerPE: 1 << 16},
		{Chip: arch.Gx8036(), NPEs: 3, HeapPerPE: 1 << 16},
		{Chip: arch.Synthetic(8, 3), NPEs: 17, HeapPerPE: 1 << 16},
	} {
		for _, fail := range []int{0, 1, cfg.NPEs - 1} {
			label := fmt.Sprintf("%s/%d PEs/PE %d fails", cfg.Chip.Name, cfg.NPEs, fail)
			folded := launch(cfg, literals{}, fail)
			unfolded := launch(cfg, literals{chain: literalChain}, fail)
			if !slices.Equal(folded.entered, unfolded.entered) || folded.err != unfolded.err {
				t.Errorf("%s: folded run entered %v and returned %q, unfolded entered %v and returned %q",
					label, folded.entered, folded.err, unfolded.entered, unfolded.err)
			}
			if want := []int{0}; fail == 0 && cfg.NPEs > 2 && !slices.Equal(folded.entered, want) {
				t.Errorf("%s: bodies entered %v, want %v", label, folded.entered, want)
			}
		}
	}
}

// TestUnhookedLaunchParksNone pins where the fold applies: an empty-body
// launch parks no PE when nothing observes it, and as often as before the
// fold when an observer, the sanitizer, another barrier algorithm or a second
// chip puts the start barrier back on the calendar — the computed chain
// parks each of the 36 PEs once, the spin barrier all but its last arrival,
// and the two-chip barrier's packets park every PE but the two chip leaders
// twice.
func TestUnhookedLaunchParksNone(t *testing.T) {
	base := Config{Chip: arch.Gx8036(), NPEs: 36, HeapPerPE: 1 << 16, ScratchBytes: 1 << 16}
	cases := []struct {
		name  string
		edit  func(*Config)
		parks int
	}{
		{"unhooked", func(*Config) {}, 0},
		{"observe", func(c *Config) { c.Observe = true }, 36},
		{"sanitize", func(c *Config) { c.Sanitize = true }, 36},
		{"spin", func(c *Config) { c.BarrierAlgo = BarrierAlgoSpin }, 35},
		{"2 chips", func(c *Config) { c.NChips = 2 }, 70},
	}
	for _, c := range cases {
		cfg := base
		c.edit(&cfg)
		out := runChain(t, cfg, literals{}, func(*PE) error { return nil })
		if out.err != nil || out.parks != c.parks {
			t.Errorf("%s: an empty-body launch parked %d times (%v), want %d", c.name, out.parks, out.err, c.parks)
		}
	}
}

// TestStartBarrierFoldConstants: the fold reads the chip's barrier constants
// as well as its routes. Two chips whose routes are the same share one shell
// and its replay of the exchange; launched one after the other, both ways
// round, each must still leave its own barrier's clocks, the unfolded run's.
func TestStartBarrierFoldConstants(t *testing.T) {
	a := arch.Synthetic(8, 3)
	b := *a
	b.Name += "-slow-barrier"
	b.BarrierArbiterNs = 3*a.BarrierArbiterNs + 7
	b.UDNSWForwardNs = 2*a.UDNSWForwardNs + 5
	cfgs := []Config{
		{Chip: a, NPEs: 17, HeapPerPE: 1 << 16, ScratchBytes: 1 << 16},
		{Chip: &b, NPEs: 17, HeapPerPE: 1 << 16, ScratchBytes: 1 << 16},
	}
	if ka, kb := replayKeys(t, cfgs[0]), replayKeys(t, cfgs[1]); !slices.Equal(ka, kb) {
		t.Fatalf("the chips' routes differ (%v, %v): the test no longer shares a replay", ka, kb)
	}
	body := func(pe *PE) error { return pe.BarrierAll() }
	var literal [2]chainOutcome
	for i, cfg := range cfgs {
		literal[i] = runChain(t, cfg, literals{chain: literalChain}, body)
	}
	if slices.Equal(literal[0].rep.PETimes, literal[1].rep.PETimes) {
		t.Fatal("the barrier constants move no clock: the test cannot tell the chips apart")
	}
	for _, order := range [][]int{{0, 1, 0}, {1, 0, 1}} {
		drainArenaPool()
		for k, i := range order {
			label := fmt.Sprintf("%s, launch %d of %v", cfgs[i].Chip.Name, k, order)
			compareOutcomes(t, label, cfgs[i], runChain(t, cfgs[i], literals{}, body), literal[i])
		}
	}
}
