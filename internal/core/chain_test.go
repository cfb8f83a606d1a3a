package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
	"tshmem/internal/sanitize"
	"tshmem/internal/vtime"
)

// The computed chain barrier's tests. Its oracle is the chain of packets
// (literalChain), run under the same configuration, fault plan included
// (TestStartPEsReplayMatchesLiteral holds the launcher's start_pes walk to
// the packet exchange the same way, through the same literals).

const chainRounds = 8

// chainSets lists the active sets an n-PE differential run synchronizes on:
// sizes 1, 2, 3, 5, 36 and full; from rank 0, offset, strided, and both.
// Consecutive sets overlap, so a member of two is in the first while members
// of the second alone already gather in it.
func chainSets(n int) []ActiveSet {
	var sets []ActiveSet
	for _, size := range []int{1, 2, 3, 5, 36, n} {
		for _, as := range []ActiveSet{
			{Start: 0, LogStride: 0, Size: size},
			{Start: 1, LogStride: 0, Size: size},
			{Start: 0, LogStride: 1, Size: size},
			{Start: 1, LogStride: 2, Size: size},
		} {
			if as.validate(n) == nil {
				sets = append(sets, as)
			}
		}
	}
	return sets
}

// randomSets draws k valid active sets of an n-PE program.
func randomSets(rng *rand.Rand, n, k int) []ActiveSet {
	sets := make([]ActiveSet, k)
	for i := range sets {
		for {
			as := ActiveSet{Start: rng.Intn(n), LogStride: rng.Intn(4), Size: 1 + rng.Intn(n)}
			if as.validate(n) == nil {
				sets[i] = as
				break
			}
		}
	}
	return sets
}

// chainSkew is the modeled work PE me does ahead of step (round, k) of the
// program seed names: what makes every barrier's arrival order its own.
func chainSkew(seed int64, round, k, me int) int64 {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(round)<<14 ^ int64(k)<<10 ^ int64(me)))
	return 1 + rng.Int63n(4000)
}

// chainBody is the differential program: chainRounds rounds of a store to
// the right-hand neighbour, every barrier of sets this PE belongs to — each
// behind its own seeded skew — an all-PEs barrier, and a read of what the
// left-hand neighbour stored. It is race-free whatever the sets. With racy
// set, PEs 0 and 1 also put to one word of the last PE in every round,
// unordered: racing puts for the sanitizer to find, in a program whose
// callers give it all-PEs barriers only (sets nil), after which the computed
// chain's host schedule is the literal one's and so is every diagnostic.
func chainBody(seed int64, sets []ActiveSet, racy bool) func(*PE) error {
	return func(pe *PE) error {
		me, n := pe.MyPE(), pe.NumPEs()
		slots, err := Malloc[int64](pe, chainRounds)
		if err != nil {
			return err
		}
		race, err := Malloc[int64](pe, 2) // put from element 0 to element 1
		if err != nil {
			return err
		}
		for round := 0; round < chainRounds; round++ {
			pe.ComputeIntOps(chainSkew(seed, round, 0, me))
			if err := P(pe, slots.At(round), int64(me+1), (me+1)%n); err != nil {
				return err
			}
			if racy && me < 2 {
				if err := Put(pe, race.At(1), race, 1, n-1); err != nil {
					return err
				}
			}
			for k, as := range sets {
				if !as.Contains(me) {
					continue
				}
				pe.ComputeIntOps(chainSkew(seed, round, k+1, me))
				if err := pe.Barrier(as); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if got, err := G(pe, slots.At(round), me); err != nil || got != int64((me+n-1)%n+1) {
				return fmt.Errorf("round %d: PE %d read %d, %v from its slot", round, me, got, err)
			}
		}
		return nil
	}
}

// chainContendBody is the differential program for what host order decides:
// between the barriers of sets every PE, member or not, takes a seeded lock
// around a G + P of the counter it guards and fetch-adds a shared word, each
// behind its own skew and, as the seed has it, a hand-off that lets the
// calendar reorder the PEs. Who waits for whom — and so every PE's clock —
// depends on the order the calendar runs members leaving a subset barrier and
// the PEs outside it; the program is race-free.
func chainContendBody(seed int64, sets []ActiveSet) func(*PE) error {
	return func(pe *PE) error {
		me, n := pe.MyPE(), pe.NumPEs()
		locks, err := Malloc[int64](pe, 3)
		if err != nil {
			return err
		}
		ctr, err := Malloc[int64](pe, 2) // [0] under lock q on PE q, [1] fetch-added
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		contend := func(round, k int) error {
			skew := chainSkew(seed, round, k, me)
			pe.ComputeIntOps(skew * 8)
			if skew%3 != 0 {
				pe.yieldSpin()
			}
			q := int(skew) % min(n, 3)
			if err := pe.SetLock(locks.At(q)); err != nil {
				return err
			}
			v, err := G(pe, ctr.At(0), q)
			if err != nil {
				return err
			}
			if err := P(pe, ctr.At(0), v+1, q); err != nil {
				return err
			}
			pe.Quiet()
			if err := pe.ClearLock(locks.At(q)); err != nil {
				return err
			}
			_, err = FAdd(pe, ctr.At(1), 1, 0)
			return err
		}
		steps := 0
		for round := 0; round < chainRounds; round++ {
			for k, as := range sets {
				if err := contend(round, 2*k); err != nil {
					return err
				}
				steps++
				if !as.Contains(me) {
					continue
				}
				// Some members run far ahead in virtual time and arrive without a
				// hand-off: early in host order, late by the clock, so the member
				// that arrives last is seldom the one with the latest arrival.
				if skew := chainSkew(seed, round, 2*k+1, me); skew%2 == 0 {
					pe.ComputeIntOps(skew * 64)
				}
				if err := pe.Barrier(as); err != nil {
					return err
				}
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if got, err := G(pe, ctr.At(1), 0); err != nil || got != int64(n*steps) {
			return fmt.Errorf("PE %d: %d fetch-adds counted, %v; want %d", me, got, err, n*steps)
		}
		return nil
	}
}

// chainOutcome is what a differential run is compared on.
type chainOutcome struct {
	rep   *Report
	err   error // nil, or the ErrTimeout a fault plan ended the run in
	stats []Stats
	parks int
}

// runChain runs body under cfg with the literal forms lit swaps in (none:
// everything computed). Under a fault plan the run may end in timeouts; any
// other failure fails the test.
func runChain(t testing.TB, cfg Config, lit literals, body func(*PE) error) chainOutcome {
	t.Helper()
	out := chainOutcome{stats: make([]Stats, cfg.NPEs)}
	var prog *Program
	rep, err := run(cfg, lit, func(pe *PE) error {
		prog = pe.prog
		err := body(pe)
		out.stats[pe.MyPE()] = pe.Stats()
		requireOutOfBarrier(t, pe)
		return err
	})
	if err != nil && !errors.Is(err, ErrTimeout) {
		t.Fatal(err)
	}
	if prog != nil { // nil when every PE timed out in start_pes
		requireChainIdle(t, prog)
		out.parks = prog.sched.parks
	}
	out.rep, out.err = rep, err
	return out
}

// requireOutOfBarrier checks, as pe's body returns, that pe is inside no
// computed barrier instance. It must run in the body: once Run returns, the
// launch shell's PE slab is cleared and may back another run.
func requireOutOfBarrier(t testing.TB, pe *PE) {
	t.Helper()
	if pe.bar != nil {
		t.Errorf("PE %d is still inside a barrier instance", pe.id)
	}
}

// requireChainIdle checks that a finished run left no computed barrier in
// flight: no instance left by more members than its set has, and none held
// beside the parity slots without a fault plan. Its PEs are checked by
// requireOutOfBarrier, in their bodies.
func requireChainIdle(t testing.TB, p *Program) {
	t.Helper()
	if p.flt == nil && len(p.chainHeld) != 0 {
		t.Errorf("%d barrier instances held without a fault plan", len(p.chainHeld))
	}
	var insts []*chainInst
	for _, set := range p.chainSets {
		insts = append(insts, &set.live[0], &set.live[1])
	}
	for _, inst := range p.chainHeld {
		insts = append(insts, inst)
	}
	for _, inst := range insts {
		if inst.set != nil && int(inst.left) > inst.set.as.Size {
			t.Errorf("barrier %v generation %d left by %d members", inst.set.as, inst.gen, inst.left)
		}
	}
}

// checkChainDifferential holds the computed chain barrier to the chain of
// packets (literalChain) on body under cfg.
func checkChainDifferential(t testing.TB, label string, cfg Config, body func(*PE) error) (computed, literal chainOutcome) {
	t.Helper()
	return checkDifferential(t, label, cfg, literals{chain: literalChain}, body)
}

// checkDifferential runs body under cfg computed and with the literal forms
// lit swaps in and holds the first to the second: every PE's clock and
// core.Stats, and whatever cfg's observers export — counters, histograms,
// per-link words and packets, the trace, the profile JSON byte for byte, the
// sanitizer's diagnostics and its loss counts — and under a fault plan the
// timeout diagnostics, the fault counts and the error Run returned,
// *TimeoutError field for field.
func checkDifferential(t testing.TB, label string, cfg Config, lit literals, body func(*PE) error) (computed, literal chainOutcome) {
	t.Helper()
	computed, literal = runChain(t, cfg, literals{}, body), runChain(t, cfg, lit, body)
	compareOutcomes(t, label, cfg, computed, literal)
	return computed, literal
}

// compareOutcomes holds a computed run of cfg to a literal one, as
// checkDifferential does.
func compareOutcomes(t testing.TB, label string, cfg Config, computed, literal chainOutcome) {
	t.Helper()
	crep, lrep := computed.rep, literal.rep
	if (computed.err == nil) != (literal.err == nil) || computed.err != nil && computed.err.Error() != literal.err.Error() {
		t.Errorf("%s: Run returned %v computed, %v literal", label, computed.err, literal.err)
	}
	var cte, lte *TimeoutError
	if errors.As(computed.err, &cte) != errors.As(literal.err, &lte) || cte != nil && *cte != *lte {
		t.Errorf("%s: timeout errors diverged: %+v computed, %+v literal", label, cte, lte)
	}
	compareReports(t, label, crep, lrep)
	if !reflect.DeepEqual(computed.stats, literal.stats) {
		t.Errorf("%s: core.Stats diverged", label)
	}
	if !reflect.DeepEqual(crep.Trace(), lrep.Trace()) {
		t.Errorf("%s: traces diverged (%d vs %d events)", label, len(crep.Trace()), len(lrep.Trace()))
	}
	if cfg.Profile && !bytes.Equal(profileJSON(t, crep), profileJSON(t, lrep)) {
		t.Errorf("%s: profile JSON is not byte-identical", label)
	}
	if !reflect.DeepEqual(crep.Diagnostics, lrep.Diagnostics) || crep.SanitizerLoss != lrep.SanitizerLoss {
		t.Errorf("%s: diagnostics diverged:\n  computed: %v %+v\n  literal:  %v %+v", label,
			crep.Diagnostics, crep.SanitizerLoss, lrep.Diagnostics, lrep.SanitizerLoss)
	}
	if !reflect.DeepEqual(crep.FaultCounts, lrep.FaultCounts) {
		t.Errorf("%s: fault counts diverged: %v computed, %v literal", label, crep.FaultCounts, lrep.FaultCounts)
	}
}

// chainPlan is a fault plan the differential runs under, with the wait
// budget it arms (0: the default).
type chainPlan struct {
	name   string
	plan   *fault.Plan
	budget vtime.Duration
}

// chainPlans are the fault plans of an n-PE differential run, their tiles
// drawn from seed: two seeded plans, the second under a wait budget of 3 µs
// that ordinary skew overruns, so signals arrive late at every kind of wait;
// and one fixed plan per kind that touches the UDN — a barrier-queue stall
// without an end (a dropped signal), one with an end, one whose end lies
// past the default budget (a late signal), a dead tile, a slow tile and a
// slow link — each starting a few microseconds in, after the start barrier.
func chainPlans(t testing.TB, n int, seed int64) []chainPlan {
	t.Helper()
	return seededPlans(t, n, seed, func(tile func() int, link string) []string {
		return []string{
			fmt.Sprintf("stall:pe=%d,q=0,start=3us", tile()),
			fmt.Sprintf("stall:pe=%d,q=0,start=1us,end=9us", tile()),
			fmt.Sprintf("stall:pe=%d,q=0,start=2us,end=80ms", tile()),
			fmt.Sprintf("tiledead:pe=%d,start=4us", tile()),
			fmt.Sprintf("tileslow:pe=%d,factor=3", tile()),
			"linkslow:" + link + ",factor=8,extra=100ns",
		}
	})
}

// seededPlans are two seeded plans of an n-PE run, the second under a wait
// budget of 3 µs, and the fixed plans specs lists, given a tile and a
// "from=a,to=b" mesh link drawn from seed.
func seededPlans(t testing.TB, n int, seed int64, specs func(tile func() int, link string) []string) []chainPlan {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	from := rng.Intn(n)
	if from == n-1 {
		from = max(0, n-2)
	}
	plans := []chainPlan{
		{"seed", fault.FromSeed(seed, n), 0},
		{"seed/tight", fault.FromSeed(seed+1, n), vtime.FromNs(3000)},
	}
	for _, s := range specs(func() int { return rng.Intn(n) }, fmt.Sprintf("from=%d,to=%d", from, min(from+1, n-1))) {
		plan, err := fault.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, chainPlan{s, plan, 0})
	}
	return plans
}

// with is cfg under the plan.
func (p chainPlan) with(cfg Config) Config {
	cfg.Faults, cfg.WaitBudget = p.plan, p.budget
	return cfg
}

// chainObservers are the observer modes the differential runs under. The
// computed chain feeds recorders, profiler and link counters itself, so each
// mode is a form of it the literal chain must reproduce export for export.
var chainObservers = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"sanitize", Config{Sanitize: true}},
	{"observe", Config{Observe: true}},
	{"observe+trace", Config{Observe: true, Trace: true}},
	{"profile", Config{Profile: true}},
	{"all", Config{Observe: true, Trace: true, Profile: true, Sanitize: true}},
}

// chainShapes are the meshes of the differential test: every catalogued chip,
// the Gx split over two chips (sets on one chip take the chain's single-chip
// branch, sets across both the hierarchical one), and two synthetic shapes.
func chainShapes() []Config {
	var shapes []Config
	for _, chip := range arch.Chips() {
		shapes = append(shapes, Config{Chip: chip, NChips: 1})
	}
	return append(shapes,
		Config{Chip: arch.Gx8036(), NChips: 2},
		Config{Chip: arch.Synthetic(8, 3), NChips: 1},
		Config{Chip: arch.Synthetic(16, 16), NChips: 1})
}

// TestChainBarrierMatchesLiteral is the computed chain's oracle test: on
// every mesh, at the smallest, an awkward and the full PE count, under every
// observer mode, the differential program over the fixed and four seeded
// random active sets comes out of the computed chain exactly as out of the
// literal one, and up to 72 PEs so does the contended program; both run
// again under one of chainPlans each, rotating with the case so that every
// mode meets seeded and fixed plans. A racy all-PEs-only program must agree
// too, diagnostics included.
func TestChainBarrierMatchesLiteral(t *testing.T) {
	cases := 0
	for _, shape := range chainShapes() {
		full := shape.NChips * shape.Chip.Tiles
		for _, n := range []int{2, 5, full} {
			if testing.Short() && n > 72 {
				continue
			}
			cases++
			for m, obs := range chainObservers {
				if n > 72 && (obs.cfg.Observe || obs.cfg.Profile) {
					continue // the hooks are per step; 256 and 1 024 PEs add only time
				}
				cfg := obs.cfg
				cfg.Chip, cfg.NChips, cfg.NPEs, cfg.HeapPerPE, cfg.ScratchBytes = shape.Chip, shape.NChips, n, 1<<16, 1<<16
				label := fmt.Sprintf("%s x%d/%d PEs/%s", cfg.Chip.Name, cfg.NChips, n, obs.name)
				seed := int64(n)*31 + int64(len(label))
				sets := append(chainSets(n), randomSets(rand.New(rand.NewSource(seed)), n, 4)...)
				computed, literal := checkChainDifferential(t, label, cfg, chainBody(seed, sets, false))
				if len(computed.rep.Diagnostics) != 0 {
					t.Errorf("%s: the race-free program has diagnostics: %v", label, computed.rep.Diagnostics)
				}
				// At 2 PEs each member of the chain parks once either way, packets
				// or not, so the computed chain can only tie there.
				if cfg.NChips == 1 && (computed.parks > literal.parks || n > 2 && computed.parks == literal.parks) {
					t.Errorf("%s: %d parks computed, %d literal: the computed chain saved none", label, computed.parks, literal.parks)
				}
				if n <= 72 {
					// What host order decides, over the six sets the list ends
					// with (the full-size ones and the random ones), the lock
					// algorithm rotating with the mesh and PE count, so every mode
					// meets every algorithm.
					contended := cfg
					contended.LockAlgo = LockAlgos()[(cases+m)%len(LockAlgos())]
					contendedLabel := label + "/contended/" + contended.LockAlgo.String()
					contendBody := chainContendBody(seed, sets[len(sets)-6:])
					checkChainDifferential(t, contendedLabel, contended, contendBody)
					// Both programs again, each under one of chainPlans, which
					// past 72 PEs adds only time.
					plans := chainPlans(t, n, seed)
					p := plans[(cases+m)%len(plans)]
					checkChainDifferential(t, label+"/"+p.name, p.with(cfg), chainBody(seed, sets, false))
					p = plans[(cases+m+1)%len(plans)]
					checkChainDifferential(t, contendedLabel+"/"+p.name, p.with(contended), contendBody)
				}
				if !cfg.Sanitize || n < 3 {
					continue
				}
				racy, _ := checkChainDifferential(t, label+"/racy", cfg, chainBody(seed, nil, true))
				if !slices.ContainsFunc(racy.rep.Diagnostics, func(d sanitize.Diagnostic) bool { return d.Kind == sanitize.RacePutPut }) {
					t.Errorf("%s/racy: no put/put race in %v", label, racy.rep.Diagnostics)
				}
			}
		}
	}
}

// FuzzChainBarrier is the differential test over fuzzer-chosen meshes, PE
// counts, seeds and fault plans, with seeded random active sets only; obs
// switches on every observer but the sanitizer, which san does, a non-zero
// plan picks one of chainPlans drawn from it, and coll runs collectivesBody
// instead of the barrier programs.
func FuzzChainBarrier(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(35), false, false, int64(0), false)
	f.Add(int64(2), uint8(8), uint16(23), true, false, int64(3), false)
	f.Add(int64(3), uint8(7), uint16(70), true, true, int64(4), false)
	f.Add(int64(4), uint8(1), uint16(11), false, true, int64(9), false)
	f.Add(int64(5), uint8(2), uint16(15), true, true, int64(6), false)
	// Unhooked single-chip runs, whose start barrier the launcher folds: 1 and
	// 2 PEs, and partial areas of an 8x3 mesh and of the Epiphany-III.
	f.Add(int64(6), uint8(0), uint16(0), false, false, int64(0), false)
	f.Add(int64(7), uint8(1), uint16(1), false, false, int64(0), false)
	f.Add(int64(8), uint8(8), uint16(16), false, false, int64(0), false)
	f.Add(int64(9), uint8(4), uint16(10), false, false, int64(0), false)
	// The collectives, unhooked on one chip and observed under a plan across
	// two.
	f.Add(int64(10), uint8(0), uint16(20), false, false, int64(0), true)
	f.Add(int64(11), uint8(7), uint16(29), true, true, int64(5), true)
	shapes := chainShapes()
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, npes uint16, san, obs bool, plan int64, coll bool) {
		cfg := shapes[int(shape)%len(shapes)]
		cfg.NPEs = 1 + int(npes)%min(cfg.NChips*cfg.Chip.Tiles, 72)
		if cfg.NChips > cfg.NPEs {
			cfg.NChips = 1
		}
		cfg.HeapPerPE, cfg.ScratchBytes, cfg.Sanitize = 1<<16, 1<<16, san
		cfg.Observe, cfg.Trace, cfg.Profile = obs, obs, obs
		sets := randomSets(rand.New(rand.NewSource(seed)), cfg.NPEs, 6)
		label := fmt.Sprintf("%s x%d/%d PEs/seed %d", cfg.Chip.Name, cfg.NChips, cfg.NPEs, seed)
		if plan != 0 {
			plans := chainPlans(t, cfg.NPEs, plan)
			p := plans[int(uint64(plan)%uint64(len(plans)))]
			cfg, label = p.with(cfg), label+"/"+p.name
		}
		if coll {
			checkChainDifferential(t, label+"/collectives", cfg, collectivesBody(3))
			return
		}
		checkChainDifferential(t, label, cfg, chainBody(seed, sets, false))
		cfg.LockAlgo = LockAlgos()[int(uint64(seed)%uint64(len(LockAlgos())))]
		checkChainDifferential(t, label+"/contended", cfg, chainContendBody(seed, sets))
	})
}

// TestChainBarrierCollectivesMatchLiteral: the collectives' internal barriers
// and their hooks, and the steps the driver takes between them — in the
// benchmark's sync-storm in small under each lock algorithm, and in every
// other collective run through phases (collectivesBody) — observed every way,
// clean and under one of chainPlans. The literal chain runs every step in the
// body, so it is the turns' oracle too.
func TestChainBarrierCollectivesMatchLiteral(t *testing.T) {
	const n = 36
	plans := chainPlans(t, n, 36)
	for a, algo := range LockAlgos() {
		for m, obs := range chainObservers {
			cfg := obs.cfg
			cfg.NPEs, cfg.HeapPerPE, cfg.LockAlgo = n, 1<<16, algo
			label := algo.String() + "/" + obs.name
			checkChainDifferential(t, label, cfg, stormLikeBody(24))
			p := plans[(a*len(chainObservers)+m)%len(plans)]
			checkChainDifferential(t, label+"/"+p.name, p.with(cfg), stormLikeBody(24))
		}
	}
	for m, obs := range chainObservers {
		cfg := obs.cfg
		cfg.NPEs, cfg.HeapPerPE = n, 1<<16
		label := "collectives/" + obs.name
		checkChainDifferential(t, label, cfg, collectivesBody(6))
		p := plans[(m+3)%len(plans)]
		checkChainDifferential(t, label+"/"+p.name, p.with(cfg), collectivesBody(6))
	}
}

// collectivesBody runs, for rounds rounds, every collective the driver can
// take steps of besides sync-storm's: FCollect over all PEs and over the odd
// ones, Collect of a varying size, BroadcastPush from a rotating root,
// BroadcastPull of a static object (whose steps stay in the body; on a
// single chip that has UDN interrupts), and Malloc, Realloc and Free; and
// checks what FCollect delivers.
func collectivesBody(rounds int) func(*PE) error {
	return func(pe *PE) error {
		const elems = 4
		n, me := pe.NumPEs(), pe.MyPE()
		all, odd := AllPEs(n), ActiveSet{Start: 1, LogStride: 1, Size: n / 2}
		ps, err := Malloc[int64](pe, CollectSyncSize)
		if err != nil {
			return err
		}
		src, err := Malloc[int64](pe, elems)
		if err != nil {
			return err
		}
		dst, err := Malloc[int64](pe, elems*n)
		if err != nil {
			return err
		}
		statics := pe.Chip().UDNInterrupts && pe.prog.nchips == 1
		ssrc, err := DeclareStatic[int64](pe, "collectives-src", elems)
		if err != nil {
			return err
		}
		sdst, err := DeclareStatic[int64](pe, "collectives-dst", elems)
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			pe.ComputeIntOps(chainSkew(int64(rounds), r, 0, me))
			for i := 0; i < elems; i++ {
				if err := P(pe, src.At(i), int64(me*100+r*10+i), me); err != nil {
					return err
				}
			}
			if err := FCollect(pe, dst, src, elems, all, ps); err != nil {
				return err
			}
			// A fault plan can leave a deposit out without failing this PE.
			if got, want := MustLocal(pe, dst)[(n-1)*elems], int64((n-1)*100+r*10); pe.prog.flt == nil && got != want {
				return fmt.Errorf("PE %d round %d: FCollect delivered %d from the last PE, want %d", me, r, got, want)
			}
			if odd.Contains(me) {
				if err := FCollect(pe, dst, src, elems, odd, ps); err != nil {
					return err
				}
			}
			if err := Collect(pe, dst, src, (me+r)%elems, all, ps); err != nil {
				return err
			}
			if err := BroadcastPush(pe, dst, src, elems, (r*7)%n, all, ps); err != nil {
				return err
			}
			if statics {
				if err := BroadcastPull(pe, sdst, ssrc, elems, r%n, all, ps); err != nil {
					return err
				}
			}
			x, err := Malloc[int64](pe, 8+r)
			if err != nil {
				return err
			}
			if x, err = Realloc(pe, x, 64+r); err != nil {
				return err
			}
			if err := Free(pe, x); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
}

// stormLikeBody is the benchmark's sync-storm in small: rounds of BarrierAll,
// an 8-element SumToAll and a 64-byte BroadcastPull from a rotating root,
// with a lock-guarded G + P + Quiet every fourth.
func stormLikeBody(rounds int) func(*PE) error {
	return func(pe *PE) error {
		const elems = 8
		n, me := pe.NumPEs(), pe.MyPE()
		as := AllPEs(n)
		var refs [4]Ref[int64]
		for i := range refs {
			var err error
			if refs[i], err = Malloc[int64](pe, elems); err != nil {
				return err
			}
		}
		redIn, redOut, bSrc, bDst := refs[0], refs[1], refs[2], refs[3]
		pwrk, err := Malloc[int64](pe, ReduceMinWrkSize)
		if err != nil {
			return err
		}
		ps, err := Malloc[int64](pe, ReduceSyncSize)
		if err != nil {
			return err
		}
		locks, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		ctr, err := Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if err := SumToAll(pe, redOut, redIn, elems, as, pwrk, ps); err != nil {
				return err
			}
			if err := BroadcastPull(pe, bDst, bSrc, elems, r%n, as, ps); err != nil {
				return err
			}
			if r%4 != 3 {
				continue
			}
			q := (me + r) % n
			if err := pe.SetLock(locks.At(q)); err != nil {
				return err
			}
			v, err := G(pe, ctr, q)
			if err != nil {
				return err
			}
			if err := P(pe, ctr, v+1, q); err != nil {
				return err
			}
			pe.Quiet()
			if err := pe.ClearLock(locks.At(q)); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
}

// TestChainBarrierParksOncePerPE is the test that fails without the
// mechanism: 100 BarrierAlls on 36 PEs (and the start barrier) park each PE
// at most once per barrier, observed or not. The members arrive in reverse
// chain order, so the literal chain parks every member but the first twice —
// for a wait signal that has not reached it yet, then for the release.
func TestChainBarrierParksOncePerPE(t *testing.T) {
	const n, rounds = 36, 100
	body := func(pe *PE) error {
		for r := 0; r < rounds; r++ {
			// The later in the chain, the earlier in virtual time; the hand-off
			// lets the calendar run the PEs in that order.
			pe.ComputeIntOps(int64(n-pe.MyPE()) * 1000)
			pe.yieldSpin()
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, obs := range []Config{{}, {Observe: true, Trace: true, Profile: true}} {
		cfg := obs
		cfg.NPEs, cfg.HeapPerPE = n, 1<<16
		label := fmt.Sprintf("reverse arrivals/observed=%v", cfg.Observe)
		computed, literal := checkChainDifferential(t, label, cfg, body)
		if limit := n * (rounds + 1); computed.parks > limit {
			t.Errorf("%s: %d parks for %d barriers of %d PEs, want at most %d", label, computed.parks, rounds+1, n, limit)
		}
		if literal.parks < 3*n*rounds/2 {
			t.Errorf("%s: the literal chain parked %d times for %d barriers of %d PEs: this test no longer tells the two apart", label, literal.parks, rounds+1, n)
		}
	}
}

// TestBarrierZeroAllocs: a steady-state BarrierAll and a steady-state subset
// Barrier allocate nothing — the instance is a slot of the set's state, the
// hops come from its cache, and no packet is built — and neither do they
// observed once warm: the hooks fill histogram buckets the warm-up allocated
// and counters that exist already.
func TestBarrierZeroAllocs(t *testing.T) {
	const npes, warm, runs = 8, 4, 50
	sub := ActiveSet{Start: 1, LogStride: 1, Size: 3}
	for _, observe := range []bool{false, true} {
		cfg := gxCfg(npes)
		cfg.Observe = observe
		runT(t, cfg, func(pe *PE) error {
			var opErr error
			round := func() {
				if err := pe.BarrierAll(); err != nil {
					opErr = err
				}
				if sub.Contains(pe.MyPE()) {
					if err := pe.Barrier(sub); err != nil {
						opErr = err
					}
				}
			}
			for i := 0; i < warm; i++ {
				round()
			}
			// Every PE runs the same runs+1 rounds (AllocsPerRun calls round once
			// before it counts); PE 0's counter sees all of their allocations,
			// since a run's PEs share one driver goroutine.
			if pe.MyPE() == 0 {
				if n := testing.AllocsPerRun(runs, round); n != 0 {
					t.Errorf("observe=%v: a BarrierAll and a subset Barrier allocate %v times over %d PEs, want 0", observe, n, npes)
				}
			} else {
				for i := 0; i <= runs; i++ {
					round()
				}
			}
			return opErr
		})
	}
}

// TestChainBarrierEveryWayOut: a member parked in the rendezvous unwinds,
// with an error that names the barrier, when a peer panics, leaves through
// runtime.Goexit, or returns an error before it arrives; and whichever way
// its members leave, the instance's slot is free again.
func TestChainBarrierEveryWayOut(t *testing.T) {
	ways := []struct {
		name  string
		leave func() error // what PE 2 does instead of arriving
		want  string       // in Run's error
	}{
		{"panic", func() error { panic("boom") }, "PE 2 panicked: boom"},
		{"goexit", func() error { runtime.Goexit(); return nil }, "PE 2 exited without completing"},
		{"error", func() error { return fmt.Errorf("gave up") }, "PE 2: gave up"},
	}
	sub := ActiveSet{Start: 2, LogStride: 0, Size: 3}
	for _, way := range ways {
		for _, as := range []ActiveSet{AllPEs(6), sub} {
			t.Run(fmt.Sprintf("%s/%v", way.name, as), func(t *testing.T) {
				const npes = 6
				var prog *Program
				errs := make([]error, npes)
				_, err := Run(Config{NPEs: npes, HeapPerPE: 1 << 16}, func(pe *PE) error {
					defer requireOutOfBarrier(t, pe)
					prog = pe.prog
					me := pe.MyPE()
					if me == 2 {
						// Behind every peer in virtual time: yielding lets each
						// member run into the barrier first.
						pe.ComputeIntOps(1_000_000)
						pe.yieldSpin()
						if got, want := pe.prog.sched.parked[wkChain], as.Size-1; got != want {
							t.Errorf("%d members parked in the rendezvous, want %d", got, want)
						}
						return way.leave()
					}
					if as.Contains(me) {
						errs[me] = pe.Barrier(as)
					}
					return errs[me]
				})
				if err == nil || !strings.Contains(err.Error(), way.want) {
					t.Fatalf("Run error = %v, want %q", err, way.want)
				}
				for me := 0; me < npes; me++ {
					if !as.Contains(me) || me == 2 {
						continue
					}
					want := fmt.Sprintf("program aborted while PE %d waited in barrier %v generation 0", me, as)
					if as == AllPEs(npes) {
						want = strings.Replace(want, "generation 0", "generation 1", 1) // the start barrier was generation 0
					}
					if errs[me] == nil || !strings.Contains(errs[me].Error(), want) {
						t.Errorf("PE %d left the barrier with %v, want %q", me, errs[me], want)
					}
				}
				requireChainIdle(t, prog)
			})
		}
	}
}

// TestChainBarrierReleaseMeetsAbort: the release is on its way down the
// chain when the program aborts — PE 0 leaves the barrier, readies PE 1 and
// fails, which readies every parked member to unwind. PE 1, resumed as
// released, must not ready PE 2 a second time: a PE queued ready twice is
// resumed again after it has exited, while PE 1 (which stays behind, in
// virtual time and in the calendar) keeps the run alive.
func TestChainBarrierReleaseMeetsAbort(t *testing.T) {
	const npes = 6
	var prog *Program
	left := make([]bool, npes) // out of the barrier, either way
	_, err := Run(Config{NPEs: npes, HeapPerPE: 1 << 16}, func(pe *PE) error {
		defer requireOutOfBarrier(t, pe)
		prog = pe.prog
		err := pe.BarrierAll()
		left[pe.MyPE()] = true
		switch pe.MyPE() {
		case 0:
			return fmt.Errorf("failed right after the barrier")
		case 1:
			if err != nil {
				t.Errorf("PE 1 was released before the abort, yet its barrier returned %v", err)
			}
			pe.ComputeIntOps(1_000_000)
			pe.yieldSpin()
			for me, ok := range left {
				if !ok {
					t.Errorf("PE %d had not left the barrier when every ready PE had run", me)
				}
			}
		}
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "PE 0: failed right after the barrier") {
		t.Fatalf("Run error = %v, want PE 0's", err)
	}
	requireChainIdle(t, prog)
}

// TestChainBarrierSubsetBesideContender: a subset barrier whose last arriver
// is not its last member, beside a non-member that is ready at a clock
// between member 0's after its first send and the arrivals of the members
// behind the last arriver. The literal chain readies member 0 only after
// those members have each had a turn at their arrival clocks to forward the
// wait signal, so the non-member takes the lock first; the computed chain
// must give it the same turn.
func TestChainBarrierSubsetBesideContender(t *testing.T) {
	const npes = 6
	sub := ActiveSet{Start: 0, LogStride: 0, Size: 4}
	body := func(pe *PE) error {
		lock, err := Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		contend := func() error {
			if err := pe.SetLock(lock); err != nil {
				return err
			}
			pe.ComputeIntOps(500_000)
			return pe.ClearLock(lock)
		}
		switch me := pe.MyPE(); me {
		case 0: // arrives first and early, contends once released
			pe.ComputeIntOps(1_000)
			if err := pe.Barrier(sub); err != nil {
				return err
			}
			if err := contend(); err != nil {
				return err
			}
		case 1: // early in virtual time, last to arrive
			pe.ComputeIntOps(2_000)
			pe.yieldSpin()
			if err := pe.Barrier(sub); err != nil {
				return err
			}
		case 2, 3: // late in virtual time, arrived before PE 1 runs again
			pe.ComputeIntOps(int64(me) * 100_000)
			if err := pe.Barrier(sub); err != nil {
				return err
			}
		case 4: // the non-member: ready between PE 0's hold and PE 2's arrival
			pe.ComputeIntOps(20_000)
			pe.yieldSpin()
			if err := contend(); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
	for _, algo := range LockAlgos() {
		checkChainDifferential(t, algo.String(), Config{NPEs: npes, HeapPerPE: 1 << 16, LockAlgo: algo}, body)
	}
}

// TestChainBarrierForwardMeetsAbort: the wait signal has readied a parked
// member for its forwarding turn when a PE outside the set fails. The abort
// finds that member queued ready, not parked; its turn, when the driver
// reaches it, must be the body's — to unwind — and not the signal's.
func TestChainBarrierForwardMeetsAbort(t *testing.T) {
	const npes = 4
	sub := ActiveSet{Start: 0, LogStride: 0, Size: 3}
	var prog *Program
	errs := make([]error, npes)
	var left []int // the members, in the order their barrier returned
	_, err := Run(Config{NPEs: npes, HeapPerPE: 1 << 16}, func(pe *PE) error {
		defer requireOutOfBarrier(t, pe)
		prog = pe.prog
		switch me := pe.MyPE(); me {
		case 0: // arrives once PEs 1 and 2 are parked, and readies PE 1 to forward
			pe.ComputeIntOps(1_000)
			pe.yieldSpin()
			errs[me] = pe.Barrier(sub)
			left = append(left, me)
			if st := pe.prog.sched.pes[1].state; !pe.prog.aborted || st == evBlocked {
				t.Errorf("PE 0 unwound with aborted = %v and PE 1 in state %d: PE 1 was to be ready to forward when PE 3 failed", pe.prog.aborted, st)
			}
		case 1, 2: // late by the clock, parked before the signal starts
			pe.ComputeIntOps(100_000)
			errs[me] = pe.Barrier(sub)
			left = append(left, me)
		case 3: // ahead of PE 1's turn in the ready heap
			pe.ComputeIntOps(10_000)
			pe.yieldSpin()
			return fmt.Errorf("gave up")
		}
		return errs[pe.MyPE()]
	})
	if err == nil || !strings.Contains(err.Error(), "PE 3: gave up") {
		t.Fatalf("Run error = %v, want PE 3's", err)
	}
	for me := 0; me < sub.Size; me++ {
		want := fmt.Sprintf("program aborted while PE %d waited in barrier %v generation 0", me, sub)
		if errs[me] == nil || !strings.Contains(errs[me].Error(), want) {
			t.Errorf("PE %d left the barrier with %v, want %q", me, errs[me], want)
		}
	}
	// PE 1 unwinds in the turn it was readied for, ahead of PE 2; left parked
	// by that turn it would unwind last, once the run had quiesced.
	if !slices.Equal(left, []int{0, 1, 2}) {
		t.Errorf("the members left the barrier in order %v, want [0 1 2]", left)
	}
	requireChainIdle(t, prog)
}

// TestChainBarrierQueueAtTimeout: what a member that times out has taken
// off its barrier queue, and so counted as received, is what the packets'
// receive loop would have taken. All observers are on, and the waits armed.
//
//   - queued: PE 2 has a signal of {0,2} queued when it starts to wait in
//     {1,2}, which PE 1 never joins. Its receive loop takes the signal, sets
//     it aside and times out; it never consumes it.
//   - carry-on: PEs 0 and 1 time out in {0,1,2} waiting for PE 2, which
//     waits on a flag nobody writes. PE 2 times out too, ignores it and
//     arrives at the barrier its peers gave up on: the wait signal is still
//     there for it, and its forward reaches PE 0, which left and takes
//     nothing.
func TestChainBarrierQueueAtTimeout(t *testing.T) {
	bodies := map[string]func(*PE) error{
		"queued": func(pe *PE) error {
			switch pe.MyPE() {
			case 0:
				pe.ComputeIntOps(300)
				pe.yieldSpin() // PE 2 leaves the start barrier first
				return pe.Barrier(ActiveSet{Start: 0, LogStride: 1, Size: 2})
			case 2:
				pe.ComputeIntOps(3000)
				pe.yieldSpin() // PE 0 signals it first
				return pe.Barrier(ActiveSet{Start: 1, Size: 2})
			}
			return nil
		},
		"carry-on": func(pe *PE) error {
			flag, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			set := ActiveSet{Start: 0, Size: 3}
			switch pe.MyPE() {
			case 2:
				pe.ComputeIntOps(10_000) // resumed after PEs 0 and 1 when the waits expire
				_ = WaitUntil(pe, flag, CmpNE, 0)
				return pe.Barrier(set)
			case 3:
				return nil
			}
			return pe.Barrier(set)
		},
	}
	for name, body := range bodies {
		cfg := Config{NPEs: 4, HeapPerPE: 1 << 16, Faults: &fault.Plan{}, Observe: true, Trace: true, Profile: true, Sanitize: true}
		computed, _ := checkChainDifferential(t, name, cfg, body)
		if !errors.Is(computed.err, ErrTimeout) {
			t.Errorf("%s: Run returned %v, want ErrTimeout", name, computed.err)
		}
	}
}

// TestChainBarrierGenerationsOverlap: members that time out and carry on
// reach generation g+2 of a set while g is not done with, which the packets,
// tagged per generation, take in their stride. Each body ignores its
// timeouts and returns the first; every observer mode is compared.
//
//   - overtaken: PE 0 arrives 80 µs late under a 3 µs budget, so PE 1 times
//     out in g against it; PE 1 then times out in g+1 when the calendar
//     expires the waits, and enters g+2 while PE 0 is still queued to time
//     out of g.
//   - straggler: PE 2 sits out three expiring flag waits before its first
//     barrier, so PEs 0 and 1 are in g+2 when it enters g and finds the wait
//     signal PE 1 forwarded it there.
func TestChainBarrierGenerationsOverlap(t *testing.T) {
	barriers := func(pe *PE, k int) error {
		var first error
		for i := 0; i < k; i++ {
			if err := pe.BarrierAll(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	cases := []struct {
		name   string
		budget vtime.Duration
		body   func(*PE) error
	}{
		{"overtaken", vtime.FromNs(3000), func(pe *PE) error {
			if pe.MyPE() == 0 {
				pe.ComputeIntOps(100_000)
			}
			return barriers(pe, 3)
		}},
		{"straggler", 0, func(pe *PE) error {
			flag, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			if pe.MyPE() == 2 {
				for i := 0; i < 3; i++ {
					_ = WaitUntil(pe, flag, CmpNE, 0)
				}
			}
			return barriers(pe, 3)
		}},
	}
	for _, c := range cases {
		for _, obs := range chainObservers {
			cfg := obs.cfg
			cfg.NPEs, cfg.HeapPerPE, cfg.Faults, cfg.WaitBudget = 3, 1<<16, &fault.Plan{}, c.budget
			label := c.name + "/" + obs.name
			computed, _ := checkChainDifferential(t, label, cfg, c.body)
			if !errors.Is(computed.err, ErrTimeout) {
				t.Errorf("%s: Run returned %v, want ErrTimeout", label, computed.err)
			}
		}
	}
}
