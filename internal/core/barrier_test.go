package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

func TestBarrierAllAligns(t *testing.T) {
	const n = 8
	var mu sync.Mutex
	var maxBefore vtime.Time
	afters := make([]vtime.Time, n)
	runT(t, gxCfg(n), func(pe *PE) error {
		// Stagger arrivals in virtual time.
		pe.clock.Advance(vtime.Duration(pe.MyPE()) * vtime.Microsecond)
		mu.Lock()
		if pe.Now() > maxBefore {
			maxBefore = pe.Now()
		}
		mu.Unlock()
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		afters[pe.MyPE()] = pe.Now()
		return nil
	})
	// Nobody leaves before the last arrival.
	for i, a := range afters {
		if a < maxBefore {
			t.Errorf("PE %d left the barrier at %v, before last arrival %v", i, a, maxBefore)
		}
	}
}

// TestFig8BarrierShape verifies the TSHMEM barrier's Figure 8 properties:
// latency grows with the number of tiles, the start tile leaves first
// (best case) and the last tile leaves last (worst case), the TILE-Gx
// barrier beats the TILEPro's, and at 36 tiles the TILEPro barrier lands
// near the paper's 3 us — vastly better than its 47.2 us TMC spin barrier.
func TestFig8BarrierShape(t *testing.T) {
	measure := func(cfg Config) (best, worst vtime.Duration) {
		n := cfg.NPEs
		lefts := make([]vtime.Duration, n)
		// All PEs enter the measured barrier at the same virtual instant,
		// so per-PE latency reflects leaving first vs last.
		start := vtime.Time(vtime.Millisecond)
		runT(t, cfg, func(pe *PE) error {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			pe.clock.Set(start)
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			lefts[pe.MyPE()] = pe.Now().Sub(start)
			return nil
		})
		best, worst = lefts[0], lefts[0]
		for _, d := range lefts {
			if d < best {
				best = d
			}
			if d > worst {
				worst = d
			}
		}
		if lefts[0] != best {
			t.Errorf("start tile should leave first: %v vs best %v", lefts[0], best)
		}
		if lefts[n-1] != worst {
			t.Errorf("last tile should leave last: %v vs worst %v", lefts[n-1], worst)
		}
		return best, worst
	}

	gxBest, gxWorst := measure(gxCfg(36))
	proBest, proWorst := measure(proCfg(36))

	if gxWorst >= proWorst {
		t.Errorf("Gx barrier (%v) should beat Pro (%v)", gxWorst, proWorst)
	}
	if gxBest >= gxWorst || proBest >= proWorst {
		t.Error("best case must beat worst case")
	}
	// Paper: TILEPro64 TSHMEM barrier ~3 us at 36 tiles, far below the
	// 47.2 us TMC spin barrier.
	if us := proWorst.Us(); us < 1.5 || us > 5 {
		t.Errorf("Pro 36-tile barrier = %.2f us, want ~3", us)
	}
	if proWorst >= arch.Pro64().SpinBarrier.Latency(36) {
		t.Error("Pro TSHMEM barrier must vastly outperform the TMC spin barrier")
	}
	// Paper: on the TILE-Gx the TMC spin barrier outperforms the TSHMEM
	// barrier (1.5 us vs the UDN chain).
	if gxWorst <= arch.Gx8036().SpinBarrier.Latency(36) {
		t.Error("on the Gx the TMC spin barrier should win (paper S IV.C.1)")
	}

	// Latency grows with tiles.
	_, w8 := measure(gxCfg(8))
	if w8 >= gxWorst {
		t.Errorf("8-tile barrier (%v) should beat 36-tile (%v)", w8, gxWorst)
	}
}

func TestTMCSpinBarrierBackend(t *testing.T) {
	cfg := gxCfg(16)
	cfg.BarrierAlgo = BarrierAlgoSpin
	lefts := make([]vtime.Duration, 16)
	runT(t, cfg, func(pe *PE) error {
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		start := pe.Now()
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		lefts[pe.MyPE()] = pe.Now().Sub(start)
		return nil
	})
	want := arch.Gx8036().SpinBarrier.Latency(16)
	for i, d := range lefts {
		if d != want {
			t.Errorf("PE %d spin-backed barrier = %v, want %v", i, d, want)
		}
	}
}

func TestActiveSetArithmetic(t *testing.T) {
	as := ActiveSet{Start: 2, LogStride: 1, Size: 4} // PEs 2,4,6,8
	members := []int{2, 4, 6, 8}
	for i, pe := range members {
		if got := as.PE(i); got != pe {
			t.Errorf("PE(%d) = %d, want %d", i, got, pe)
		}
		idx, ok := as.Index(pe)
		if !ok || idx != i {
			t.Errorf("Index(%d) = %d,%v", pe, idx, ok)
		}
		if !as.Contains(pe) {
			t.Errorf("Contains(%d) = false", pe)
		}
	}
	for _, pe := range []int{0, 1, 3, 5, 7, 9, 10} {
		if as.Contains(pe) {
			t.Errorf("Contains(%d) = true", pe)
		}
	}
	if err := as.validate(9); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := as.validate(8); err == nil {
		t.Error("set exceeding NumPEs accepted")
	}
	if err := (ActiveSet{Start: -1, Size: 1}).validate(4); err == nil {
		t.Error("negative start accepted")
	}
	if err := (ActiveSet{Size: 0}).validate(4); err == nil {
		t.Error("empty set accepted")
	}
	if AllPEs(5) != (ActiveSet{0, 0, 5}) {
		t.Error("AllPEs wrong")
	}
}

func TestSubsetBarrier(t *testing.T) {
	// Two disjoint subsets barrier independently; members of one must not
	// need the other.
	const n = 8
	evens := ActiveSet{Start: 0, LogStride: 1, Size: 4}
	odds := ActiveSet{Start: 1, LogStride: 1, Size: 4}
	runT(t, gxCfg(n), func(pe *PE) error {
		set := evens
		if pe.MyPE()%2 == 1 {
			set = odds
		}
		for r := 0; r < 10; r++ {
			if err := pe.Barrier(set); err != nil {
				return err
			}
		}
		if err := pe.Barrier(AllPEs(n)); err != nil {
			return err
		}
		// Calling a barrier on a set we're not in must fail fast.
		other := evens
		if pe.MyPE()%2 == 0 {
			other = odds
		}
		if err := pe.Barrier(other); !errors.Is(err, ErrNotInSet) {
			t.Errorf("PE %d: foreign-set barrier: %v", pe.MyPE(), err)
		}
		return nil
	})
}

func TestStridedSubsetBarrier(t *testing.T) {
	// PEs 1,3,5,7 barrier while the others proceed; then all join.
	const n = 9
	set := ActiveSet{Start: 1, LogStride: 1, Size: 4}
	runT(t, gxCfg(n), func(pe *PE) error {
		if set.Contains(pe.MyPE()) {
			if err := pe.Barrier(set); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	})
}

func TestBarrierManyGenerations(t *testing.T) {
	// Hammer the barrier; clocks must stay aligned across generations.
	const n, rounds = 5, 200
	finals := make([]vtime.Time, n)
	runT(t, gxCfg(n), func(pe *PE) error {
		for r := 0; r < rounds; r++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		finals[pe.MyPE()] = pe.Now()
		return nil
	})
	// After a final barrier, no PE's clock can lag the start tile's release
	// beyond the chain length.
	var min, max vtime.Time
	min = finals[0]
	for _, f := range finals {
		if f < min {
			min = f
		}
		if f > max {
			max = f
		}
	}
	if spread := max.Sub(min); spread > 5*vtime.Microsecond {
		t.Errorf("clock spread after %d barriers = %v, want < 5 us", rounds, spread)
	}
}

// TestBarrierRootRelease checks the evaluated-and-rejected release design:
// correct rendezvous, slower than the chain (the paper's ~2x observation),
// and refused across chips.
func TestBarrierRootRelease(t *testing.T) {
	const n = 12
	var chainW, rootW vtime.Duration
	lefts := make([]vtime.Duration, n)
	runT(t, gxCfg(n), func(pe *PE) error {
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		start := pe.Now()
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		lefts[pe.MyPE()] = pe.Now().Sub(start)
		return nil
	})
	for _, d := range lefts {
		if d > chainW {
			chainW = d
		}
	}
	var maxBefore vtime.Time
	var mu sync.Mutex
	runT(t, gxCfg(n), func(pe *PE) error {
		pe.clock.Advance(vtime.Duration(pe.MyPE()) * vtime.Microsecond)
		mu.Lock()
		if pe.Now() > maxBefore {
			maxBefore = pe.Now()
		}
		mu.Unlock()
		if err := pe.BarrierRootRelease(AllPEs(n)); err != nil {
			return err
		}
		// Nobody may leave before the last arrival.
		if pe.Now() < maxBefore {
			t.Errorf("PE %d left at %v before last arrival %v", pe.MyPE(), pe.Now(), maxBefore)
		}
		// Aligned measurement for the cost comparison.
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		start := pe.Now()
		if err := pe.BarrierRootRelease(AllPEs(n)); err != nil {
			return err
		}
		lefts[pe.MyPE()] = pe.Now().Sub(start)
		return nil
	})
	for _, d := range lefts {
		if d > rootW {
			rootW = d
		}
	}
	if rootW <= chainW {
		t.Errorf("root-release (%v) should be slower than the chain (%v)", rootW, chainW)
	}
	if r := float64(rootW) / float64(chainW); r < 1.4 || r > 2.8 {
		t.Errorf("root-release/chain ratio %.2f, paper observed ~2", r)
	}

	// Cross-chip refusal.
	runT(t, mcCfg(8, 2), func(pe *PE) error {
		if err := pe.BarrierRootRelease(AllPEs(8)); !errors.Is(err, ErrNotSupported) {
			t.Errorf("cross-chip root-release: %v", err)
		}
		return nil
	})
}

// asTagRef is asTag as it was before the per-set hash state was cached:
// FNV-1a over the sixteen little-endian bytes of (Start, LogStride, Size,
// gen), all in one go. Tags are visible in traces, goldens and profile
// exports, so the cached form must produce the same values.
func asTagRef(a ActiveSet, gen uint32) uint32 {
	var b [16]byte
	put32 := func(i int, v uint32) {
		b[i], b[i+1], b[i+2], b[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	put32(0, uint32(a.Start))
	put32(4, uint32(a.LogStride))
	put32(8, uint32(a.Size))
	put32(12, gen)
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range b {
		h ^= uint32(c)
		h *= prime32
	}
	return h
}

// TestAsTagMatchesReference compares the cached-prefix tag with the
// one-shot hash over random sets x generations, through both forms the
// library uses: asTag and a setGen counting up from a random generation.
func TestAsTagMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		as := ActiveSet{Start: rng.Intn(1 << 20), LogStride: rng.Intn(31), Size: 1 + rng.Intn(1<<20)}
		if i%4 == 0 {
			as = AllPEs(as.Size)
		}
		g := setGen{gen: rng.Uint32(), prefix: asTagPrefix(as)}
		if i%8 == 0 {
			g.gen = ^uint32(0) - 1 // wrap inside the loop below
		}
		for k := 0; k < 4; k++ {
			gen, tag := g.next()
			if want := asTagRef(as, gen); tag != want || asTag(as, gen) != want {
				t.Fatalf("%v gen %d: setGen tag %#x, asTag %#x, reference %#x", as, gen, tag, asTag(as, gen), want)
			}
		}
	}
}
