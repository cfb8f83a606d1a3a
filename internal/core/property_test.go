package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tshmem/internal/arch"
)

// Property-based OpenSHMEM 1.0 conformance: seeded randomized op
// sequences, replayed identically on every PE (the sequence derives from
// a shared seed, so collective calls stay symmetric), asserting the
// specification's observable semantics against serial references:
//
//   - put-quiet-get round-trips: data put to a peer and fenced is exactly
//     what a get returns, and exactly what the owner observes;
//   - reductions (sum/max/xor) equal a serial fold over every PE's
//     contribution;
//   - collect/fcollect concatenate contributions in active-set order at
//     exact offsets.
//
// The cases sweep PE counts {2, 4, odd, full-grid} on both chip models
// (TILE-Gx8036 and TILEPro64), the paper's two platforms.

// propElems bounds per-PE transfer sizes; small enough for odd-grid runs
// on the slow chip model, large enough to cross cache-line granularity.
const propElems = 64

// propVal is the deterministic element value PE pe contributes at
// position i of round r under the given seed; the serial references
// recompute it instead of communicating.
func propVal(seed int64, pe, r, i int) int64 {
	return seed*1_000_003 + int64(pe)*10_007 + int64(r)*101 + int64(i)
}

// propBody replays rounds of randomized operations drawn from a shared
// stream. Every PE constructs the identical sequence of (op, size,
// stride) choices, so collectives and barriers are symmetric; only the
// data differs per PE (via propVal).
func propBody(seed int64, rounds int) func(pe *PE) error {
	return func(pe *PE) error {
		n := pe.NumPEs()
		me := pe.MyPE()
		as := AllPEs(n)
		rng := rand.New(rand.NewSource(seed))

		src, err := Malloc[int64](pe, propElems)
		if err != nil {
			return err
		}
		dst, err := Malloc[int64](pe, propElems)
		if err != nil {
			return err
		}
		red, err := Malloc[int64](pe, propElems)
		if err != nil {
			return err
		}
		gather, err := Malloc[int64](pe, propElems*n)
		if err != nil {
			return err
		}
		pwrk, err := Malloc[int64](pe, propElems*8+ReduceMinWrkSize)
		if err != nil {
			return err
		}
		ps, err := Malloc[int64](pe, CollectSyncSize)
		if err != nil {
			return err
		}

		for r := 0; r < rounds; r++ {
			nelems := 1 + rng.Intn(propElems)
			stride := 1 + rng.Intn(n-1) // peer distance, nonzero
			op := rng.Intn(4)

			lv := MustLocal(pe, src)
			for i := 0; i < nelems; i++ {
				lv[i] = propVal(seed, me, r, i)
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}

			switch op {
			case 0:
				// Put-quiet-get round-trip: put to dst on the peer, fence,
				// barrier, then (a) the owner checks what landed and (b) the
				// writer gets it back and compares with what it sent.
				to := (me + stride) % n
				from := (me - stride + n) % n
				if err := Put(pe, dst, src, nelems, to); err != nil {
					return err
				}
				pe.Quiet()
				if err := pe.BarrierAll(); err != nil {
					return err
				}
				mine := MustLocal(pe, dst)
				for i := 0; i < nelems; i++ {
					if want := propVal(seed, from, r, i); mine[i] != want {
						return fmt.Errorf("round %d: put landed dst[%d] = %d on PE %d, want %d (from PE %d)",
							r, i, mine[i], me, want, from)
					}
				}
				back := make([]int64, nelems)
				if err := GetSlice(pe, back, dst.Slice(0, nelems), to); err != nil {
					return err
				}
				for i := 0; i < nelems; i++ {
					if want := propVal(seed, me, r, i); back[i] != want {
						return fmt.Errorf("round %d: get returned dst[%d] = %d from PE %d, want %d",
							r, i, back[i], to, want)
					}
				}
				// The target is rewritten next round; barrier before reuse.
				if err := pe.BarrierAll(); err != nil {
					return err
				}

			case 1:
				// Reduction vs serial fold.
				which := rng.Intn(3)
				var err error
				switch which {
				case 0:
					err = SumToAll(pe, red, src, nelems, as, pwrk, ps)
				case 1:
					err = MaxToAll(pe, red, src, nelems, as, pwrk, ps)
				default:
					err = XorToAll(pe, red, src, nelems, as, pwrk, ps)
				}
				if err != nil {
					return err
				}
				got := MustLocal(pe, red)
				for i := 0; i < nelems; i++ {
					var want int64
					for p := 0; p < n; p++ {
						v := propVal(seed, p, r, i)
						switch which {
						case 0:
							want += v
						case 1:
							if p == 0 || v > want {
								want = v
							}
						default:
							want ^= v
						}
					}
					if got[i] != want {
						return fmt.Errorf("round %d: reduce(kind %d)[%d] = %d on PE %d, want %d",
							r, which, i, got[i], me, want)
					}
				}

			case 2:
				// FCollect: fixed-size concatenation in active-set order.
				if err := FCollect(pe, gather, src, nelems, as, ps); err != nil {
					return err
				}
				got := MustLocal(pe, gather)
				for p := 0; p < n; p++ {
					for i := 0; i < nelems; i++ {
						if want := propVal(seed, as.PE(p), r, i); got[p*nelems+i] != want {
							return fmt.Errorf("round %d: fcollect[%d] = %d on PE %d, want %d (PE %d elem %d)",
								r, p*nelems+i, got[p*nelems+i], me, want, as.PE(p), i)
						}
					}
				}

			default:
				// Collect: per-PE contribution sizes drawn from the shared
				// stream, so every PE knows the full layout; verify each
				// block lands at the exact prefix-sum offset.
				counts := make([]int, n)
				total := 0
				for p := 0; p < n; p++ {
					counts[p] = 1 + rng.Intn(propElems/4)
					total += counts[p]
				}
				if total > propElems*n {
					return fmt.Errorf("round %d: collect layout overflows target", r)
				}
				if err := Collect(pe, gather, src, counts[me], as, ps); err != nil {
					return err
				}
				got := MustLocal(pe, gather)
				off := 0
				for p := 0; p < n; p++ {
					for i := 0; i < counts[p]; i++ {
						if want := propVal(seed, as.PE(p), r, i); got[off+i] != want {
							return fmt.Errorf("round %d: collect[%d] = %d on PE %d, want %d (PE %d elem %d)",
								r, off+i, got[off+i], me, want, as.PE(p), i)
						}
					}
					off += counts[p]
				}
			}

			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestPropertyConformance sweeps the seeded op-sequence program over PE
// counts {2, 4, odd, full-grid} on both chip models. Any semantic
// violation reports the exact round, op, element, and PEs involved.
func TestPropertyConformance(t *testing.T) {
	chips := []struct {
		chip *arch.Chip
		npes []int
	}{
		{arch.Gx8036(), []int{2, 4, 5, 36}},
		{arch.Pro64(), []int{2, 4, 5, 16}},
		// Epiphany: scratchpad memory model + TESTSET-emulated fetch-ops.
		{arch.EpiphanyIII(), []int{2, 5, 16}},
		// Non-square synthetic grid: XY routes bend at asymmetric
		// coordinates, and 5 PEs leaves a ragged area.
		{arch.Synthetic(8, 3), []int{2, 5, 24}},
	}
	for _, c := range chips {
		for _, n := range c.npes {
			for _, seed := range []int64{1, 7} {
				name := fmt.Sprintf("%s/n%d/seed%d", c.chip.Name, n, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					rounds := 6
					if n >= 16 {
						rounds = 3 // bigger grids: fewer rounds, same coverage
					}
					cfg := Config{Chip: c.chip, NPEs: n, HeapPerPE: (propElems*int64(n) + 4*propElems + 1024) * 16}
					if _, err := Run(cfg, propBody(seed, rounds)); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestPropertyConformanceNewFamilies re-runs a seeded sequence on the
// chips added after the sweep above was first written — Epiphany-III
// (scratchpad, emulated RMW) and a non-square synthetic grid — with the
// sanitizer on, requiring a clean diagnostic stream.
func TestPropertyConformanceNewFamilies(t *testing.T) {
	for _, chip := range []*arch.Chip{arch.EpiphanyIII(), arch.Synthetic(8, 3)} {
		t.Run(chip.Name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				Chip: chip, NPEs: 8, Sanitize: true,
				HeapPerPE: (propElems*8 + 4*propElems + 1024) * 16,
			}
			rep, err := Run(cfg, propBody(5, 4))
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Diagnostics) != 0 {
				t.Fatalf("sanitizer diagnostics on %s: %v", chip.Name, rep.Diagnostics)
			}
		})
	}
}

// TestPropertyConformanceAlgorithms re-runs a sequence under the
// non-default collective algorithms (recursive-doubling reduction,
// binomial broadcast selection plumbing) on a power-of-two grid, where
// the algorithm switch actually changes the communication pattern.
func TestPropertyConformanceAlgorithms(t *testing.T) {
	cfg := Config{
		Chip: arch.Gx8036(), NPEs: 4,
		HeapPerPE: (propElems*4 + 4*propElems + 1024) * 16,
		Reduce:    RecursiveDoubling,
		Bcast:     BinomialBcast,
	}
	if _, err := Run(cfg, propBody(3, 6)); err != nil {
		t.Fatal(err)
	}
}
