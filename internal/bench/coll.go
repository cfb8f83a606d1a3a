package bench

import (
	"fmt"

	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/vtime"
)

func init() {
	register("fig9", "Push-based broadcast aggregate bandwidth", fig9)
	register("fig10", "Pull-based broadcast aggregate bandwidth", fig10)
	register("fig11", "Fast collection (fcollect) aggregate bandwidth", fig11)
	register("fig12", "Integer summation reduction aggregate bandwidth", fig12)
	register("fig10b", "Binomial broadcast aggregate bandwidth (future-work ablation)", fig10b)
	register("fig11b", "Recursive-doubling fcollect aggregate bandwidth (future-work ablation)", fig11b)
	register("fig12b", "Recursive-doubling reduction aggregate bandwidth (future-work ablation)", fig12b)
	register("fig8b", "barrier_all backed by the TMC spin barrier (open-issue ablation)", fig8b)
}

// collOp runs one collective over int32 payloads and reports the worst-case
// per-PE virtual elapsed time.
type collOp func(pe *core.PE, target, source core.Ref[int32], nelems int, as core.ActiveSet, ps core.PSync) error

// measureCollective runs op once on n PEs with nelems int32 per PE and
// returns the makespan (max per-PE elapsed, aligned start).
func measureCollective(opt Options, chip *arch.Chip, n, nelems, targetElems int, op collOp) (vtime.Duration, error) {
	heap := int64(targetElems+nelems)*4 + 1<<20
	elapsed := make([]vtime.Duration, n)
	cfg := core.Config{Chip: chip, NPEs: n, HeapPerPE: heap}
	_, err := observedRun(opt, cfg, func(pe *core.PE) error {
		target, err := core.Malloc[int32](pe, targetElems)
		if err != nil {
			return err
		}
		source, err := core.Malloc[int32](pe, nelems)
		if err != nil {
			return err
		}
		ps, err := core.Malloc[int64](pe, core.CollectSyncSize)
		if err != nil {
			return err
		}
		src := core.MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE() + i)
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		start := pe.Now()
		if err := op(pe, target, source, nelems, core.AllPEs(n), ps); err != nil {
			return err
		}
		elapsed[pe.MyPE()] = pe.Now().Sub(start)
		return nil
	})
	return maxDur(elapsed), err
}

func maxDur(ds []vtime.Duration) vtime.Duration {
	var m vtime.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// bcastSweep builds per-tile-count bandwidth-vs-size series for a broadcast
// variant. Aggregate bandwidth is the paper's definition: the sum of each
// participating tile's bandwidth, n*M/T.
func bcastSweep(title, id string, op collOp, note string) func(Options) (Experiment, error) {
	return func(opt Options) (Experiment, error) {
		e := Experiment{ID: id, Title: title, XLabel: "bytes/PE", YLabel: "aggregate MB/s"}
		sizes := powersOfTwo(1<<10, 2<<20) // per-transfer bytes
		tileCounts := []int{2, 8, 16, 24, 29, 36}
		for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
			peak, peakTiles := 0.0, 0
			for _, n := range tileCounts {
				s := Series{Label: fmt.Sprintf("%s %dT", shortName(chip), n)}
				for _, size := range sizes {
					nelems := int(size / 4)
					t, err := measureCollective(opt, chip, n, nelems, nelems, op)
					if err != nil {
						return e, err
					}
					// Receivers-only aggregate: (n-1) tiles obtain M bytes.
					agg := float64(n-1) * float64(size) / t.Seconds() / 1e6
					s.X = append(s.X, float64(size))
					s.Y = append(s.Y, agg)
					if agg > peak {
						peak, peakTiles = agg, n
					}
				}
				e.Series = append(e.Series, s)
			}
			e.Notes = append(e.Notes, fmt.Sprintf("%s peak aggregate: %.1f GB/s at %d tiles",
				chip.Name, peak/1000, peakTiles))
		}
		e.Notes = append(e.Notes, note)
		return e, nil
	}
}

func shortName(c *arch.Chip) string {
	if c.Family == arch.TILEGx {
		return "Gx36"
	}
	return "Pro64"
}

func fig9(o Options) (Experiment, error) {
	return bcastSweep("Push-based broadcast aggregate bandwidth", "fig9",
		func(pe *core.PE, t, s core.Ref[int32], n int, as core.ActiveSet, ps core.PSync) error {
			return core.BroadcastPush(pe, t, s, n, 0, as, ps)
		},
		"paper: aggregate does not grow with tiles (the root serializes all puts)")(o)
}

func fig10(o Options) (Experiment, error) {
	return bcastSweep("Pull-based broadcast aggregate bandwidth", "fig10",
		func(pe *core.PE, t, s core.Ref[int32], n int, as core.ActiveSet, ps core.PSync) error {
			return core.BroadcastPull(pe, t, s, n, 0, as, ps)
		},
		"paper: Gx36 reaches 46 GB/s at 29 tiles and 37 GB/s at 36; Pro64 peaks at 5.1 GB/s at 36")(o)
}

func fig10b(o Options) (Experiment, error) {
	return bcastSweep("Binomial broadcast aggregate bandwidth", "fig10b",
		func(pe *core.PE, t, s core.Ref[int32], n int, as core.ActiveSet, ps core.PSync) error {
			return core.BroadcastBinomial(pe, t, s, n, 0, as, ps)
		},
		"the paper's future-work algorithm: log-depth forwarding; compare against fig9/fig10")(o)
}

// fig11: fcollect. Aggregate counts the concatenated result every tile
// receives (n*M per tile), which is what makes the total data quadratic in
// tiles and shifts the peaks toward smaller sizes as tiles grow.
func fig11(opt Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig11",
		Title:  "Fast collection aggregate bandwidth",
		XLabel: "bytes/PE",
		YLabel: "aggregate MB/s",
	}
	sizes := powersOfTwo(256, 64<<10)
	tileCounts := []int{2, 8, 16, 24, 36}
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		peakAt := map[int]float64{}
		for _, n := range tileCounts {
			s := Series{Label: fmt.Sprintf("%s %dT", shortName(chip), n)}
			bestAgg, bestSize := 0.0, 0.0
			for _, size := range sizes {
				nelems := int(size / 4)
				t, err := measureCollective(opt, chip, n, nelems, nelems*n,
					func(pe *core.PE, tg, sc core.Ref[int32], ne int, as core.ActiveSet, ps core.PSync) error {
						return core.FCollect(pe, tg, sc, ne, as, ps)
					})
				if err != nil {
					return e, err
				}
				agg := float64(n) * float64(n) * float64(size) / t.Seconds() / 1e6
				s.X = append(s.X, float64(size))
				s.Y = append(s.Y, agg)
				if agg > bestAgg {
					bestAgg, bestSize = agg, float64(size)
				}
			}
			peakAt[n] = bestSize
			e.Series = append(e.Series, s)
		}
		e.Notes = append(e.Notes, fmt.Sprintf("%s: peak-bandwidth transfer size by tiles: %v",
			chip.Name, peakAt))
	}
	e.Notes = append(e.Notes,
		"paper: stage 2 (root broadcasts n*M) scales quadratically, so peaks shift toward smaller",
		"sizes as tiles increase — compare the peak-size map above against Figure 9's fixed peaks")
	return e, nil
}

// fig11b: the recursive-doubling allgather against the naive fcollect, at
// power-of-two tile counts.
func fig11b(opt Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig11b",
		Title:  "fcollect: naive vs recursive doubling (TILE-Gx36)",
		XLabel: "bytes/PE",
		YLabel: "aggregate MB/s",
	}
	gx := arch.Gx8036()
	for _, algo := range []struct {
		label string
		op    collOp
	}{
		{"naive 32T", func(pe *core.PE, tg, sc core.Ref[int32], ne int, as core.ActiveSet, ps core.PSync) error {
			return core.FCollect(pe, tg, sc, ne, as, ps)
		}},
		{"recursive-doubling 32T", func(pe *core.PE, tg, sc core.Ref[int32], ne int, as core.ActiveSet, ps core.PSync) error {
			return core.FCollectRD(pe, tg, sc, ne, as, ps)
		}},
	} {
		s := Series{Label: algo.label}
		for _, size := range powersOfTwo(256, 64<<10) {
			nelems := int(size / 4)
			t, err := measureCollective(opt, gx, 32, nelems, nelems*32, algo.op)
			if err != nil {
				return e, err
			}
			agg := float64(32) * float64(32) * float64(size) / t.Seconds() / 1e6
			s.X = append(s.X, float64(size))
			s.Y = append(s.Y, agg)
		}
		e.Series = append(e.Series, s)
	}
	e.Notes = append(e.Notes,
		"log-depth exchange removes the root bottleneck of the naive gather-then-broadcast design")
	return e, nil
}

// fig12: naive integer sum reduction; aggregate counts each tile's M-byte
// contribution.
func fig12(opt Options) (Experiment, error) {
	return reduceSweep(opt, "fig12", "Integer summation reduction aggregate bandwidth (naive)",
		func(pe *core.PE, t, s core.Ref[int32], n int, as core.ActiveSet, w core.Ref[int32], ps core.PSync) error {
			return core.SumToAllNaive(pe, t, s, n, as, w, ps)
		},
		false,
		"paper: serialization at the root keeps aggregate flat vs tiles, peaking ~150 MB/s at 36 (Gx)")
}

func fig12b(opt Options) (Experiment, error) {
	return reduceSweep(opt, "fig12b", "Integer summation reduction aggregate bandwidth (recursive doubling)",
		func(pe *core.PE, t, s core.Ref[int32], n int, as core.ActiveSet, w core.Ref[int32], ps core.PSync) error {
			return core.SumToAllRD(pe, t, s, n, as, w, ps)
		},
		true,
		"future-work ablation: log-depth exchange scales with tiles, unlike the naive root-serial design")
}

type reduceOp func(pe *core.PE, t, s core.Ref[int32], n int, as core.ActiveSet, w core.Ref[int32], ps core.PSync) error

func reduceSweep(opt Options, id, title string, op reduceOp, pow2Only bool, note string) (Experiment, error) {
	e := Experiment{ID: id, Title: title, XLabel: "bytes/PE", YLabel: "aggregate MB/s"}
	sizes := powersOfTwo(1<<10, 512<<10)
	tileCounts := []int{2, 8, 16, 24, 36}
	if pow2Only {
		tileCounts = []int{2, 8, 16, 32}
	}
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		peak := 0.0
		for _, n := range tileCounts {
			s := Series{Label: fmt.Sprintf("%s %dT", shortName(chip), n)}
			for _, size := range sizes {
				nelems := int(size / 4)
				wrk := nelems/2 + 1
				if wrk < core.ReduceMinWrkSize {
					wrk = core.ReduceMinWrkSize
				}
				if pow2Only {
					wrk = nelems * 6 // recursive doubling: per-round buffers
				}
				t, err := measureReduce(opt, chip, n, nelems, wrk, op)
				if err != nil {
					return e, err
				}
				agg := float64(n) * float64(size) / t.Seconds() / 1e6
				s.X = append(s.X, float64(size))
				s.Y = append(s.Y, agg)
				if n == 36 || (pow2Only && n == 32) {
					if agg > peak {
						peak = agg
					}
				}
			}
			e.Series = append(e.Series, s)
		}
		e.Notes = append(e.Notes, fmt.Sprintf("%s peak aggregate at max tiles: %.0f MB/s", chip.Name, peak))
	}
	e.Notes = append(e.Notes, note)
	return e, nil
}

func measureReduce(opt Options, chip *arch.Chip, n, nelems, wrk int, op reduceOp) (vtime.Duration, error) {
	heap := int64(2*nelems+wrk)*4 + 1<<20
	elapsed := make([]vtime.Duration, n)
	cfg := core.Config{Chip: chip, NPEs: n, HeapPerPE: heap}
	_, err := observedRun(opt, cfg, func(pe *core.PE) error {
		target, err := core.Malloc[int32](pe, nelems)
		if err != nil {
			return err
		}
		source, err := core.Malloc[int32](pe, nelems)
		if err != nil {
			return err
		}
		pwrk, err := core.Malloc[int32](pe, wrk)
		if err != nil {
			return err
		}
		ps, err := core.Malloc[int64](pe, core.ReduceSyncSize)
		if err != nil {
			return err
		}
		src := core.MustLocal(pe, source)
		for i := range src {
			src[i] = int32(pe.MyPE() + i)
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		start := pe.Now()
		if err := op(pe, target, source, nelems, core.AllPEs(n), pwrk, ps); err != nil {
			return err
		}
		elapsed[pe.MyPE()] = pe.Now().Sub(start)
		return nil
	})
	return maxDur(elapsed), err
}

// fig8b compares BarrierAll backed by the UDN chain against the TMC spin
// barrier on the TILE-Gx — the adoption the paper proposes.
func fig8b(opt Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig8b",
		Title:  "barrier_all: UDN chain vs TMC spin backend (TILE-Gx36)",
		XLabel: "tiles",
		YLabel: "us",
	}
	gx := arch.Gx8036()
	var udnS, spinS Series
	udnS.Label = "UDN chain (worst)"
	spinS.Label = "TMC spin backend"
	for _, n := range []int{2, 4, 8, 16, 24, 32, 36} {
		_, w, err := measureBarrierAlgo(opt, gx, n, core.BarrierAlgoLinear)
		if err != nil {
			return e, err
		}
		_, ws, err := measureBarrierAlgo(opt, gx, n, core.BarrierAlgoSpin)
		if err != nil {
			return e, err
		}
		udnS.X = append(udnS.X, float64(n))
		udnS.Y = append(udnS.Y, w.Us())
		spinS.X = append(spinS.X, float64(n))
		spinS.Y = append(spinS.Y, ws.Us())
	}
	e.Series = append(e.Series, udnS, spinS)
	e.Notes = append(e.Notes, "config: tshmem.Config{BarrierAlgo: tshmem.BarrierAlgoSpin}")
	return e, nil
}
