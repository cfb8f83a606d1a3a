package bench

import (
	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/vtime"
)

func init() {
	register("fig8", "Latencies of TSHMEM barrier (best/worst) vs TMC spin barrier", fig8)
	register("fig8c", "Rejected root-broadcast release barrier vs the linear chain", fig8c)
}

// fig8c compares the linear wait+release chain against the design the
// paper evaluated and rejected: the start tile broadcasting the release
// with standalone sends ("latencies were two times slower", S IV.C.1).
func fig8c(opt Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig8c",
		Title:  "Barrier release strategies on the TILE-Gx36",
		XLabel: "tiles",
		YLabel: "us (worst case)",
	}
	gx := arch.Gx8036()
	chain := Series{Label: "linear chain release"}
	rootRel := Series{Label: "root-broadcast release"}
	for _, n := range []int{4, 8, 16, 24, 32, 36} {
		_, w, err := measureBarrierAlgo(opt, gx, n, core.BarrierAlgoLinear)
		if err != nil {
			return e, err
		}
		wr, err := measureRootReleaseBarrier(opt, gx, n)
		if err != nil {
			return e, err
		}
		chain.X = append(chain.X, float64(n))
		chain.Y = append(chain.Y, w.Us())
		rootRel.X = append(rootRel.X, float64(n))
		rootRel.Y = append(rootRel.Y, wr.Us())
	}
	e.Series = append(e.Series, chain, rootRel)
	e.Notes = append(e.Notes,
		"paper: the root-broadcast variant measured ~2x slower, so TSHMEM adopted the chain;",
		"here the standalone per-member send calls serialize at the root and reproduce the gap")
	return e, nil
}

func measureRootReleaseBarrier(opt Options, chip *arch.Chip, n int) (vtime.Duration, error) {
	lefts := make([]vtime.Duration, n)
	cfg := core.Config{Chip: chip, NPEs: n, HeapPerPE: 64 << 10}
	_, err := observedRun(opt, cfg, func(pe *core.PE) error {
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		start := pe.Now()
		if err := pe.BarrierRootRelease(core.AllPEs(n)); err != nil {
			return err
		}
		lefts[pe.MyPE()] = pe.Now().Sub(start)
		return nil
	})
	return maxDur(lefts), err
}

// fig8 sweeps the TSHMEM UDN barrier across tile counts on both chips,
// with the TILE-Gx TMC spin barrier for comparison (Figure 8).
func fig8(opt Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig8",
		Title:  "TSHMEM barrier latency vs tiles",
		XLabel: "tiles",
		YLabel: "us",
	}
	tiles := []int{2, 4, 8, 12, 16, 20, 24, 28, 32, 36}
	gx, pro := arch.Gx8036(), arch.Pro64()

	var gxBest, gxWorst, proWorst, spin Series
	gxBest.Label = "Gx36 best-case"
	gxWorst.Label = "Gx36 worst-case"
	proWorst.Label = "Pro64 worst-case"
	spin.Label = "Gx36 TMC spin"
	for _, n := range tiles {
		b, w, err := measureBarrierAlgo(opt, gx, n, core.BarrierAlgoLinear)
		if err != nil {
			return e, err
		}
		gxBest.X = append(gxBest.X, float64(n))
		gxBest.Y = append(gxBest.Y, b.Us())
		gxWorst.X = append(gxWorst.X, float64(n))
		gxWorst.Y = append(gxWorst.Y, w.Us())

		_, wp, err := measureBarrierAlgo(opt, pro, n, core.BarrierAlgoLinear)
		if err != nil {
			return e, err
		}
		proWorst.X = append(proWorst.X, float64(n))
		proWorst.Y = append(proWorst.Y, wp.Us())

		spin.X = append(spin.X, float64(n))
		spin.Y = append(spin.Y, gx.SpinBarrier.Latency(n).Us())
	}
	e.Series = append(e.Series, gxBest, gxWorst, proWorst, spin)
	e.Notes = append(e.Notes,
		"paper: Pro64 TSHMEM barrier ~3 us at 36 tiles (vs 47.2 us TMC spin);",
		"on the Gx the TMC spin barrier (1.5 us) outperforms the UDN chain, motivating the",
		"BarrierAlgoSpin config option (the paper's open issue)")
	return e, nil
}
