package bench

import (
	"fmt"

	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/tmc"
	"tshmem/internal/vtime"
)

func init() {
	register("fig3", "Effective bandwidth for shared-memory copy operations", fig3)
	register("fig4", "Average one-way latencies on UDN", fig4)
	register("fig5", "Latencies of TMC spin and sync barriers", fig5)
}

// fig3 microbenchmarks memcpy between private heap memory and TMC common
// memory across transfer sizes (Section III.B): a real copy through a
// common-memory segment, timed by the memory model.
func fig3(Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig3",
		Title:  "Shared-memory memcpy effective bandwidth vs transfer size",
		XLabel: "bytes",
		YLabel: "MB/s",
	}
	sizes := powersOfTwo(8, 64<<20)
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		model := cache.NewModel(chip)
		cm, err := tmc.NewCommonMemory(65 << 20)
		if err != nil {
			return e, err
		}
		off, err := cm.Map(64<<20, 4096)
		if err != nil {
			return e, err
		}
		private := make([]byte, 64<<20)
		var shared, private2 Series
		shared.Label = chip.Name + " shared"
		private2.Label = chip.Name + " private"
		for _, size := range sizes {
			dst, err := cm.Slice(off, size)
			if err != nil {
				return e, err
			}
			// Real copy into common memory; modeled cost.
			var clock vtime.Clock
			copy(dst, private[:size])
			clock.Advance(model.CopyCost(size, cache.SharedAny, 1))
			bw := float64(size) / clock.Now().Seconds() / 1e6
			shared.X = append(shared.X, float64(size))
			shared.Y = append(shared.Y, bw)

			var c2 vtime.Clock
			c2.Advance(model.CopyCost(size, cache.PrivateToPrivate, 1))
			private2.X = append(private2.X, float64(size))
			private2.Y = append(private2.Y, float64(size)/c2.Now().Seconds()/1e6)
		}
		e.Series = append(e.Series, shared, private2)
	}
	e.Notes = append(e.Notes,
		"paper anchors: Gx ~3100 MB/s in L1d, 1900-2700 in L2, ~1000 in DDC, 320 floor;",
		"Pro ~500 MB/s through caches, 370 floor (Pro beats Gx memory-to-memory)")
	return e, nil
}

// fig4 averages the Table III ping-pong latencies per distance class.
func fig4(Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig4",
		Title:  "Average one-way UDN latency by tile distance",
		XLabel: "class",
		YLabel: "ns",
	}
	classes := []string{"Neighbors", "Side-to-Side", "Corners"}
	classX := map[string]float64{"Neighbors": 1, "Side-to-Side": 2, "Corners": 3}
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		sums := map[string]float64{}
		counts := map[string]int{}
		for _, p := range tableIIIPairs() {
			lat, err := pingPongOneWay(chip, p.sender, p.receiver)
			if err != nil {
				return e, err
			}
			sums[p.class] += lat.Ns()
			counts[p.class]++
		}
		s := Series{Label: chip.Name}
		for _, c := range classes {
			s.X = append(s.X, classX[c])
			s.Y = append(s.Y, sums[c]/float64(counts[c]))
		}
		e.Series = append(e.Series, s)
	}
	e.Notes = append(e.Notes,
		"x: 1=neighbors (1 hop), 2=side-to-side (5 hops), 3=corners (10 hops)",
		"TILE-Gx is slower at short distance (64-bit fabric setup-and-teardown) and faster per hop")
	return e, nil
}

// fig5 measures the TMC spin and sync barriers across 2..36 tiles with a
// real goroutine rendezvous per data point.
func fig5(Options) (Experiment, error) {
	e := Experiment{
		ID:     "fig5",
		Title:  "TMC spin and sync barrier latency vs participating tiles",
		XLabel: "tiles",
		YLabel: "us",
	}
	tiles := []int{2, 4, 8, 12, 16, 20, 24, 28, 32, 36}
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		for _, kind := range []tmc.BarrierKind{tmc.SpinBarrier, tmc.SyncBarrier} {
			s := Series{Label: fmt.Sprintf("%s %s", chip.Name, kind)}
			for _, n := range tiles {
				lat, err := measureTMCBarrier(chip, kind, n)
				if err != nil {
					return e, err
				}
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, lat.Us())
			}
			e.Series = append(e.Series, s)
		}
	}
	e.Notes = append(e.Notes,
		"paper anchors at 36 tiles: spin 1.5 us (Gx) / 47.2 us (Pro); sync 321 us (Gx) / 786 us (Pro)")
	return e, nil
}

func measureTMCBarrier(chip *arch.Chip, kind tmc.BarrierKind, n int) (vtime.Duration, error) {
	b, err := tmc.NewBarrier(chip, kind, n)
	if err != nil {
		return 0, err
	}
	// Every participant arrives at time 0; the last arrival completes the
	// rendezvous and reports the release all of them leave at.
	for {
		if _, rel, done := b.Arrive(0); done {
			return vtime.Duration(rel), nil
		}
	}
}
