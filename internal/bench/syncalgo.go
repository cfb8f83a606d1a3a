package bench

import (
	"fmt"
	"strings"

	"tshmem/internal/arch"
	"tshmem/internal/core"
	"tshmem/internal/vtime"
)

// The synchronization-algorithm sweep (tshmem-bench -sweep-algos;
// docs/SYNC.md). It is deliberately NOT registered as an experiment or a
// probe: the experiment registry feeds the figure suite and the probe
// registry feeds BENCH_baseline.json, and both must stay byte-identical
// while the sweep exists. The sweep runs every barrier algorithm across
// PE counts on both chips, every lock algorithm uncontended and
// contended, and renders crossover tables plus a slowdown heatmap.

// sweepPEs lists the PE counts swept per chip (bounded by the tile
// count: 36 on the TILE-Gx8036, 64 on the TILEPro64).
func sweepPEs(chip *arch.Chip) []int {
	if chip.Tiles >= 64 {
		return []int{2, 4, 8, 16, 32, 64}
	}
	return []int{2, 4, 8, 16, 24, 36}
}

// measureBarrierAlgo measures one barrier_all with all PEs entering at the
// same virtual instant under the given algorithm, reporting the earliest and
// latest departures — for the linear chain the best case (the start tile)
// and the worst case (the last tile of the chain).
func measureBarrierAlgo(opt Options, chip *arch.Chip, n int, algo core.BarrierAlgo) (best, worst vtime.Duration, err error) {
	lefts := make([]vtime.Duration, n)
	cfg := core.Config{Chip: chip, NPEs: n, HeapPerPE: 64 << 10, BarrierAlgo: algo}
	_, err = observedRun(opt, cfg, func(pe *core.PE) error {
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
	if err != nil {
		return 0, 0, err
	}
	best, worst = lefts[0], lefts[0]
	for _, d := range lefts {
		if d < best {
			best = d
		}
		if d > worst {
			worst = d
		}
	}
	return best, worst, nil
}

// measureLockUncontended measures one remote acquire+release round by PE 1
// (the lock's home is PE 0, so this is the common remote-holder case).
func measureLockUncontended(opt Options, chip *arch.Chip, algo core.LockAlgo) (vtime.Duration, error) {
	var d vtime.Duration
	cfg := core.Config{Chip: chip, NPEs: 2, HeapPerPE: 64 << 10, LockAlgo: algo}
	_, err := observedRun(opt, cfg, func(pe *core.PE) error {
		lk, err := core.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		if pe.MyPE() == 1 {
			start := pe.Now()
			if err := pe.SetLock(lk); err != nil {
				return err
			}
			if err := pe.ClearLock(lk); err != nil {
				return err
			}
			d = pe.Now().Sub(start)
		}
		return pe.BarrierAll()
	})
	return d, err
}

// measureLockContended runs n PEs each performing iters lock-guarded
// increments of a host-side counter and reports the virtual makespan.
// The critical section charges a modeled compute burst. The calendar
// switches PEs only where one parks, and nothing in this loop parks while
// the lock is free, so the contenders take the lock in (clock, rank) turns
// — each PE's critical sections back to back — and the release-visibility
// rule serializes the turns in virtual time: the makespan is the
// serialized hold time plus each algorithm's acquire and release traffic,
// bit-reproducible, and the queueing paths (CAS retry, ticket hub wait,
// MCS handoff) are not on it. internal/core's lock tests drive those.
// Mutual exclusion is verified exactly.
func measureLockContended(opt Options, chip *arch.Chip, algo core.LockAlgo, n, iters int) (vtime.Duration, error) {
	var counter int64 // guarded by the simulated lock
	cfg := core.Config{Chip: chip, NPEs: n, HeapPerPE: 64 << 10, LockAlgo: algo}
	rep, err := observedRun(opt, cfg, func(pe *core.PE) error {
		lk, err := core.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		if err := pe.AlignClocks(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := pe.SetLock(lk); err != nil {
				return err
			}
			counter++
			pe.ComputeIntOps(2000) // hold the lock for a modeled ~2us burst
			if err := pe.ClearLock(lk); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	})
	if err != nil {
		return 0, err
	}
	if got, want := counter, int64(n*iters); got != want {
		return 0, fmt.Errorf("bench: %s lock lost updates: counter %d, want %d", algo, got, want)
	}
	return rep.MaxTime, nil
}

// shade maps a slowdown factor against the per-column winner to a
// heatmap cell, mirroring the shading ramp of the mesh utilization
// renderer (denser glyph = hotter).
func shade(slow float64) string {
	switch {
	case slow < 1.01:
		return "="
	case slow < 1.3:
		return "."
	case slow < 2:
		return "+"
	case slow < 4:
		return "*"
	default:
		return "#"
	}
}

// crossoverSummary folds the per-PE-count winners into range notation,
// e.g. "linear wins n<=4; dissemination wins n>=8".
func crossoverSummary(pes []int, winners []string) string {
	var parts []string
	for i := 0; i < len(pes); {
		j := i
		for j+1 < len(winners) && winners[j+1] == winners[i] {
			j++
		}
		switch {
		case i == 0 && j == len(pes)-1:
			parts = append(parts, fmt.Sprintf("%s wins at every swept n", winners[i]))
		case i == 0:
			parts = append(parts, fmt.Sprintf("%s wins n<=%d", winners[i], pes[j]))
		case j == len(pes)-1:
			parts = append(parts, fmt.Sprintf("%s wins n>=%d", winners[i], pes[i]))
		default:
			parts = append(parts, fmt.Sprintf("%s wins n=%d..%d", winners[i], pes[i], pes[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, "; ")
}

// SweepAlgos runs the full synchronization-algorithm sweep and renders
// the crossover report. Every measurement is a fresh single-barrier (or
// lock-pattern) run, so the tables are honest modeled latencies, not
// asserted constants.
func SweepAlgos(opt Options) (string, error) {
	var b strings.Builder
	algos := core.BarrierAlgos()
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		pes := sweepPEs(chip)
		fmt.Fprintf(&b, "== barrier algorithms on the %s: worst-case latency (us) ==\n", chip.Name)
		fmt.Fprintf(&b, "%6s", "PEs")
		for _, a := range algos {
			fmt.Fprintf(&b, " %13s", a)
		}
		fmt.Fprintf(&b, "   %s\n", "winner")
		// worst[i][j]: algorithm i at PE count j.
		worst := make([][]float64, len(algos))
		for i := range worst {
			worst[i] = make([]float64, len(pes))
		}
		winners := make([]string, len(pes))
		for j, n := range pes {
			fmt.Fprintf(&b, "%6d", n)
			bestUs, winner := 0.0, ""
			for i, a := range algos {
				_, w, err := measureBarrierAlgo(opt, chip, n, a)
				if err != nil {
					return "", fmt.Errorf("bench: %s barrier, %d PEs on %s: %w", a, n, chip.Name, err)
				}
				worst[i][j] = w.Us()
				fmt.Fprintf(&b, " %13.3f", w.Us())
				if winner == "" || w.Us() < bestUs {
					bestUs, winner = w.Us(), a.String()
				}
			}
			winners[j] = winner
			fmt.Fprintf(&b, "   %s\n", winner)
		}
		b.WriteString("\nslowdown vs the per-PE-count winner ('=' winner, '.' <1.3x, '+' <2x, '*' <4x, '#' >=4x):\n")
		fmt.Fprintf(&b, "%15s", "")
		for _, n := range pes {
			fmt.Fprintf(&b, "%4d", n)
		}
		b.WriteString("\n")
		for i, a := range algos {
			fmt.Fprintf(&b, "%15s", a)
			for j := range pes {
				fmt.Fprintf(&b, "%4s", shade(worst[i][j]/worst[indexOfWinner(worst, j)][j]))
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "\ncrossover: %s\n\n", crossoverSummary(pes, winners))
	}

	b.WriteString("== lock algorithms: remote acquire+release (us) and contended makespan ==\n")
	fmt.Fprintf(&b, "%-14s %8s %18s %22s\n", "chip", "lock", "uncontended (us)", "8 PEs x 4 crits (us)")
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64()} {
		for _, a := range core.LockAlgos() {
			u, err := measureLockUncontended(opt, chip, a)
			if err != nil {
				return "", fmt.Errorf("bench: uncontended %s lock on %s: %w", a, chip.Name, err)
			}
			c, err := measureLockContended(opt, chip, a, 8, 4)
			if err != nil {
				return "", fmt.Errorf("bench: contended %s lock on %s: %w", a, chip.Name, err)
			}
			fmt.Fprintf(&b, "%-14s %8s %18.3f %22.3f\n", chip.Name, a, u.Us(), c.Us())
		}
	}
	b.WriteString("(both columns are deterministic: contenders take the lock in (clock, rank)\n" +
		" turns, so the makespan is the serialized hold time; mutual exclusion is\n" +
		" verified on every contended run.)\n")
	return b.String(), nil
}

// indexOfWinner returns the row index of the fastest algorithm at PE
// count column j.
func indexOfWinner(worst [][]float64, j int) int {
	w := 0
	for i := range worst {
		if worst[i][j] < worst[w][j] {
			w = i
		}
	}
	return w
}
