package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
)

// TestStartPEsReplayMatchesLiteral is the replay's oracle: an armed but
// empty fault plan perturbs nothing yet selects the literal packet
// exchange, so a Config{} run (launcher-side replay) and a
// Config{Faults: &fault.Plan{}} run of the same program must agree on
// every virtual-time output — PE clocks, every counter and histogram,
// per-link words and packets, the trace, and the profile — on every chip
// family, at the smallest, an awkward, and the full PE count, on both
// engines, under each observer, and split over two chips.
func TestStartPEsReplayMatchesLiteral(t *testing.T) {
	type geom struct {
		chip   *arch.Chip
		nchips int
	}
	geoms := []geom{
		{arch.Gx8036(), 1}, {arch.Gx8036(), 2}, {arch.Pro64(), 1},
		{arch.EpiphanyIII(), 1}, {arch.Synthetic(8, 3), 1}, {arch.Synthetic(16, 16), 1},
	}
	observers := []struct {
		name string
		set  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"trace", func(c *Config) { c.Observe, c.Trace = true, true }},
		{"profile", func(c *Config) { c.Profile = true }},
		{"sanitize", func(c *Config) { c.Sanitize = true }},
	}
	// A ring of puts after the handshake, so a replay that left a clock
	// wrong would show downstream too. The wrap-around put goes in a phase
	// of its own: on two chips it would share the chip-pair wire with the
	// put that crosses the other way (TestMultichipRingDeterministic
	// covers the contended ring).
	body := func(pe *PE) error {
		x, err := Malloc[int64](pe, 16)
		if err != nil {
			return err
		}
		y, err := Malloc[int64](pe, 16)
		if err != nil {
			return err
		}
		me, last := pe.MyPE(), pe.NumPEs()-1
		if me < last {
			if err := Put(pe, y, x, 16, me+1); err != nil {
				return err
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if me == last {
			if err := Put(pe, y, x, 16, 0); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	}
	for _, g := range geoms {
		full := g.nchips * g.chip.Tiles
		for _, n := range []int{2, 5, full} {
			if testing.Short() && n > 64 {
				continue
			}
			for _, obs := range observers {
				label := fmt.Sprintf("%s x%d/%d PEs/%s", g.chip.Name, g.nchips, n, obs.name)
				cfg := Config{
					Chip: g.chip, NChips: g.nchips, NPEs: n,
					HeapPerPE: 1 << 16, ScratchBytes: 1 << 16,
				}
				obs.set(&cfg)
				replayed := runT(t, cfg, body)
				cfg.Faults = &fault.Plan{}
				literal := runT(t, cfg, body)

				compareReports(t, label, replayed, literal)
				if !reflect.DeepEqual(replayed.Trace(), literal.Trace()) {
					t.Errorf("%s: traces diverged (%d vs %d events)",
						label, len(replayed.Trace()), len(literal.Trace()))
				}
				if len(replayed.Diagnostics)+len(literal.Diagnostics) != 0 {
					t.Errorf("%s: diagnostics: replayed %v, literal %v",
						label, replayed.Diagnostics, literal.Diagnostics)
				}
				if cfg.Profile && !bytes.Equal(profileJSON(t, replayed), profileJSON(t, literal)) {
					t.Errorf("%s: profile JSON is not byte-identical", label)
				}
			}
		}
	}
}

// launchSeconds reports the fastest of five empty-body launches on a
// grid x grid mesh.
func launchSeconds(t *testing.T, grid int) float64 {
	t.Helper()
	cfg := Config{
		Chip: arch.Synthetic(grid, grid), NPEs: grid * grid,
		HeapPerPE: 4096, ScratchBytes: 1 << 16,
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		runT(t, cfg, func(*PE) error { return nil })
		best = min(best, time.Since(t0))
	}
	return best.Seconds()
}

// TestLaunchScaling reports how the host cost of a launch grows from 256
// to 1024 PEs. Linear is 4x; the literal n(n-1)-packet exchange measured
// 34x; the target is under 8x. It only reports: no host-time ratio holds
// on a loaded or collecting host without retries. ci.sh prints it on every
// run, next to the 4096-PE probe whose -timeout is the coarse gate; the
// committed trajectory is the benchmark's core.launch*.exponent rungs.
func TestLaunchScaling(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("host-time measurement: needs an uninstrumented build")
	}
	t256, t1024 := launchSeconds(t, 16), launchSeconds(t, 32)
	note := ""
	if t1024/t256 >= 8 {
		note = " — over the 8x target"
	}
	t.Logf("256 PEs %.4fs, 1024 PEs %.4fs, ratio %.1f%s", t256, t1024, t1024/t256, note)
}
