package core

import (
	"strings"
	"testing"

	"tshmem/internal/sanitize"
)

// unretirableGets has PE 0 read gets distinct words of PE 1's partition with
// no barrier after them, so none of the shadow records can retire; with
// race, PE 1 also overwrites the last of those words unsynchronized.
func unretirableGets(gets int, race bool) func(*PE) error {
	return func(pe *PE) error {
		data, err := Malloc[int64](pe, gets)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		switch {
		case pe.MyPE() == 0:
			for i := 0; i < gets; i++ {
				if _, err := G(pe, data.At(i), 1); err != nil {
					return err
				}
			}
		case race:
			return Put(pe, data.At(gets-1), data, 1, 1)
		}
		return nil
	}
}

// TestSanitizerLossReported: what the checker's caps made it forget reaches
// the Report, and the strict-mode error says so next to the diagnostics it
// could still make.
func TestSanitizerLossReported(t *testing.T) {
	const gets, evicted = 300, 300 - 256
	rep := runT(t, sanCfg(2), unretirableGets(gets, false))
	if want := (sanitize.Loss{RecordsEvicted: evicted}); rep.SanitizerLoss != want {
		t.Errorf("SanitizerLoss = %+v, want %+v", rep.SanitizerLoss, want)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("diagnostics = %v, want none", rep.Diagnostics)
	}

	t.Setenv("TSHMEM_SANITIZE", "1")
	_, err := Run(gxCfg(2), unretirableGets(gets, true))
	if err == nil || !strings.Contains(err.Error(), "race:put/get") ||
		// PE 1's put reads its source too: one more record than PE 0's gets.
		!strings.Contains(err.Error(), "shadow state was lost: 0 diagnostics dropped, 45 shadow records evicted") {
		t.Errorf("strict-mode error = %v, want the race and the loss", err)
	}
}

// TestSanitizedPhaseZeroAllocs: with the sanitizer on, a steady-state phase
// of a barrier-separated program — repeated puts from one source, a quiet,
// a get, a barrier, on every PE — allocates nothing: the shadow records of
// each phase retire at the barrier and the next phase reuses them.
// (TestElementalZeroAllocs' loop, which has no barrier, is the case that
// still grows its shadow lists.)
func TestSanitizedPhaseZeroAllocs(t *testing.T) {
	const npes, warm, runs = 8, 4, 10
	rep := runT(t, sanCfg(npes), func(pe *PE) error {
		src, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		dst, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		tmp, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		right, left := (pe.MyPE()+1)%npes, (pe.MyPE()+npes-1)%npes
		var opErr error
		phase := func() {
			for k := 0; k < 4; k++ {
				if err := Put(pe, dst, src, 64, right); err != nil {
					opErr = err
				}
			}
			pe.Quiet()
			if err := Get(pe, tmp, src, 64, left); err != nil {
				opErr = err
			}
			if err := pe.BarrierAll(); err != nil {
				opErr = err
			}
		}
		for i := 0; i < warm; i++ {
			phase()
		}
		// Every PE runs the same runs+1 phases (AllocsPerRun calls phase once
		// before it counts); PE 0's counter sees all of their allocations,
		// since a run's PEs share one driver goroutine.
		if pe.MyPE() == 0 {
			if n := testing.AllocsPerRun(runs, phase); n != 0 {
				t.Errorf("a sanitized steady-state phase allocates %v times over %d PEs, want 0", n, npes)
			}
		} else {
			for i := 0; i <= runs; i++ {
				phase()
			}
		}
		return opErr
	})
	if len(rep.Diagnostics) != 0 || rep.SanitizerLoss != (sanitize.Loss{}) {
		t.Errorf("diagnostics %v, loss %+v; want a clean, loss-free run", rep.Diagnostics, rep.SanitizerLoss)
	}
}
