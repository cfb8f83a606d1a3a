package kernels

import (
	"testing"

	"tshmem/internal/core"
	"tshmem/internal/sanitize"
)

// TestSanitizerLossFree: on barrier-separated programs the sanitizer's caps
// are never reached, so "zero diagnostics" means no defect was found rather
// than no defect was remembered. The first three bodies are the ones the
// benchmark's `observed` workload runs (benchmark/workloads.go: putBody for
// one round, stormBody for 20, bfs over 8 graphs of 125 vertices; 36 PEs).
// Until PR 20 they evicted 16 704, 504 and 7 935 shadow records per run at
// the per-region cap, silently, while reporting zero diagnostics.
func TestSanitizerLossFree(t *testing.T) {
	const npes = 36
	bodies := []struct {
		name string
		heap int64
		body func(pe *core.PE) error
	}{
		{"put-sweep", 2*128<<10 + 64<<10, putSweepRound},
		{"sync-storm", 64 << 10, func(pe *core.PE) error { return stormRounds(pe, 20) }},
	}
	for _, b := range bodies {
		t.Run(b.name, func(t *testing.T) {
			rep, err := core.Run(core.Config{NPEs: npes, HeapPerPE: b.heap, Sanitize: true}, b.body)
			if err != nil {
				t.Fatal(err)
			}
			wantClean(t, rep)
		})
	}
	t.Run("bfs-1000", func(t *testing.T) {
		bfs, err := ByName("bfs")
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{NPEs: npes, HeapPerPE: 64 << 10, Sanitize: true}
		var specs []Spec
		for g := 0; g < 8; g++ {
			s := Spec{Size: 125, Seed: int64(8 + g), NPEs: npes}
			specs = append(specs, s)
			cfg.HeapPerPE += bfs.HeapPerPE(s)
		}
		rep, err := core.Run(cfg, func(pe *core.PE) error {
			for _, s := range specs {
				if _, err := bfs.Run(pe, s); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		wantClean(t, rep)
	})
	for _, k := range Kernels() {
		t.Run(k.Name(), func(t *testing.T) {
			rep, err := Check(k, testSpec(k.Name(), 5, 1), core.Config{Sanitize: true})
			if err != nil {
				t.Fatal(err)
			}
			wantClean(t, rep)
		})
	}
}

func wantClean(t *testing.T, rep *core.Report) {
	t.Helper()
	if rep.SanitizerLoss != (sanitize.Loss{}) {
		t.Errorf("SanitizerLoss = %+v, want none", rep.SanitizerLoss)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("diagnostics = %v, want none", rep.Diagnostics)
	}
}

// putSweepRound is one round of the benchmark's put-sweep: every PE puts
// 8 B ... 128 KiB (doubling; 64 calls up to 8 KiB, 4 above) from one source
// buffer to one destination on the PE 7 ranks up, Quiet between sizes.
func putSweepRound(pe *core.PE) error {
	const maxElems = 128 << 10 / 8
	src, err := core.Malloc[int64](pe, maxElems)
	if err != nil {
		return err
	}
	dst, err := core.Malloc[int64](pe, maxElems)
	if err != nil {
		return err
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	to := (pe.MyPE() + 7) % pe.NumPEs()
	for nelems := 1; nelems <= maxElems; nelems *= 2 {
		calls := 64
		if nelems*8 > 8<<10 {
			calls = 4
		}
		for c := 0; c < calls; c++ {
			if err := core.Put(pe, dst, src, nelems, to); err != nil {
				return err
			}
		}
		pe.Quiet()
	}
	return pe.BarrierAll()
}

// stormRounds is the benchmark's sync-storm: per round a BarrierAll, an
// 8-element SumToAll and a 64-byte BroadcastPull from a rotating root, and
// every 4th round a lock-guarded G+P+Quiet on a rotating PE's counter.
func stormRounds(pe *core.PE, rounds int) error {
	const elems = 8
	n, me := pe.NumPEs(), pe.MyPE()
	as := core.AllPEs(n)
	var refs [6]core.Ref[int64]
	for i, size := range []int{elems, elems, core.ReduceMinWrkSize, core.ReduceSyncSize, elems, elems} {
		var err error
		if refs[i], err = core.Malloc[int64](pe, size); err != nil {
			return err
		}
	}
	redIn, redOut, pwrk, ps, bSrc, bDst := refs[0], refs[1], refs[2], refs[3], refs[4], refs[5]
	locks, err := core.Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	ctr, err := core.Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if err := core.SumToAll(pe, redOut, redIn, elems, as, pwrk, ps); err != nil {
			return err
		}
		if err := core.BroadcastPull(pe, bDst, bSrc, elems, r%n, as, ps); err != nil {
			return err
		}
		if r%4 != 3 {
			continue
		}
		q := (me + r) % n
		if err := pe.SetLock(locks.At(q)); err != nil {
			return err
		}
		v, err := core.G(pe, ctr, q)
		if err != nil {
			return err
		}
		if err := core.P(pe, ctr, v+1, q); err != nil {
			return err
		}
		pe.Quiet()
		if err := pe.ClearLock(locks.At(q)); err != nil {
			return err
		}
	}
	return pe.BarrierAll()
}
