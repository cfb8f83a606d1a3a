package tshmem_test

import (
	"errors"
	"testing"

	"tshmem"
)

// These tests exercise the public facade end to end, the way a downstream
// user would: everything through package tshmem, nothing through internal
// packages.

func cfg(npes int) tshmem.Config {
	return tshmem.Config{Chip: tshmem.TileGx8036(), NPEs: npes, HeapPerPE: 1 << 20}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	const n = 4
	rep, err := tshmem.Run(cfg(n), func(pe *tshmem.PE) error {
		me := pe.MyPE()
		x, err := tshmem.Malloc[int64](pe, 8)
		if err != nil {
			return err
		}
		v := tshmem.MustLocal(pe, x)
		for i := range v {
			v[i] = int64(me*10 + i)
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		// Neighbor get through the facade.
		buf := make([]int64, 8)
		next := (me + 1) % n
		if err := tshmem.GetSlice(pe, buf, x, next); err != nil {
			return err
		}
		for i, got := range buf {
			if got != int64(next*10+i) {
				t.Errorf("PE %d: buf[%d] = %d", me, i, got)
			}
		}
		// All reads done before anyone mutates.
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		// Elemental ops, atomics, and a reduction.
		if err := tshmem.P(pe, x, int64(-1), me); err != nil {
			return err
		}
		if _, err := tshmem.FAdd(pe, x, int64(1), 0); err != nil {
			return err
		}
		pwrk, err := tshmem.Malloc[int64](pe, tshmem.ReduceMinWrkSize)
		if err != nil {
			return err
		}
		psync, err := tshmem.Malloc[int64](pe, tshmem.ReduceSyncSize)
		if err != nil {
			return err
		}
		sum, err := tshmem.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		one, err := tshmem.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		tshmem.MustLocal(pe, one)[0] = 1
		if err := tshmem.SumToAll(pe, sum, one, 1, tshmem.AllPEs(n), pwrk, psync); err != nil {
			return err
		}
		if got := tshmem.MustLocal(pe, sum)[0]; got != n {
			t.Errorf("PE %d: sum = %d, want %d", me, got, n)
		}
		return pe.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NPEs != n || rep.MaxTime <= 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestPublicErrors(t *testing.T) {
	_, err := tshmem.Run(cfg(2), func(pe *tshmem.PE) error {
		x, err := tshmem.Malloc[int32](pe, 4)
		if err != nil {
			return err
		}
		if err := tshmem.Put(pe, x, x, 4, 99); !errors.Is(err, tshmem.ErrBadPE) {
			t.Errorf("bad PE: %v", err)
		}
		if err := tshmem.Put(pe, x, x, 99, 0); !errors.Is(err, tshmem.ErrBounds) {
			t.Errorf("bounds: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicStaticsOnTILEPro(t *testing.T) {
	c := cfg(2)
	c.Chip = tshmem.TilePro64()
	_, err := tshmem.Run(c, func(pe *tshmem.PE) error {
		st, err := tshmem.DeclareStatic[int64](pe, "s", 4)
		if err != nil {
			return err
		}
		dyn, err := tshmem.Malloc[int64](pe, 4)
		if err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			if err := tshmem.Put(pe, st, dyn, 4, 1); !errors.Is(err, tshmem.ErrNotSupported) {
				t.Errorf("TILEPro static put: %v", err)
			}
		}
		return pe.BarrierAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicChipCatalogue(t *testing.T) {
	if len(tshmem.Chips()) < 4 {
		t.Error("chip catalogue too small")
	}
	if tshmem.ChipByName("TILE-Gx8036") == nil {
		t.Error("Gx8036 missing")
	}
	if tshmem.TileGx8016().Tiles != 16 || tshmem.TilePro36().Tiles != 36 {
		t.Error("variant chips wrong")
	}
}

func TestPublicConfigOptions(t *testing.T) {
	c := cfg(8)
	c.BarrierAlgo = tshmem.BarrierAlgoSpin
	c.Bcast = tshmem.PushBcast
	c.Reduce = tshmem.RecursiveDoubling
	_, err := tshmem.Run(c, func(pe *tshmem.PE) error {
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		x, err := tshmem.Malloc[int32](pe, 4)
		if err != nil {
			return err
		}
		y, err := tshmem.Malloc[int32](pe, 4)
		if err != nil {
			return err
		}
		ps, err := tshmem.Malloc[int64](pe, tshmem.BcastSyncSize)
		if err != nil {
			return err
		}
		tshmem.MustLocal(pe, x)[0] = int32(pe.MyPE())
		return tshmem.Broadcast(pe, y, x, 4, 0, tshmem.AllPEs(8), ps)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPublicPtrAndLocks(t *testing.T) {
	_, err := tshmem.Run(cfg(2), func(pe *tshmem.PE) error {
		x, err := tshmem.Malloc[float32](pe, 2)
		if err != nil {
			return err
		}
		if p := tshmem.Ptr(pe, x, (pe.MyPE()+1)%2); p == nil {
			t.Error("Ptr to dynamic object should work (same-VA common memory)")
		}
		if !tshmem.AddrAccessible(pe, x, 0) {
			t.Error("dynamic object should be addr-accessible")
		}
		lock, err := tshmem.Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		if err := pe.SetLock(lock); err != nil {
			return err
		}
		return pe.ClearLock(lock)
	})
	if err != nil {
		t.Fatal(err)
	}
}
