package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"tshmem/internal/fault"
	"tshmem/internal/tmc"
)

// drainArenaPool empties the segment pool, so the next check-in is the
// only entry. Top-level tests of this package run one at a time (parallel
// subtests finish inside their parent), so nothing else touches the pool
// meanwhile.
func drainArenaPool() {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	arenaPool.free = nil
}

// pooledArenas snapshots the pool: its segments, oldest first, and their
// total size.
func pooledArenas() ([]*tmc.CommonMemory, int64) {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	var held int64
	for _, cm := range arenaPool.free {
		held += cm.Size()
	}
	return slices.Clone(arenaPool.free), held
}

// firstNonZero returns the index of the first non-zero byte of b, or -1.
func firstNonZero(b []byte) int {
	for i, v := range b {
		if v != 0 {
			return i
		}
	}
	return -1
}

// requireZeroPool fails unless the pool holds exactly one segment and
// every byte of it is zero.
func requireZeroPool(t *testing.T) {
	t.Helper()
	segs, _ := pooledArenas()
	if len(segs) != 1 {
		t.Fatalf("pool holds %d segments after one run, want 1", len(segs))
	}
	if i := firstNonZero(segs[0].Bytes()); i >= 0 {
		t.Fatalf("pooled segment is dirty at byte %d of %d", i, segs[0].Size())
	}
}

// freshHeapBody allocates the whole symmetric heap in one object, requires
// it to read zero like a fresh segment's, and dirties it for the next
// tenant.
func freshHeapBody(pe *PE) error {
	x, err := Malloc[int64](pe, int(pe.HeapFree()/8))
	if err != nil {
		return err
	}
	lv := MustLocal(pe, x)
	for i, v := range lv {
		if v != 0 {
			return fmt.Errorf("PE %d: fresh heap word %d reads %#x", pe.MyPE(), i, v)
		}
	}
	for i := range lv {
		lv[i] = -1
	}
	return nil
}

// arenaDirtyBody writes the run's segment through every path the library
// has: heap allocations below and beyond a freed block's high-water mark,
// elemental, block and slice puts, gets, atomics, lock words, collectives
// with their pSync and pWrk arrays, static-static bounces through the
// scratch arena, and a mapping created after launch.
func arenaDirtyBody(pe *PE) error {
	const n = 512
	me, np := pe.MyPE(), pe.NumPEs()
	next := (me + 1) % np
	fill := func(r Ref[int64]) {
		for i, lv := 0, MustLocal(pe, r); i < len(lv); i++ {
			lv[i] = int64(me+1)<<32 | int64(i+1)
		}
	}

	a, err := Malloc[int64](pe, 4*n)
	if err != nil {
		return err
	}
	fill(a)
	if err := Free(pe, a); err != nil {
		return err
	}
	src, err := Malloc[int64](pe, 16*n) // reuses a's block and runs past it
	if err != nil {
		return err
	}
	fill(src)
	dst, err := Malloc[int64](pe, 16*n)
	if err != nil {
		return err
	}
	if err := P(pe, dst, int64(me+1), next); err != nil {
		return err
	}
	if err := Put(pe, dst, src, n, next); err != nil {
		return err
	}
	if err := PutSlice(pe, dst, []int64{1, 2, 3, 4}, next); err != nil {
		return err
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	if err := Get(pe, src, dst, n, next); err != nil {
		return err
	}

	word, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	if _, err := Swap(pe, word, int64(7), next); err != nil {
		return err
	}
	if _, err := CSwap(pe, word, int64(7), int64(9), next); err != nil {
		return err
	}
	if _, err := FAdd(pe, word, int64(3), next); err != nil {
		return err
	}
	if err := Inc(pe, word, next); err != nil {
		return err
	}
	lk, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	if err := pe.SetLock(lk); err != nil {
		return err
	}
	if err := pe.ClearLock(lk); err != nil {
		return err
	}
	if busy, err := pe.TestLock(lk); err != nil {
		return err
	} else if !busy {
		if err := pe.ClearLock(lk); err != nil {
			return err
		}
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}

	as := AllPEs(np)
	ps, err := Malloc[int64](pe, CollectSyncSize)
	if err != nil {
		return err
	}
	wrk, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	for _, coll := range []func() error{
		func() error { return SumToAll(pe, dst, src, n, as, wrk, ps) },
		func() error { return Broadcast(pe, dst, src, n, 0, as, ps) },
		func() error { return FCollect(pe, dst, src, n, as, ps) },
	} {
		if err := coll(); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}

	// Static-to-static transfers bounce through the scratch arena, 4 KiB
	// and 128 KiB at a time.
	const bigElems = 128 << 10 / 8
	ssrc, err := DeclareStatic[int64](pe, "arena-src", bigElems)
	if err != nil {
		return err
	}
	sdst, err := DeclareStatic[int64](pe, "arena-dst", bigElems)
	if err != nil {
		return err
	}
	fill(ssrc)
	for _, elems := range []int{n, bigElems} {
		if err := Put(pe, sdst, ssrc, elems, next); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil { // sdst: neighbor's put, then my get
			return err
		}
		if err := Get(pe, sdst, ssrc, elems, next); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}

	if me == 0 {
		p := pe.prog
		if p.scratch.HighWater() < bigElems*8 {
			return fmt.Errorf("the scratch arena's high-water mark is %d: the bounces never went through it", p.scratch.HighWater())
		}
		off, err := p.cm.Map(8192, 4096)
		if err != nil {
			return err
		}
		if off < p.mapFloor {
			return fmt.Errorf("post-launch mapping at %d lies below mapFloor %d", off, p.mapFloor)
		}
		late, err := p.cm.Slice(off, 8192)
		if err != nil {
			return err
		}
		for i := range late {
			late[i] = 0xA5
		}
	}
	return nil
}

// TestArenaZeroingInvariant checks what arena recycling rests on: a
// segment that goes back into the pool is entirely zero, whatever the run
// wrote and however it wrote it, and the next launch of the same shape
// reads a fresh heap.
func TestArenaZeroingInvariant(t *testing.T) {
	for _, eng := range Engines() {
		for _, la := range LockAlgos() {
			t.Run(fmt.Sprintf("%s/%s", eng, la), func(t *testing.T) {
				cfg := Config{
					NPEs: 4, HeapPerPE: 768 << 10, ScratchBytes: 512 << 10,
					Engine: eng, LockAlgo: la,
				}
				drainArenaPool()
				if _, err := Run(cfg, arenaDirtyBody); err != nil {
					t.Fatal(err)
				}
				requireZeroPool(t)
				if _, err := Run(cfg, freshHeapBody); err != nil {
					t.Fatal(err)
				}
				requireZeroPool(t)
			})
		}
	}
}

// TestArenaPoolBudget launches many distinct segment sizes and checks that
// the pool stays within its one byte budget (it used to keep four segments
// of every size it ever saw), that a same-shape relaunch is still served
// from the pool, and that a segment larger than the budget is not pooled.
func TestArenaPoolBudget(t *testing.T) {
	body := func(seen **tmc.CommonMemory) func(pe *PE) error {
		return func(pe *PE) error {
			if pe.MyPE() == 0 {
				*seen = pe.prog.cm
			}
			x, err := Malloc[int64](pe, 64)
			if err != nil {
				return err
			}
			return P(pe, x, 1, (pe.MyPE()+1)%pe.NumPEs())
		}
	}
	for _, eng := range Engines() {
		t.Run(eng.String(), func(t *testing.T) {
			drainArenaPool()
			cfg := Config{NPEs: 2, ScratchBytes: 64 << 10, Engine: eng}
			var launched int64
			for i := 0; i < 40; i++ {
				cfg.HeapPerPE = int64(1<<20 + i*(48<<10))
				var cm *tmc.CommonMemory
				if _, err := Run(cfg, body(&cm)); err != nil {
					t.Fatal(err)
				}
				launched += cm.Size()
				segs, held := pooledArenas()
				if held > arenaPoolBudget {
					t.Fatalf("after %d shapes the pool holds %d bytes, budget %d", i+1, held, arenaPoolBudget)
				}
				if segs[len(segs)-1] != cm {
					t.Fatalf("shape %d: the run's segment was not pooled", i)
				}
			}
			if launched <= arenaPoolBudget {
				t.Fatalf("the sweep launched only %d bytes, not enough to reach the %d-byte budget", launched, arenaPoolBudget)
			}
			segs, _ := pooledArenas()
			if len(segs) == 0 || len(segs) >= 40 {
				t.Fatalf("pool holds %d segments after 40 shapes that exceed its budget", len(segs))
			}
			want := segs[len(segs)-1]
			var got *tmc.CommonMemory
			if _, err := Run(cfg, body(&got)); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Error("a same-shape relaunch allocated a new segment instead of reusing the pooled one")
			}

			_, before := pooledArenas()
			cfg.HeapPerPE = arenaPoolBudget / 2
			var big *tmc.CommonMemory
			if _, err := Run(cfg, body(&big)); err != nil {
				t.Fatal(err)
			}
			if big.Size() <= arenaPoolBudget {
				t.Fatalf("oversized launch is only %d bytes", big.Size())
			}
			segs, after := pooledArenas()
			for _, s := range segs {
				if s == big {
					t.Error("a segment larger than the budget was pooled")
				}
			}
			if after != before {
				t.Errorf("an oversized check-in moved the pool from %d to %d bytes", before, after)
			}
		})
	}
}

// TestArenaQuiescence ends runs the ways that used to leave an interrupt
// servicer inside its handler — copying into the segment — after Run had
// returned: a fault plan that drops an interrupt, so the requester gives
// up while its peers keep servicing static transfers, and a PE that panics
// mid-traffic, so every requester abandons its reply. Each is followed by
// twenty launches of the same shape, which are handed the same segment and
// must find their heaps zero. Run with -race: a servicer outliving its run
// shows up as a race with the check-in or with the next tenant.
func TestArenaQuiescence(t *testing.T) {
	const n, rounds = 2048, 40
	traffic := func(pe *PE, fail func(round int, st, buf Ref[int64]) error) error {
		st, err := DeclareStatic[int64](pe, "quiesce", n)
		if err != nil {
			return err
		}
		buf, err := Malloc[int64](pe, n)
		if err != nil {
			return err
		}
		for i, lv := 0, MustLocal(pe, st); i < n; i++ {
			lv[i] = int64(pe.MyPE()+1)<<32 | int64(i)
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		me := pe.MyPE()
		if me == 3 {
			return fail(-1, st, buf)
		}
		// PEs 0..2 pull each other's statics: each get has the remote
		// tile's servicer copy its static into this PE's heap.
		for r := 0; r < rounds; r++ {
			if err := Get(pe, buf, st, n, (me+1+r%2)%3); err != nil {
				return err
			}
			if me == 0 {
				if err := fail(r, st, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	cases := []struct {
		name   string
		faults *fault.Plan
		body   func(pe *PE) error
		check  func(t *testing.T, err error)
	}{
		{
			name:   "dropped-interrupt",
			faults: &fault.Plan{Events: []fault.Event{{Kind: fault.UDNDropIntr, Tile: 3, Queue: -1, Factor: 1}}},
			body: func(pe *PE) error {
				return traffic(pe, func(round int, st, buf Ref[int64]) error {
					if round != rounds/2 {
						return nil
					}
					// PE 0 redirects a put at the tile whose interrupt
					// lane the plan drops, and unwinds with the timeout.
					return Put(pe, st, buf, n, 3)
				})
			},
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("Run error = %v, want ErrTimeout from the dropped interrupt", err)
				}
			},
		},
		{
			name: "panic",
			body: func(pe *PE) error {
				return traffic(pe, func(round int, _, _ Ref[int64]) error {
					if round == -1 {
						panic("PE 3 dies while its peers are mid-interrupt")
					}
					return nil
				})
			},
			check: func(t *testing.T, err error) {
				if err == nil {
					t.Fatal("Run succeeded although PE 3 panicked")
				}
			},
		},
	}
	for _, eng := range Engines() {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", eng, c.name), func(t *testing.T) {
				cfg := Config{NPEs: 4, HeapPerPE: 320 << 10, ScratchBytes: 256 << 10, Engine: eng}
				drainArenaPool()
				faulted := cfg
				faulted.Faults = c.faults
				_, err := Run(faulted, c.body)
				c.check(t, err)
				requireZeroPool(t)
				for i := 0; i < 20; i++ {
					if _, err := Run(cfg, freshHeapBody); err != nil {
						t.Fatalf("relaunch %d: %v", i, err)
					}
				}
				requireZeroPool(t)
			})
		}
	}
}
