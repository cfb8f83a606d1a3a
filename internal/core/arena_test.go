package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tshmem/internal/fault"
)

// drainArenaPool empties the shell pool, so the next check-in is the only
// entry. Top-level tests of this package run one at a time (parallel
// subtests finish inside their parent), so nothing else touches the pool
// meanwhile.
func drainArenaPool() {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	arenaPool.free = nil
}

// pooledShells snapshots the pool: its shells, oldest first, and the bytes
// they held at their check-ins.
func pooledShells() ([]*launchShell, int64) {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	var held int64
	for _, s := range arenaPool.free {
		held += s.size
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

// firstDirty returns the index of the first element of slab that is not
// its type's zero value, or -1.
func firstDirty[E any](slab []E) int {
	for i := range slab {
		if !reflect.ValueOf(&slab[i]).Elem().IsZero() {
			return i
		}
	}
	return -1
}

// requireZeroPool fails unless the pool holds exactly one shell and it is
// as a fresh one: every byte of its segment zero, mapped up to the end of
// its launch-time mappings and no further, every slab zero and every kept
// table empty (requireEmptyTables).
func requireZeroPool(t *testing.T) {
	t.Helper()
	shells, _ := pooledShells()
	if len(shells) != 1 {
		t.Fatalf("pool holds %d shells after one run, want 1", len(shells))
	}
	s := shells[0]
	if i := firstNonZero(s.cm.Bytes()); i >= 0 {
		t.Fatalf("pooled segment is dirty at byte %d of %d", i, s.cm.Size())
	}
	if end, maps := s.cm.MapEnd(), s.cm.Mappings(); end != s.mapFloor || maps != 1+s.shape.npes {
		t.Fatalf("pooled segment is mapped to %d in %d mappings, want %d in %d", end, maps, s.mapFloor, 1+s.shape.npes)
	}
	for name, dirty := range map[string]int{
		"PE": firstDirty(s.pes), "port": firstDirty(s.ports), "calendar node": firstDirty(s.nodes),
		"phase record": firstDirty(s.phases), "outcome": firstDirty(s.errs),
	} {
		if dirty >= 0 {
			t.Fatalf("pooled shell's %s slab is dirty at element %d", name, dirty)
		}
	}
	if len(s.ready) != 0 || cap(s.ready) != s.shape.npes {
		t.Fatalf("pooled shell's ready heap has length %d and capacity %d, want 0 and %d", len(s.ready), cap(s.ready), s.shape.npes)
	}
	requireEmptyTables(t, s)
}

// requireEmptyTables fails unless the per-word and per-link tables pooled
// shell s keeps are empty: each hub with every stamp page it holds zero
// (slot hands kept pages out without zeroing them again), no page in use and no directory entry or sub-word stamp; the lock and
// barrier maps without entries; the link counters at zero.
func requireEmptyTables(t *testing.T, s *launchShell) {
	t.Helper()
	for i := range s.hubs {
		h := &s.hubs[i]
		if len(h.pages) != 0 || len(h.pageOf) != 0 || len(h.odd) != 0 {
			t.Fatalf("pooled hub %d holds %d pages in use (%d back-references) and %d sub-word stamps", i, len(h.pages), len(h.pageOf), len(h.odd))
		}
		if p := firstDirty(h.pages[:cap(h.pages)]); p >= 0 {
			t.Fatalf("pooled hub %d's stamp page %d of %d kept is dirty", i, p, cap(h.pages))
		}
		if e := slices.IndexFunc(h.dir, func(e int32) bool { return e != 0 }); e >= 0 {
			t.Fatalf("pooled hub %d's directory entry %d of %d still names page %d", i, e, len(h.dir), h.dir[e])
		}
	}
	for name, n := range map[string]int{
		"counter-barrier": len(s.ctrBars), "lock-holder": len(s.lockHolder),
		"lock-release": len(s.lockRel), "MCS-successor": len(s.mcsNext),
	} {
		if n != 0 {
			t.Fatalf("pooled shell's %s map holds %d entries", name, n)
		}
	}
	for c, ls := range s.links {
		if u := ls.Snapshot(); u != nil && (u.TotalWords() != 0 || u.MaxQueueHWM() != 0) {
			t.Fatalf("pooled shell's chip %d link counters read %d words, queue mark %d", c, u.TotalWords(), u.MaxQueueHWM())
		}
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
// elemental (a sub-word one too), block and slice puts, gets, atomics, lock
// words, collectives with their pSync and pWrk arrays, static-static
// bounces through the scratch arena, and a mapping created after launch.
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
	half, err := Malloc[int32](pe, 2)
	if err != nil {
		return err
	}
	if err := P(pe, half.At(1), int32(5), next); err != nil {
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
		off, err := p.shell.cm.Map(8192, 4096)
		if err != nil {
			return err
		}
		if off < p.shell.mapFloor {
			return fmt.Errorf("post-launch mapping at %d lies below mapFloor %d", off, p.shell.mapFloor)
		}
		late, err := p.shell.cm.Slice(off, 8192)
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
// wrote and however it wrote it, the tables the shell keeps are empty, and
// the next launch of the same shape reads a fresh heap. The dirty body runs
// unobserved, then observed, so that the shell keeps link counters too.
func TestArenaZeroingInvariant(t *testing.T) {
	for _, la := range LockAlgos() {
		t.Run(la.String(), func(t *testing.T) {
			cfg := Config{NPEs: 4, HeapPerPE: 768 << 10, ScratchBytes: 512 << 10, LockAlgo: la}
			drainArenaPool()
			for _, observe := range []bool{false, true} {
				dirty := cfg
				dirty.Observe = observe
				if _, err := Run(dirty, arenaDirtyBody); err != nil {
					t.Fatal(err)
				}
				requireZeroPool(t)
			}
			if _, err := Run(cfg, freshHeapBody); err != nil {
				t.Fatal(err)
			}
			requireZeroPool(t)
		})
	}
}

// TestArenaPoolBudget launches many distinct segment sizes and checks that
// the pool stays within its one byte budget, segments and slabs counted (it
// used to keep four segments of every size it ever saw), that a same-shape
// relaunch is still served from the pool, segment and slabs, that shapes
// that share a segment size but not a PE count never share a shell, that
// the tables a shell keeps, stamp pages and heap block tables, count toward
// its size, and that a shell larger than the budget is not pooled.
func TestArenaPoolBudget(t *testing.T) {
	body := func(seen **launchShell) func(pe *PE) error {
		return func(pe *PE) error {
			if pe.MyPE() == 0 {
				*seen = pe.prog.shell
				if &pe.prog.shell.pes[0] != pe {
					return errors.New("PE 0 is not the first element of its shell's PE slab")
				}
			}
			x, err := Malloc[int64](pe, 64)
			if err != nil {
				return err
			}
			return P(pe, x, 1, (pe.MyPE()+1)%pe.NumPEs())
		}
	}
	// The pool is checked under the one engine, the event calendar.
	t.Run(EngineEvent.String(), func(t *testing.T) {
		drainArenaPool()
		cfg := Config{NPEs: 2, ScratchBytes: 64 << 10}
		var launched int64
		for i := 0; i < 40; i++ {
			cfg.HeapPerPE = int64(1<<20 + i*(48<<10))
			var sh *launchShell
			if _, err := Run(cfg, body(&sh)); err != nil {
				t.Fatal(err)
			}
			launched += sh.cm.Size()
			shells, held := pooledShells()
			if held > arenaPoolBudget {
				t.Fatalf("after %d shapes the pool holds %d bytes, budget %d", i+1, held, arenaPoolBudget)
			}
			if shells[len(shells)-1] != sh {
				t.Fatalf("shape %d: the run's shell was not pooled", i)
			}
			var segs int64
			for _, s := range shells {
				segs += s.cm.Size()
			}
			if slabs := held - segs; slabs < int64(len(shells)*cfg.NPEs)*int64(unsafe.Sizeof(PE{})) {
				t.Fatalf("the pool counts %d bytes of slabs beside its segments, less than its PEs take", slabs)
			}
		}
		if launched <= arenaPoolBudget {
			t.Fatalf("the sweep launched only %d bytes, not enough to reach the %d-byte budget", launched, arenaPoolBudget)
		}
		shells, _ := pooledShells()
		if len(shells) == 0 || len(shells) >= 40 {
			t.Fatalf("pool holds %d shells after 40 shapes that exceed its budget", len(shells))
		}
		want := shells[len(shells)-1]
		wantPEs := &want.pes[0]
		var got *launchShell
		if _, err := Run(cfg, body(&got)); err != nil {
			t.Fatal(err)
		}
		if got != want || got.cm != want.cm || &got.pes[0] != wantPEs {
			t.Error("a same-shape relaunch built a new shell instead of reusing the pooled one's segment and slabs")
		}

		// Four PEs of 64 KiB and two of 132 KiB make one segment size.
		four := Config{NPEs: 4, HeapPerPE: 64 << 10, ScratchBytes: 64 << 10}
		two := four
		two.NPEs, two.HeapPerPE = 2, 2*four.HeapPerPE+4096
		if a, b := shapeOf(&four), shapeOf(&two); a.segment != b.segment {
			t.Fatalf("segments of %d and %d bytes: the shapes do not collide", a.segment, b.segment)
		}
		var of4, of2 *launchShell
		if _, err := Run(four, body(&of4)); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(two, body(&of2)); err != nil {
			t.Fatal(err)
		}
		of2Size := of2.size
		if of2 == of4 || len(of2.pes) != 2 || len(of4.pes) != 4 {
			t.Errorf("a 2-PE launch took the shell of a 4-PE launch of the same segment size")
		}

		// The kept tables count: a tenant that stamps a word on each of 64
		// pages of its neighbour's partition grows its shell's size by at
		// least their bytes.
		const pages = 64
		var spread *launchShell
		if _, err := Run(two, func(pe *PE) error {
			spread = pe.prog.shell
			x, err := Malloc[int64](pe, pages*stampPageSlots)
			if err != nil {
				return err
			}
			for i := 0; i < x.Len(); i += stampPageSlots {
				if err := P(pe, x.At(i), 1, (pe.MyPE()+1)%pe.NumPEs()); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if spread != of2 {
			t.Fatal("a relaunch of the 2-PE shape built a new shell")
		}
		if grown, least := spread.size-of2Size, int64(2*(pages-1))*int64(unsafe.Sizeof(stampPage{})); grown < least {
			t.Errorf("64 stamp pages per hub grew the pooled shell by %d bytes, less than the %d their pages take", grown, least)
		}

		// So do the heaps' block tables: a tenant that leaves 200 blocks in
		// each heap grows its shell's size by at least the tables' growth.
		tables := func(s *launchShell) int64 {
			n := s.scratch.Bytes()
			for i := range s.heaps {
				n += s.heaps[i].Bytes()
			}
			return n
		}
		spreadSize, spreadTables := spread.size, tables(spread)
		if _, err := Run(two, func(pe *PE) error {
			for i := 0; i < 200; i++ {
				r, err := Malloc[int64](pe, 1)
				if err != nil {
					return err
				}
				if i%2 == 0 {
					if err := Free(pe, r); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if grown, least := spread.size-spreadSize, tables(spread)-spreadTables; least <= 0 || grown < least {
			t.Errorf("heap tables that grew by %d bytes grew the pooled shell by %d", least, grown)
		}

		_, before := pooledShells()
		cfg.HeapPerPE = arenaPoolBudget / 2
		var big *launchShell
		if _, err := Run(cfg, body(&big)); err != nil {
			t.Fatal(err)
		}
		if big.bytes() <= arenaPoolBudget {
			t.Fatalf("oversized launch is only %d bytes", big.bytes())
		}
		shells, after := pooledShells()
		for _, s := range shells {
			if s == big {
				t.Error("a shell larger than the budget was pooled")
			}
		}
		if after != before {
			t.Errorf("an oversized check-in moved the pool from %d to %d bytes", before, after)
		}
	})
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
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{NPEs: 4, HeapPerPE: 320 << 10, ScratchBytes: 256 << 10}
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
