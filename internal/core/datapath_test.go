package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
	"tshmem/internal/vtime"
)

// dynRef hand-builds a dynamic Ref, for the offsets Malloc never returns.
func dynRef[T Elem](off int64, n int) Ref[T] {
	return Ref[T]{kind: dynamicRef, off: off, n: n}
}

// TestRefBoundsSurface pins what At, Slice and SliceChecked do with every
// kind of bad index: the panic value and the returned error are the same
// ErrBounds-wrapping error, with the text the checks have always had. The
// bounds test is inlined into every elemental op's call site; this is the
// proof that making it so dropped no case.
func TestRefBoundsSurface(t *testing.T) {
	x := dynRef[int64](64, 8)
	var zero Ref[int64]
	zeroText := fmt.Errorf("%w: zero Ref", ErrBounds).Error()
	span := func(i, j, n int) string {
		return fmt.Errorf("%w: [%d:%d) of %d elements", ErrBounds, i, j, n).Error()
	}
	const maxInt = int(^uint(0) >> 1)
	cases := []struct {
		name string
		r    Ref[int64]
		i, j int
		at   bool // also a case of At(i): j == i+1
		want string
	}{
		{"At(-1)", x, -1, 0, true, span(-1, 0, 8)},
		{"At(n)", x, 8, 9, true, span(8, 9, 8)},
		{"At(maxInt)", x, maxInt, -maxInt - 1, true, span(maxInt, -maxInt-1, 8)},
		{"zero.At(0)", zero, 0, 1, true, zeroText},
		{"empty.At(0)", x.Slice(3, 3), 0, 1, true, span(0, 1, 0)},
		{"Slice(5,3)", x, 5, 3, false, span(5, 3, 8)},
		{"Slice(0,n+1)", x, 0, 9, false, span(0, 9, 8)},
		{"Slice(-1,2)", x, -1, 2, false, span(-1, 2, 8)},
		{"Slice(-2,-1)", x, -2, -1, false, span(-2, -1, 8)},
		{"zero.Slice(0,0)", zero, 0, 0, false, zeroText},
	}
	check := func(name, how string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: %s reported no error", name, how)
			return
		}
		if !errors.Is(err, ErrBounds) {
			t.Errorf("%s: %s error %q is not ErrBounds", name, how, err)
		}
		if err.Error() != want {
			t.Errorf("%s: %s error %q, want %q", name, how, err, want)
		}
	}
	panicOf := func(f func()) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err, _ = r.(error)
			}
		}()
		f()
		return nil
	}
	for _, c := range cases {
		_, err := c.r.SliceChecked(c.i, c.j)
		check(c.name, "SliceChecked", err, c.want)
		check(c.name, "Slice panic", panicOf(func() { c.r.Slice(c.i, c.j) }), c.want)
		if c.at {
			check(c.name, "At panic", panicOf(func() { c.r.At(c.i) }), c.want)
		}
	}

	// The edges that are in bounds.
	if s := x.At(7); s.off != 64+7*8 || s.n != 1 || s.kind != dynamicRef {
		t.Errorf("At(7) = %+v", s)
	}
	if s := x.Slice(8, 8); s.off != 64+8*8 || s.n != 0 || !s.valid() {
		t.Errorf("Slice(8,8) = %+v", s)
	}
	if s, err := x.SliceChecked(2, 5); err != nil || s.off != 64+2*8 || s.n != 3 {
		t.Errorf("SliceChecked(2,5) = %+v, %v", s, err)
	}

	// The two shape rules behind the inlined At (docs/PERFORMANCE.md, "The
	// data path"): three words, and few enough fields that the compiler
	// keeps a Ref in registers.
	if sz := unsafe.Sizeof(x); sz > 24 {
		t.Errorf("Ref is %d bytes; every elemental op copies it, keep it <= 24", sz)
	}
	if nf := reflect.TypeOf(x).NumField(); nf > 4 {
		t.Errorf("Ref has %d fields; the compiler keeps structs of at most 4 in registers", nf)
	}
}

// TestElementalErrorEquivalence drives G, P, CSwap, FAdd and Swap with
// every operand their one-test fast branch (wordOn) must turn away, and
// checks each against what the checks did when they ran one by one on
// every call: the error class and the traffic counters the operation had
// bumped by the time it failed. A fast branch that swallowed a check, or a
// slow branch that counts differently, fails here.
func TestElementalErrorEquivalence(t *testing.T) {
	type outcome struct {
		err   error // class, matched with errors.Is; nil means success
		delta Stats
	}
	type op struct {
		name string
		run  func(pe *PE, r Ref[int64], tpe int) error
		ok   Stats // what a successful call on an int64 counts
	}
	ops := []op{
		{"G", func(pe *PE, r Ref[int64], tpe int) error { _, err := G(pe, r, tpe); return err }, Stats{Gets: 1, GetBytes: 8}},
		{"P", func(pe *PE, r Ref[int64], tpe int) error { return P(pe, r, 5, tpe) }, Stats{Puts: 1, PutBytes: 8}},
		{"CSwap", func(pe *PE, r Ref[int64], tpe int) error { _, err := CSwap(pe, r, 0, 1, tpe); return err }, Stats{Atomics: 1}},
		{"FAdd", func(pe *PE, r Ref[int64], tpe int) error { _, err := FAdd(pe, r, 1, tpe); return err }, Stats{Atomics: 1}},
		{"Swap", func(pe *PE, r Ref[int64], tpe int) error { _, err := Swap(pe, r, 3, tpe); return err }, Stats{Atomics: 1}},
	}
	atomic := func(o op) bool { return o.ok.Atomics == 1 }

	for _, cfg := range []Config{gxCfg(2), proCfg(2)} {
		interrupts := cfg.Chip.UDNInterrupts
		t.Run(cfg.Chip.Name, func(t *testing.T) {
			runT(t, cfg, func(pe *PE) error {
				st, err := DeclareStatic[int64](pe, "word", 2)
				if err != nil {
					return err
				}
				if err := pe.BarrierAll(); err != nil {
					return err
				}
				expect := func(name string, want outcome, call func() error) {
					t.Helper()
					before := pe.Stats()
					err := call()
					if want.err == nil && err != nil || want.err != nil && !errors.Is(err, want.err) {
						t.Errorf("%s: error %v, want %v", name, err, want.err)
					}
					after := pe.Stats()
					got := Stats{
						Puts: after.Puts - before.Puts, PutBytes: after.PutBytes - before.PutBytes,
						Gets: after.Gets - before.Gets, GetBytes: after.GetBytes - before.GetBytes,
						Atomics: after.Atomics - before.Atomics, Redirects: after.Redirects - before.Redirects,
					}
					if got != want.delta {
						t.Errorf("%s: counted %+v, want %+v", name, got, want.delta)
					}
				}
				part := pe.prog.partSize
				if pe.MyPE() == 0 {
					for _, o := range ops {
						var zero Ref[int64]
						want := outcome{err: ErrBounds}
						if atomic(o) {
							want.err = ErrStatic // atomics ask "dynamic?" first
						}
						expect(o.name+"/zero Ref", want, func() error { return o.run(pe, zero, 1) })

						// A remote static word: redirected over a UDN interrupt
						// where the chip has them (through a scratch bounce, the
						// local side being private too), counted and refused
						// where it does not; never an atomic's target.
						switch {
						case atomic(o):
							want = outcome{err: ErrStatic}
						case interrupts:
							want = outcome{delta: o.ok}
							want.delta.Redirects = 1
						default:
							want = outcome{err: ErrNotSupported, delta: o.ok}
						}
						expect(o.name+"/static Ref", want, func() error { return o.run(pe, st.At(1), 1) })

						// The last word of the partition is in bounds; the
						// one after it is not. (The one place this differs
						// from the code before wordOn: an atomic there was an
						// unchecked index that panicked in the runtime, and is
						// ErrBounds now like G and P.)
						expect(o.name+"/ends at partSize", outcome{delta: o.ok},
							func() error { return o.run(pe, dynRef[int64](part-8, 1), 1) })
						expect(o.name+"/ends past partSize", outcome{err: ErrBounds},
							func() error { return o.run(pe, dynRef[int64](part-8, 2).At(1), 1) })

						for _, bad := range []int{-1, 2} {
							expect(fmt.Sprintf("%s/PE %d", o.name, bad), outcome{err: ErrBadPE},
								func() error { return o.run(pe, dynRef[int64](0, 1), bad) })
						}
					}
					// A 16-byte element is no machine word: it moves as a block.
					z := dynRef[complex128](64, 2)
					expect("P/complex128", outcome{delta: Stats{Puts: 1, PutBytes: 16}},
						func() error { return P(pe, z.At(1), complex(1, 2), 1) })
					expect("G/complex128", outcome{delta: Stats{Gets: 1, GetBytes: 16}},
						func() error {
							v, err := G(pe, z.At(1), 1)
							if err == nil && v != complex(1, 2) {
								err = fmt.Errorf("read back %v", v)
							}
							return err
						})
				}
				if err := pe.Finalize(); err != nil {
					return err
				}
				for _, o := range ops {
					expect(o.name+"/finalized", outcome{err: ErrFinalized},
						func() error { return o.run(pe, dynRef[int64](0, 1), pe.MyPE()) })
				}
				return nil
			})
		})
	}
}

// TestStampTableMatchesMap drives watchHub's stamp table with seeded random
// store streams and checks every read against the map it replaced, kept
// here as the reference: one stamp per byte offset, overwritten only by a
// later visibility time. Waiters merge their clocks with these stamps, so
// the table may not differ from the map even once. Half the trials start on
// a fresh hub; the other half share one hub, reset between them as
// check-in resets a pooled shell's: a kept table must read as a fresh one.
func TestStampTableMatchesMap(t *testing.T) {
	// Words sharing a page, words on neighbouring pages, words far apart,
	// sub-word and odd 32-bit offsets (next to aligned ones and far away),
	// and offsets nobody stores to.
	stored := []int64{0, 8, 16, 120, 128, 136, 248, 4096, 1 << 20, 1<<20 + 8, 7 << 20,
		1, 2, 4, 12, 20, 122, 130, 4100, 1<<20 + 4, 7<<20 + 6}
	never := []int64{24, 112, 256, 384, 2048, 1<<20 + 16, 3 << 20, 8<<20 - 8, 3, 28, 4104, 5<<20 + 2}
	rng := rand.New(rand.NewSource(17))
	newHub := func() *Program {
		p := &Program{hubs: make([]watchHub, 1)}
		p.sched = newEvsched(p, make([]evNode, 1), nil)
		return p
	}
	kept := newHub()
	var keptTop int64 // highest word-aligned offset stored through the kept hub
	for trial := 0; trial < 50; trial++ {
		// Trials 0 and 1 of every four get a fresh hub, 2 and 3 the kept one.
		p, fresh := kept, trial%4 < 2
		if fresh {
			p = newHub()
		}
		h := &p.hubs[0]
		ref := make(map[int64]hubStamp)
		compare := func(off int64) {
			t.Helper()
			if got, want := h.stamp(off), ref[off]; got != want {
				t.Fatalf("trial %d: stamp(%d) = %+v, the map says %+v", trial, off, got, want)
			}
		}
		for _, off := range append(stored, never...) {
			compare(off)
		}
		if fresh && (h.dir != nil || h.pages != nil || h.odd != nil) {
			t.Fatalf("trial %d: reads alone allocated (%d directory entries, %d pages, map %v)", trial, len(h.dir), len(h.pages), h.odd != nil)
		}
		if len(h.pages) != 0 || len(h.odd) != 0 || slices.ContainsFunc(h.dir, func(e int32) bool { return e != 0 }) {
			t.Fatalf("trial %d: reads alone made %d pages and %d sub-word stamps", trial, len(h.pages), len(h.odd))
		}
		// Every other trial touches only a few offsets, in a random order,
		// so a fresh hub's directory grows both from the bottom and
		// straight to the top.
		offs := stored
		if trial%2 == 1 {
			offs = make([]int64, 1+rng.Intn(4))
			for i := range offs {
				offs[i] = stored[rng.Intn(len(stored))]
			}
		}
		var top int64 // highest word-aligned offset stored through this trial
		for step := 0; step < 400; step++ {
			off := offs[rng.Intn(len(offs))]
			tm := vtime.Time(rng.Intn(200)) // non-monotone, with repeats and zeros
			writer := rng.Intn(36)
			wrote := rng.Intn(8) != 0 // a failed compare-and-swap publishes nothing
			if wrote {
				p.publish(0, off, tm, writer)
			}
			if wrote && tm > ref[off].t {
				ref[off] = hubStamp{t: tm, writer: int32(writer)}
			}
			if wrote && off%8 == 0 && off > top {
				top = off
			}
			compare(off)
			compare(stored[rng.Intn(len(stored))])
			compare(never[rng.Intn(len(never))])
		}
		for _, off := range append(stored, never...) {
			compare(off)
		}
		// Geometric growth keeps the directory under twice what the highest
		// stored-through page needs; a kept directory keeps what earlier
		// trials grew it to.
		if !fresh {
			keptTop = max(keptTop, top)
			top = keptTop
		}
		if limit := 2 * (int(top/stampPageBytes) + 1); len(h.dir) > limit {
			t.Fatalf("trial %d: %d directory entries for a highest page of %d", trial, len(h.dir), top/stampPageBytes)
		}
		if !fresh {
			h.reset()
		}
	}
}

// TestElementalZeroAllocs holds the steady-state elemental and atomic
// operations on dynamic objects, and the At that names their operand, to
// zero allocations — including a store's second touch of a stamp page,
// whose first made the page.
func TestElementalZeroAllocs(t *testing.T) {
	if os.Getenv("TSHMEM_SANITIZE") != "" {
		t.Skip("this loop runs no barrier, so none of its shadow records retires and the sanitizer's lists grow to their cap; TestSanitizedPhaseZeroAllocs holds the sanitized steady state to zero")
	}
	runT(t, gxCfg(2), func(pe *PE) error {
		x, err := Malloc[int64](pe, 64)
		if err != nil {
			return err
		}
		if pe.MyPE() == 0 {
			// i0 is the first element on a stamp-page boundary: the warm-up
			// store makes the page, the measured ones share it.
			i0 := 0
			for (x.off+int64(i0)*8)%stampPageBytes != 0 {
				i0++
			}
			if err := P(pe, x.At(i0), 1, 1); err != nil {
				return err
			}
			var sink Ref[int64]
			if n := testing.AllocsPerRun(100, func() { sink = x.At(i0 + 1) }); n != 0 {
				t.Errorf("At allocates %v times", n)
			}
			_ = sink
			var opErr error
			n := testing.AllocsPerRun(100, func() {
				if _, err := G(pe, x.At(i0), 1); err != nil {
					opErr = err
				}
				if err := P(pe, x.At(i0+1), 2, 1); err != nil {
					opErr = err
				}
				if _, err := CSwap(pe, x.At(i0+2), 0, 0, 1); err != nil {
					opErr = err
				}
				if _, err := FAdd(pe, x.At(i0+3), 1, 1); err != nil {
					opErr = err
				}
			})
			if opErr != nil {
				return opErr
			}
			if n != 0 {
				t.Errorf("G + P + CSwap + FAdd allocate %v times per round", n)
			}
		}
		return pe.BarrierAll()
	})
}

// subwordNeighbours fills one 8-byte word's worth of T on PE 1, has PE 0
// store each element in turn with P, and checks through G (from PE 0) and
// Local (on PE 1) that exactly that element changed.
func subwordNeighbours[T Elem](t *testing.T, pe *PE, val func(i int) T) error {
	n := int(8 / sizeOf[T]())
	w, err := Malloc[T](pe, n)
	if err != nil {
		return err
	}
	loc := MustLocal(pe, w)
	want := make([]T, n)
	for i := range want {
		want[i] = val(i)
		loc[i] = want[i]
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	for i := range want {
		want[i] = val(n + i)
		if pe.MyPE() == 0 {
			if err := P(pe, w.At(i), want[i], 1); err != nil {
				return err
			}
			for j := range want {
				if got, err := G(pe, w.At(j), 1); err != nil || got != want[j] {
					t.Errorf("%T: after P to element %d, G of element %d = %v, %v; want %v", want[0], i, j, got, err, want[j])
				}
			}
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if pe.MyPE() == 1 && !slices.Equal(loc, want) {
			t.Errorf("%T: after P to element %d the word holds %v, want %v", want[0], i, loc, want)
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
	}
	return Free(pe, w)
}

// TestSubwordNeighbours drives the elemental operations on elements that
// share a machine word with others: a store must change its own bytes only,
// whatever the element type, a wait on one 16-bit element must see stores to
// it and not to its neighbours, and an element that ends on the last byte of
// a partition whose size is not a multiple of the word must be reachable.
func TestSubwordNeighbours(t *testing.T) {
	runT(t, gxCfg(2), func(pe *PE) error {
		return errors.Join(
			subwordNeighbours(t, pe, func(i int) int8 { return int8(-3 - i) }),
			subwordNeighbours(t, pe, func(i int) uint8 { return uint8(0xf0 + i) }),
			subwordNeighbours(t, pe, func(i int) int16 { return int16(-300 - i) }),
			subwordNeighbours(t, pe, func(i int) uint16 { return uint16(0xff00 + i) }),
			subwordNeighbours(t, pe, func(i int) int32 { return int32(-70000 - i) }),
			subwordNeighbours(t, pe, func(i int) uint32 { return uint32(0xffff0000 + i) }),
			subwordNeighbours(t, pe, func(i int) int64 { return int64(-1<<40 - i) }),
			subwordNeighbours(t, pe, func(i int) uint64 { return 1<<63 + uint64(i) }),
			subwordNeighbours(t, pe, func(i int) float32 { return float32(i) + 0.5 }),
			subwordNeighbours(t, pe, func(i int) float64 { return float64(i) - 0.25 }),
			subwordNeighbours(t, pe, func(i int) complex64 { return complex(float32(i), -1) }),
		)
	})

	// PE 1 waits on element 1 of four int16s. Stores to elements 0 and 2
	// wake it (same hub) but must not satisfy it; PE 0 hands the baton on
	// after them so that PE 1 really re-polls before element 1 is written.
	var wrote bool
	var wroteAt vtime.Time
	runT(t, gxCfg(2), func(pe *PE) error {
		w, err := Malloc[int16](pe, 4)
		if err != nil {
			return err
		}
		if pe.MyPE() == 1 {
			if err := WaitUntil(pe, w.At(1), CmpNE, 0); err != nil {
				return err
			}
			if !wrote {
				t.Error("WaitUntil on element 1 returned before element 1 was written")
			}
			if pe.Now() < wroteAt {
				t.Errorf("waiter resumed at %v, before the store became visible at %v", pe.Now(), wroteAt)
			}
			return pe.BarrierAll()
		}
		pe.ComputeIntOps(100_000) // the store's stamp, not the waiter's own clock, must set the resume time
		for _, i := range []int{0, 2} {
			if err := P(pe, w.At(i), 7, 1); err != nil {
				return err
			}
		}
		pe.yieldSpin()
		wrote = true
		if err := P(pe, w.At(1), 7, 1); err != nil {
			return err
		}
		wroteAt = pe.Now()
		return pe.BarrierAll()
	})

	// The last element of a partition of 4096 + 2 bytes, as an int16 and as
	// an int8: the highest offset the allocator hands out.
	cfg := gxCfg(2)
	cfg.HeapPerPE = 4096 + 2
	runT(t, cfg, func(pe *PE) error {
		if _, err := Malloc[int64](pe, 4096/8); err != nil {
			return err
		}
		last16, err := Malloc[int16](pe, 1)
		if err != nil {
			return err
		}
		if end := last16.off + 2; end != cfg.HeapPerPE {
			t.Errorf("the int16 ends at %d, want the partition's end %d", end, cfg.HeapPerPE)
		}
		peer := 1 - pe.MyPE()
		if err := P(pe, last16, int16(-2-pe.MyPE()), peer); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if got, err := G(pe, last16, peer); err != nil || got != int16(-2-pe.MyPE()) {
			t.Errorf("int16 at the partition's end: G = %d, %v; want %d", got, err, -2-pe.MyPE())
		}
		if got := MustLocal(pe, last16)[0]; got != int16(-2-peer) {
			t.Errorf("int16 at the partition's end: Local = %d, want %d", got, -2-peer)
		}
		if err := Free(pe, last16); err != nil {
			return err
		}
		last8, err := Malloc[int8](pe, 1)
		if err != nil {
			return err
		}
		if last8.off != last16.off {
			t.Errorf("the int8 sits at %d, want %d", last8.off, last16.off)
		}
		if err := P(pe, last8, int8(-5-pe.MyPE()), peer); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if got, err := G(pe, last8, peer); err != nil || got != int8(-5-pe.MyPE()) {
			t.Errorf("int8 near the partition's end: G = %d, %v; want %d", got, err, -5-pe.MyPE())
		}
		return pe.BarrierAll()
	})
}

// datapathBody drives every data-path op shape between barriers, each PE
// toward its ring neighbours: G and P (a word a neighbour waits on, and a
// 16-byte element that moves as a block), Swap, a CSwap that stores and
// one that does not, FAdd, IPut/IGet, PutSlice/GetSlice, Put and Get to
// itself and to a neighbour, a Get under a concurrency hint of 4, and a
// static-static Put and Get.
// The statics are redirected over a UDN interrupt where the chip has them
// and the pair shares a chip, and refused with ErrNotSupported elsewhere:
// both ways out of the redirect tail are taken across the chips.
//
// The last step races on purpose, so that a record holds every sanitizer
// hook of the data path in its diagnostics: each PE's transfers touch its
// neighbours' y with nothing ordering them, and its P signals a flag while
// a put to the same PE is unfenced. On PE 0's u, a CSwap that never stores
// is the acquire edge that alone orders each PE's get and put after the
// previous PE's, which released with a fetch-add.
func datapathBody(pe *PE) error {
	const n = 16
	x, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	y, err := Malloc[int64](pe, n)
	if err != nil {
		return err
	}
	words, err := Malloc[int64](pe, 4)
	if err != nil {
		return err
	}
	z, err := Malloc[complex128](pe, 1)
	if err != nil {
		return err
	}
	u, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	stSrc, err := DeclareStatic[int64](pe, "dp-src", n)
	if err != nil {
		return err
	}
	stDst, err := DeclareStatic[int64](pe, "dp-dst", n)
	if err != nil {
		return err
	}
	me, np := pe.MyPE(), pe.NumPEs()
	next, prev := (me+1)%np, (me+np-1)%np
	lv := MustLocal(pe, x)
	for i := range lv {
		lv[i] = int64(me*n + i)
	}
	copy(MustLocal(pe, stSrc), lv)
	steps := []func() error{
		func() error {
			// Each PE waits for its left neighbour's P: the stamp it merges
			// with is when that store became visible, wire and stretch
			// included.
			if err := P(pe, y.At(me%n), int64(me)+1, next); err != nil {
				return err
			}
			return WaitUntil(pe, y.At(prev%n), CmpEQ, int64(prev)+1)
		},
		func() error { _, err := G(pe, x.At(3), prev); return err },
		func() error { return P(pe, z, complex(float64(me), 1), next) },
		func() error { _, err := G(pe, z, prev); return err },
		func() error {
			if _, err := FAdd(pe, words.At(0), 3, next); err != nil {
				return err
			}
			if _, err := Swap(pe, words.At(1), int64(me), next); err != nil {
				return err
			}
			if _, err := CSwap(pe, words.At(2), 0, int64(me)+1, next); err != nil { // stores
				return err
			}
			_, err := CSwap(pe, words.At(2), 0, int64(me)+2, next) // finds me+1: no store
			return err
		},
		func() error { return IPut(pe, y, x, 2, 1, n/2, next) },
		func() error { return IGet(pe, y, x, 1, 2, n/2, prev) },
		func() error { return PutSlice(pe, y, lv[:n/2], next) },
		func() error { return GetSlice(pe, lv[n/2:], y, prev) },
		func() error {
			if err := Put(pe, y, x, n, me); err != nil {
				return err
			}
			return Put(pe, stDst, stSrc, n, me)
		},
		func() error { return Put(pe, y, x, n, next) },
		func() error { return Get(pe, y, x, n, prev) },
		func() error {
			restore := pe.WithConcurrency(4)
			defer restore()
			return Get(pe, y, x, n, prev)
		},
		func() error {
			if err := Put(pe, stDst, stSrc, n, next); err != nil && !errors.Is(err, ErrNotSupported) {
				return err
			}
			return nil
		},
		func() error {
			if err := Get(pe, stSrc, stDst, n, prev); err != nil && !errors.Is(err, ErrNotSupported) {
				return err
			}
			return nil
		},
		func() error { // racy
			if _, err := CSwap(pe, words.At(0), -1, 0, 0); err != nil {
				return err
			}
			if _, err := G(pe, u, 0); err != nil {
				return err
			}
			if err := Put(pe, u, x, 1, 0); err != nil {
				return err
			}
			pe.Quiet()
			if err := Add(pe, words.At(0), 1, 0); err != nil {
				return err
			}
			return errors.Join(
				Put(pe, y, y, n, next),
				P(pe, words.At(3), 1, next),
				Get(pe, y, y, n, prev),
				func() error { _, err := G(pe, y.At(5), prev); return err }(),
				IPut(pe, y.Slice(9, n), y.Slice(9, n), 2, 1, 3, next),
				IGet(pe, y.Slice(10, n), y.Slice(10, n), 1, 2, 3, prev),
				PutSlice(pe, y, lv[:4], next),
				GetSlice(pe, lv[4:8], y, prev),
				func() error {
					if err := Put(pe, stDst, stSrc, n, next); !errors.Is(err, ErrNotSupported) {
						return err
					}
					if err := Get(pe, stSrc, stDst, n, prev); !errors.Is(err, ErrNotSupported) {
						return err
					}
					return nil
				}())
		},
	}
	for _, step := range steps {
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if err := step(); err != nil {
			return err
		}
	}
	return pe.BarrierAll()
}

// datapathRun is one configuration of the data-path goldens and the
// observer-invariance test.
type datapathRun struct {
	label string
	cfg   Config
}

// datapathRuns are the configurations the data-path goldens and the
// observer-invariance test run datapathBody under: the three catalogued
// chip families, a plan that stretches copies (TileSlow on one tile,
// CacheStuck on another's home lines), and the Gx over two chips, where
// 3 -> 4 and 7 -> 0 cross the mPIPE fabric.
func datapathRuns(t *testing.T) []datapathRun {
	t.Helper()
	plan, err := fault.Parse("tileslow:pe=1,factor=3;cachestuck:pe=2,factor=5")
	if err != nil {
		t.Fatal(err)
	}
	var runs []datapathRun
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64(), arch.EpiphanyIII()} {
		runs = append(runs, datapathRun{"datapath/" + chip.Name, Config{Chip: chip}})
	}
	return append(runs,
		datapathRun{"datapath/faulted", Config{Chip: arch.Gx8036(), Faults: plan}},
		datapathRun{"datapath/multichip", Config{Chip: arch.Gx8036(), NChips: 2}})
}

// TestDatapathGoldens holds datapathBody, with every observer on, to its
// recorded clocks, counters, link traffic, trace, profile and diagnostics.
func TestDatapathGoldens(t *testing.T) {
	t.Setenv("TSHMEM_SANITIZE", "") // the last step's races are the point
	g := openGolden(t)
	for _, r := range datapathRuns(t) {
		cfg := r.cfg
		cfg.NPEs, cfg.HeapPerPE, cfg.ScratchBytes = 8, 1<<16, 1<<16
		cfg.Observe, cfg.Trace, cfg.Sanitize, cfg.Profile = true, true, true, true
		rep, err := Run(cfg, datapathBody)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		g.check(t, r.label, rep, printOf(t, rep))
	}
}

// TestDatapathObserverInvariance: observers watch, they do not model. In
// every data-path configuration, and in the programs that drive the computed
// chain barrier and the start_pes exchange — sync-storm in small, the
// collectives, an empty body at 256 PEs — each observer mode (none, each
// alone, all four) ends every PE at the same clock with the same traffic. A
// modeled charge that only an observed run pays (the fault stretch, the
// mPIPE leg), or a signal or report an observed run prices another way,
// shows here as the plain mode drifting from the others.
func TestDatapathObserverInvariance(t *testing.T) {
	t.Setenv("TSHMEM_SANITIZE", "")
	type input struct {
		datapathRun
		body func(*PE) error
	}
	var inputs []input
	for _, r := range datapathRuns(t) {
		r.cfg.NPEs = 8
		inputs = append(inputs, input{r, datapathBody})
	}
	inputs = append(inputs,
		input{datapathRun{"chain/sync-storm", Config{NPEs: 36}}, stormLikeBody(8)},
		input{datapathRun{"chain/collectives", Config{NPEs: 36}}, collectivesBody(3)},
		input{datapathRun{"start_pes/synthetic-16x16", Config{Chip: arch.Synthetic(16, 16), NPEs: 256}}, func(*PE) error { return nil }})
	for _, r := range inputs {
		var want runPrint
		for i, obs := range chainObservers {
			cfg := obs.cfg
			cfg.Chip, cfg.NChips, cfg.Faults, cfg.NPEs = r.cfg.Chip, r.cfg.NChips, r.cfg.Faults, r.cfg.NPEs
			cfg.HeapPerPE, cfg.ScratchBytes = 1<<16, 1<<16
			rep, err := Run(cfg, r.body)
			if err != nil {
				t.Fatalf("%s/%s: %v", r.label, obs.name, err)
			}
			got := clocksOf(rep)
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s run diverged from the plain one:\n  got  %+v\n  want %+v", r.label, obs.name, got, want)
			}
		}
	}
}

// TestObservedRidesInPadding: the per-PE observer predicate sits in the
// padding after PE.finalized, and the run's state stays in its allocator
// size class (6 784 B). A field that grows either is paid by every launch.
func TestObservedRidesInPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are pinned for 64-bit hosts")
	}
	var pe PE
	if sz := unsafe.Sizeof(pe); sz > 392 {
		t.Errorf("PE is %d bytes, want at most 392", sz)
	}
	var p Program
	if sz := unsafe.Sizeof(p); sz > 6784 {
		t.Errorf("Program is %d bytes, past its 6 784 B size class", sz)
	}
}
