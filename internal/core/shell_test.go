package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/cache"
	"tshmem/internal/fault"
)

// shellCleanBody is the tenant TestRecycledShellIsFresh holds to its fresh
// run: heap allocations, two waits whose predicates already hold on words
// nobody stores to here (a sub-word one and a word-aligned one, so each
// merges with the zero stamp a fresh shell holds), a put signalled through a
// watched flag, a lock, an atomic, a static transfer (interrupt-served where
// the chip has UDN interrupts) and barriers, each PE paired with rank me^1.
func shellCleanBody(pe *PE) error {
	me := pe.MyPE()
	peer := me ^ 1
	half, err := Malloc[int32](pe, 2)
	if err != nil {
		return err
	}
	x, err := Malloc[int64](pe, 64)
	if err != nil {
		return err
	}
	if err := WaitUntil(pe, half.At(1), CmpEQ, 0); err != nil {
		return err
	}
	if err := WaitUntil(pe, x.At(0), CmpGE, 0); err != nil {
		return err
	}
	flag, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	lk, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	ctr, err := Malloc[int64](pe, 1)
	if err != nil {
		return err
	}
	st, err := DeclareStatic[int64](pe, "shell", 16)
	if err != nil {
		return err
	}
	for i, lv := 0, MustLocal(pe, x); i < len(lv); i++ {
		lv[i] = int64(me)<<16 | int64(i)
	}
	if err := Put(pe, x, x, 32, peer); err != nil {
		return err
	}
	pe.Quiet()
	if err := P(pe, flag, 1, peer); err != nil {
		return err
	}
	if err := WaitUntil(pe, flag, CmpEQ, 1); err != nil {
		return err
	}
	if err := pe.SetLock(lk); err != nil {
		return err
	}
	if _, err := FAdd(pe, ctr, 1, 0); err != nil {
		return err
	}
	if err := pe.ClearLock(lk); err != nil {
		return err
	}
	if err := Put(pe, st, x, 16, peer); err != nil {
		return err
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	if err := Get(pe, x, st, 16, peer); err != nil {
		return err
	}
	return pe.BarrierAll()
}

// shellTenant is a run that leaves the launch state of its shape dirty
// before a clean body of the same shape takes it over.
type shellTenant struct {
	name    string
	cfg     func(*Config)
	body    func(pe *PE) error
	wantErr bool
}

// shellTenants: between them they malloc, leave locks held under every lock
// algorithm, queue on an MCS lock, stamp the watch hubs, run subset and
// counter barriers, fail, Goexit, time out under a fault plan, run with
// every observer on, fill the static registry through UDN interrupts and
// run on a chip of the same shape whose transfers cost more.
func shellTenants() []shellTenant {
	var ts []shellTenant
	for _, la := range LockAlgos() {
		ts = append(ts, shellTenant{
			name: "stamps/" + la.String(),
			cfg:  func(c *Config) { c.LockAlgo, c.BarrierAlgo = la, BarrierAlgoCounter },
			body: stampsTenantBody,
		})
	}
	ts = append(ts, shellTenant{
		name: "mallocs",
		body: func(pe *PE) error {
			for _, n := range []int{1, 100, 7, 1000} {
				r, err := Malloc[int64](pe, n)
				if err != nil {
					return err
				}
				for i, lv := 0, MustLocal(pe, r); i < len(lv); i++ {
					lv[i] = -1
				}
				if n == 7 {
					if err := Free(pe, r); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	for _, la := range LockAlgos() {
		ts = append(ts, shellTenant{
			name: "held-lock/" + la.String(),
			cfg:  func(c *Config) { c.LockAlgo = la },
			body: func(pe *PE) error {
				lk, err := Malloc[int64](pe, 1)
				if err != nil {
					return err
				}
				if pe.MyPE() == 0 {
					if err := pe.SetLock(lk); err != nil {
						return err
					}
				}
				return pe.BarrierAll()
			},
		})
	}
	ts = append(ts, shellTenant{
		name: "mcs-queue",
		cfg:  func(c *Config) { c.LockAlgo = LockAlgoMCS },
		body: func(pe *PE) error {
			lk, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			// The holder leaves without releasing: the queue behind it
			// deadlocks, and the calendar aborts the run.
			return pe.SetLock(lk)
		},
		wantErr: true,
	}, shellTenant{
		name: "wait-until",
		body: func(pe *PE) error {
			// Late stamps on the words the clean body's flag and lock use,
			// and on others besides.
			flags, err := Malloc[int64](pe, 128)
			if err != nil {
				return err
			}
			pe.ComputeIntOps(1 << 20)
			peer := pe.MyPE() ^ 1
			for i := 0; i < 128; i += 4 {
				if err := P(pe, flags.At(i), int64(i+1), peer); err != nil {
					return err
				}
			}
			for i := 0; i < 128; i += 4 {
				if err := WaitUntil(pe, flags.At(i), CmpEQ, int64(i+1)); err != nil {
					return err
				}
			}
			return nil
		},
	}, shellTenant{
		name: "subset-barrier",
		body: func(pe *PE) error {
			evens := ActiveSet{Start: 0, LogStride: 1, Size: pe.NumPEs() / 2}
			if pe.MyPE()%2 == 0 {
				if err := pe.Barrier(evens); err != nil {
					return err
				}
			}
			return pe.BarrierAll()
		},
	}, shellTenant{
		name: "counter-barrier",
		cfg:  func(c *Config) { c.BarrierAlgo = BarrierAlgoCounter },
		body: func(pe *PE) error {
			for i := 0; i < 3; i++ {
				if err := pe.BarrierAll(); err != nil {
					return err
				}
			}
			return nil
		},
	}, shellTenant{
		name: "body-error",
		body: func(pe *PE) error {
			if _, err := Malloc[int64](pe, 32); err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				return errors.New("dirty tenant fails")
			}
			return pe.BarrierAll()
		},
		wantErr: true,
	}, shellTenant{
		name: "goexit",
		body: func(pe *PE) error {
			if pe.MyPE() == 1 {
				runtime.Goexit()
			}
			return pe.BarrierAll()
		},
		wantErr: true,
	}, shellTenant{
		name: "timeout",
		cfg:  func(c *Config) { c.Faults = &fault.Plan{} },
		body: func(pe *PE) error {
			flag, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				return WaitUntil(pe, flag, CmpNE, 0)
			}
			return nil
		},
		wantErr: true,
	}, shellTenant{
		name: "observed",
		cfg:  func(c *Config) { c.Observe, c.Trace, c.Profile, c.Sanitize = true, true, true, true },
		body: shellCleanBody,
	}, shellTenant{
		name: "statics",
		body: staticsTenantBody,
	}, shellTenant{
		name: "other-chip",
		cfg:  func(c *Config) { c.Chip = slowerCopies(c.Chip) },
		body: otherChipBody,
	})
	return ts
}

// staticsTenantBody fills the run's static registry: it declares a static
// of its own and the clean body's "shell" in another shape, and moves data
// to and from each peer's copies, which the peer's UDN interrupt handler
// serves where the chip has UDN interrupts.
func staticsTenantBody(pe *PE) error {
	peer := pe.MyPE() ^ 1
	own, err := DeclareStatic[int64](pe, "tenant", 32)
	if err != nil {
		return err
	}
	shell, err := DeclareStatic[int32](pe, "shell", 3)
	if err != nil {
		return err
	}
	buf, err := Malloc[int64](pe, 32)
	if err != nil {
		return err
	}
	for i, lv := 0, MustLocal(pe, buf); i < len(lv); i++ {
		lv[i] = int64(pe.MyPE())<<8 | int64(i)
	}
	if err := Put(pe, own, buf, 32, peer); err != nil {
		return err
	}
	if err := P(pe, shell.At(2), int32(pe.MyPE()+1), peer); err != nil {
		return err
	}
	pe.Quiet()
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	if err := Get(pe, buf, own, 32, peer); err != nil {
		return err
	}
	return pe.BarrierAll()
}

// otherChipBody checks that the puts of the clean body's sizes cost what a
// model of the run's own chip says, then runs the clean body. On a shell
// the clean body used last, a kept cost model or a kept copy-cost memo
// prices them at the clean body's chip's rates.
func otherChipBody(pe *PE) error {
	model := cache.NewModel(pe.prog.Chip())
	x, err := Malloc[int64](pe, 32)
	if err != nil {
		return err
	}
	for _, n := range []int{16, 32} {
		t0 := pe.Now()
		if err := Put(pe, x, x, n, pe.MyPE()^1); err != nil {
			return err
		}
		want := model.CopyCostHomed(int64(n)*8, cache.SharedAny, cache.HashForHome, 1)
		if got := pe.Now().Sub(t0); got != want {
			return fmt.Errorf("PE %d: a %d-element put on %s cost %v, its model says %v", pe.MyPE(), n, pe.prog.Chip().Name, got, want)
		}
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	return shellCleanBody(pe)
}

// slowerCopies returns a copy of chip whose copy curves reach half the
// bandwidth: a launch on it takes the same shell as one on chip, and a cost
// model or copy-cost memo the shell kept from it would price chip's
// transfers at its rates.
func slowerCopies(chip *arch.Chip) *arch.Chip {
	c := *chip
	half := func(curve arch.CopyCurve) arch.CopyCurve {
		out := slices.Clone(curve)
		for i := range out {
			out[i].MBs /= 2
		}
		return out
	}
	c.PrivateCopy, c.SharedCopy = half(chip.PrivateCopy), half(chip.SharedCopy)
	return &c
}

// stampsTenantBody fills what a run keeps per word late in virtual time: it
// stamps words across the peer's partition with P, CSwap and FAdd (the
// first at the offset of the clean body's word-aligned wait), stamps a
// sub-word at the offset of the clean body's sub-word wait, takes and
// releases every lock of an array, contended, and meets at counter
// barriers when the run's BarrierAlgo is the counter's.
func stampsTenantBody(pe *PE) error {
	peer := pe.MyPE() ^ 1
	half, err := Malloc[int32](pe, 2)
	if err != nil {
		return err
	}
	words, err := Malloc[int64](pe, int(pe.HeapFree()/8)-64)
	if err != nil {
		return err
	}
	locks, err := Malloc[int64](pe, 4)
	if err != nil {
		return err
	}
	pe.ComputeIntOps(1 << 20)
	if err := P(pe, half.At(1), int32(7), peer); err != nil {
		return err
	}
	for i := 0; i < words.Len(); i += 37 {
		switch w := words.At(i); i % 3 {
		case 0:
			err = P(pe, w, int64(i+1), peer)
		case 1:
			_, err = CSwap(pe, w, 0, int64(i+1), peer)
		default:
			_, err = FAdd(pe, w, int64(i+1), peer)
		}
		if err != nil {
			return err
		}
	}
	if err := pe.BarrierAll(); err != nil {
		return err
	}
	for i := 0; i < locks.Len(); i++ {
		if err := pe.SetLock(locks.At(i)); err != nil {
			return err
		}
		pe.yieldSpin()
		if err := pe.ClearLock(locks.At(i)); err != nil {
			return err
		}
	}
	return pe.BarrierAll()
}

// TestRecycledShellIsFresh checks the promise launch recycling rests on: a
// launch that reuses what an earlier launch of its shape left behind is
// indistinguishable from one that starts from nothing. Each dirty tenant
// is followed by the clean body, fully observed, whose report must equal
// the one it gave on a drained pool: clocks, counters, trace, profile,
// link utilization and diagnostics. Last, a traced and profiled tenant
// leaves the shell's observer buffers full, and the clean body traced
// alone must report what it does on a fresh shell.
func TestRecycledShellIsFresh(t *testing.T) {
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"gx8036", Config{Chip: arch.Gx8036(), NPEs: 16}},
		{"synthetic-16x16", Config{Chip: arch.Synthetic(16, 16), NPEs: 256}},
		{"2-chips", Config{Chip: arch.Gx8036(), NPEs: 8, NChips: 2}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			base := sh.cfg
			base.HeapPerPE, base.ScratchBytes = 64<<10, 64<<10
			clean := base
			clean.Observe, clean.Trace, clean.Profile, clean.Sanitize = true, true, true, true
			drainArenaPool()
			want := runT(t, clean, shellCleanBody)
			for _, tn := range shellTenants() {
				cfg := base
				if tn.cfg != nil {
					tn.cfg(&cfg)
				}
				if _, err := Run(cfg, tn.body); (err != nil) != tn.wantErr {
					t.Fatalf("tenant %s: Run error = %v, want an error: %v", tn.name, err, tn.wantErr)
				}
				got := runT(t, clean, shellCleanBody)
				if diff := freshReportDiff(got, want); diff != "" {
					t.Errorf("after tenant %s the clean body's %s differs from a fresh launch's", tn.name, diff)
				}
			}

			traced := base
			traced.Observe, traced.Trace = true, true
			drainArenaPool()
			want = runT(t, traced, shellCleanBody)
			dirty := traced
			dirty.Profile = true
			runT(t, dirty, mixedBody(20))
			if diff := freshReportDiff(runT(t, traced, shellCleanBody), want); diff != "" {
				t.Errorf("after a traced and profiled tenant the clean traced body's %s differs from a fresh launch's", diff)
			}
		})
	}
}

// TestWarmStampsAllocateNothing holds a warm launch's stamp tables to zero
// allocations: on a shell an earlier launch of its shape grew, a run that
// stamps 4 096 words spread over the partitions allocates within 1 KiB of
// one that stamps 16 (MemStats.TotalAlloc, the least of five runs each).
func TestWarmStampsAllocateNothing(t *testing.T) {
	cfg := Config{NPEs: 2, HeapPerPE: 1 << 20, ScratchBytes: 64 << 10}
	stamps := func(words int) func(pe *PE) error {
		return func(pe *PE) error {
			x, err := Malloc[int64](pe, int(pe.HeapFree()/8))
			if err != nil {
				return err
			}
			peer := (pe.MyPE() + 1) % pe.NumPEs()
			per := words / pe.NumPEs()
			stride := x.Len() / per
			for k := 0; k < per; k++ {
				switch w := x.At(k * stride); k % 3 {
				case 0:
					err = P(pe, w, int64(k+1), peer)
				case 1:
					_, err = CSwap(pe, w, 0, int64(k+1), peer)
				default:
					_, err = FAdd(pe, w, int64(k+1), peer)
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
	}
	allocated := func(body func(pe *PE) error) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(cfg, body); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	drainArenaPool()
	few, many := stamps(16), stamps(4096)
	allocated(many) // the warm-up: the shell's tables grow to the larger run
	f, m := allocated(few), allocated(many)
	t.Logf("a warm launch stamping 16 words allocates %d B, stamping 4 096 words %d B", f, m)
	if m > f+1024 {
		t.Errorf("stamping 4 096 words allocates %d B on a warm shell, %d B more than stamping 16: the stamp tables are not kept", m, m-f)
	}
}

// freshReportDiff names the first part of got that differs from want, or
// returns "".
func freshReportDiff(got, want *Report) string {
	parts := []struct {
		name     string
		got, exp any
	}{
		{"PETimes", got.PETimes, want.PETimes},
		{"Stats()", got.Stats(), want.Stats()},
		{"Trace()", got.Trace(), want.Trace()},
		{"Profile()", got.Profile(), want.Profile()},
		{"MeshUtil", got.MeshUtil, want.MeshUtil},
		{"Diagnostics", got.Diagnostics, want.Diagnostics},
	}
	for _, p := range parts {
		if !reflect.DeepEqual(p.got, p.exp) {
			return fmt.Sprintf("%s (got %v, want %v)", p.name, abbrev(p.got), abbrev(p.exp))
		}
	}
	return ""
}

// abbrev prints v, cut to a line.
func abbrev(v any) string {
	s := fmt.Sprintf("%+v", v)
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
