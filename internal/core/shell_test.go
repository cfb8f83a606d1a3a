package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"tshmem/internal/arch"
	"tshmem/internal/fault"
)

// shellCleanBody is the tenant TestRecycledShellIsFresh holds to its fresh
// run: heap allocations, a put signalled through a watched flag, a lock, an
// atomic, a static transfer (interrupt-served where the chip has UDN
// interrupts) and barriers, each PE paired with rank me^1.
func shellCleanBody(pe *PE) error {
	me := pe.MyPE()
	peer := me ^ 1
	x, err := Malloc[int64](pe, 64)
	if err != nil {
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
// counter barriers, fail, Goexit, time out under a fault plan and run with
// every observer on.
func shellTenants() []shellTenant {
	var ts []shellTenant
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
	})
	return ts
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
