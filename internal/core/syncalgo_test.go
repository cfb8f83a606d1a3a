package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"tshmem/internal/fault"
	"tshmem/internal/stats"
	"tshmem/internal/vtime"
)

// TestSyncAlgoNamesAlign pins the core enums to their stats counterparts:
// the two are kept in declaration order and statsID relies on that, so a
// drifted insertion shows up here instead of as mislabeled histograms.
func TestSyncAlgoNamesAlign(t *testing.T) {
	for _, a := range BarrierAlgos() {
		if got, want := a.statsID().String(), a.String(); got != want {
			t.Errorf("BarrierAlgo %d: stats name %q, core name %q", int(a), got, want)
		}
	}
	if got := (Config{}).BarrierAlgo.statsID(); got != stats.BarrierAlgoLinear {
		t.Errorf("the zero BarrierAlgo's statsID = %v, want linear", got)
	}
	for _, a := range LockAlgos() {
		if got, want := a.statsID().String(), a.String(); got != want {
			t.Errorf("LockAlgo %d: stats name %q, core name %q", int(a), got, want)
		}
	}
	if int(numBarrierAlgos) != int(stats.NumBarrierAlgos) {
		t.Errorf("%d core barrier algorithms vs %d stats ids", int(numBarrierAlgos), int(stats.NumBarrierAlgos))
	}
	if int(numLockAlgos) != int(stats.NumLockAlgos) {
		t.Errorf("%d core lock algorithms vs %d stats ids", int(numLockAlgos), int(stats.NumLockAlgos))
	}
}

// TestSyncAlgoParse round-trips every canonical name plus the documented
// aliases and rejects garbage.
func TestSyncAlgoParse(t *testing.T) {
	for _, a := range BarrierAlgos() {
		got, err := ParseBarrierAlgo(a.String())
		if err != nil || got != a {
			t.Errorf("ParseBarrierAlgo(%q) = %v, %v", a.String(), got, err)
		}
	}
	for spec, want := range map[string]BarrierAlgo{
		"": BarrierAlgoLinear, "default": BarrierAlgoLinear,
		"spin": BarrierAlgoSpin, "mcs": BarrierAlgoMCSTree, "mcstree": BarrierAlgoMCSTree,
	} {
		if got, err := ParseBarrierAlgo(spec); err != nil || got != want {
			t.Errorf("ParseBarrierAlgo(%q) = %v, %v, want %v", spec, got, err, want)
		}
	}
	if _, err := ParseBarrierAlgo("bogus"); err == nil {
		t.Error("ParseBarrierAlgo accepted a bogus name")
	}
	for _, a := range LockAlgos() {
		got, err := ParseLockAlgo(a.String())
		if err != nil || got != a {
			t.Errorf("ParseLockAlgo(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseLockAlgo("bogus"); err == nil {
		t.Error("ParseLockAlgo accepted a bogus name")
	}
}

// TestBarrierAlgoConformance checks the defining property of a barrier
// under every algorithm and several set sizes (including sizes that are
// not powers of two, which exercise the tournament byes and ragged
// trees): no PE exits round r before every PE entered round r.
func TestBarrierAlgoConformance(t *testing.T) {
	for _, algo := range BarrierAlgos() {
		for _, n := range []int{1, 2, 5, 8, 13} {
			const rounds = 4
			var entered [rounds]int64
			_, err := Run(Config{NPEs: n, HeapPerPE: 1 << 16, BarrierAlgo: algo}, func(pe *PE) error {
				for r := 0; r < rounds; r++ {
					atomic.AddInt64(&entered[r], 1)
					if err := pe.BarrierAll(); err != nil {
						return err
					}
					if got := atomic.LoadInt64(&entered[r]); got != int64(n) {
						t.Errorf("%s n=%d round %d: PE %d exited with %d/%d entered",
							algo, n, r, pe.MyPE(), got, n)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s n=%d: %v", algo, n, err)
			}
		}
	}
}

// TestBarrierAlgoSubset rendezvouses the odd-rank half of the program
// under each subset-capable algorithm while even ranks stay out, and
// checks the spin barrier reports subsets as unsupported with a typed
// error.
func TestBarrierAlgoSubset(t *testing.T) {
	const n = 8
	half := ActiveSet{Start: 1, LogStride: 1, Size: n / 2}
	for _, algo := range []BarrierAlgo{
		BarrierAlgoLinear, BarrierAlgoCounter, BarrierAlgoDissemination,
		BarrierAlgoTournament, BarrierAlgoMCSTree,
	} {
		var entered int64
		_, err := Run(Config{NPEs: n, HeapPerPE: 1 << 16, BarrierAlgo: algo}, func(pe *PE) error {
			if half.Contains(pe.MyPE()) {
				atomic.AddInt64(&entered, 1)
				if err := pe.Barrier(half); err != nil {
					return err
				}
				if got := atomic.LoadInt64(&entered); got != int64(half.Size) {
					t.Errorf("%s: PE %d exited the subset barrier with %d/%d entered",
						algo, pe.MyPE(), got, half.Size)
				}
			}
			return pe.BarrierAll()
		})
		if err != nil {
			t.Fatalf("%s subset: %v", algo, err)
		}
	}
	_, err := Run(Config{NPEs: n, HeapPerPE: 1 << 16, BarrierAlgo: BarrierAlgoSpin}, func(pe *PE) error {
		if !half.Contains(pe.MyPE()) {
			return nil
		}
		return pe.Barrier(half)
	})
	if !errors.Is(err, ErrNotSupported) {
		t.Fatalf("spin subset barrier error = %v, want ErrNotSupported", err)
	}
}

// TestBarrierAlgoMultichip rejects the chip-local UDN algorithms at
// launch when the PEs span chips, and runs the multi-chip-capable ones.
func TestBarrierAlgoMultichip(t *testing.T) {
	for _, algo := range []BarrierAlgo{
		BarrierAlgoDissemination, BarrierAlgoTournament, BarrierAlgoMCSTree,
	} {
		_, err := Run(Config{NPEs: 8, NChips: 2, HeapPerPE: 1 << 16, BarrierAlgo: algo},
			func(pe *PE) error { return nil })
		if err == nil {
			t.Errorf("%s accepted a 2-chip config", algo)
		}
	}
	for _, algo := range []BarrierAlgo{BarrierAlgoLinear, BarrierAlgoCounter, BarrierAlgoSpin} {
		var entered int64
		_, err := Run(Config{NPEs: 8, NChips: 2, HeapPerPE: 1 << 16, BarrierAlgo: algo}, func(pe *PE) error {
			atomic.AddInt64(&entered, 1)
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if got := atomic.LoadInt64(&entered); got != 8 {
				t.Errorf("%s multichip: PE %d exited with %d/8 entered", algo, pe.MyPE(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s on 2 chips: %v", algo, err)
		}
	}
}

// syncAlgoBody is the observed program the determinism tests replay: a
// few all-PE rounds with a subset barrier in between, plus enough puts
// around the barriers that a reordering would move clocks. src and dst
// are separate arrays so the incoming put never overlaps the bytes this
// PE is concurrently reading as its own put source.
func syncAlgoBody(pe *PE) error {
	src, err := Malloc[int64](pe, 32)
	if err != nil {
		return err
	}
	dst, err := Malloc[int64](pe, 32)
	if err != nil {
		return err
	}
	if err := pe.AlignClocks(); err != nil {
		return err
	}
	half := ActiveSet{Start: 0, LogStride: 1, Size: pe.NumPEs() / 2}
	for iter := 0; iter < 3; iter++ {
		if err := Put(pe, dst, src, 32, (pe.MyPE()+1)%pe.NumPEs()); err != nil {
			return err
		}
		if err := pe.BarrierAll(); err != nil {
			return err
		}
		if half.Contains(pe.MyPE()) && pe.prog.cfg.BarrierAlgo != BarrierAlgoSpin {
			if err := pe.Barrier(half); err != nil {
				return err
			}
		}
	}
	return pe.BarrierAll()
}

// TestBarrierAlgoDeterminism replays the observed program under every
// algorithm, repeated and with all PE goroutines serialized onto one OS
// thread: virtual times and counters must be bit-identical.
func TestBarrierAlgoDeterminism(t *testing.T) {
	for _, algo := range BarrierAlgos() {
		run := func() *Report {
			rep, err := Run(Config{NPEs: 8, HeapPerPE: 1 << 20, Observe: true, BarrierAlgo: algo},
				syncAlgoBody)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			return rep
		}
		a, b := run(), run()
		compareReports(t, algo.String()+"/repeat", a, b)
		old := runtime.GOMAXPROCS(1)
		serial := run()
		runtime.GOMAXPROCS(old)
		compareReports(t, algo.String()+"/gomaxprocs", a, serial)
		if a.MaxTime == 0 {
			t.Errorf("%s: program did no modeled work", algo)
		}
	}
}

// TestBarrierAlgoSanitizerClean checks each algorithm publishes the
// happens-before edge the sanitizer expects of a barrier: a put before
// the barrier, a read of the landed data after it, zero diagnostics.
func TestBarrierAlgoSanitizerClean(t *testing.T) {
	const n = 8
	for _, algo := range BarrierAlgos() {
		rep, err := Run(Config{NPEs: n, HeapPerPE: 1 << 16, Sanitize: true, BarrierAlgo: algo},
			func(pe *PE) error {
				x, err := Malloc[int64](pe, 1)
				if err != nil {
					return err
				}
				next := (pe.MyPE() + 1) % n
				if err := P(pe, x, int64(pe.MyPE()), next); err != nil {
					return err
				}
				if err := pe.BarrierAll(); err != nil {
					return err
				}
				prev := (pe.MyPE() + n - 1) % n
				if got := MustLocal(pe, x)[0]; got != int64(prev) {
					t.Errorf("%s: PE %d read %d, want %d", algo, pe.MyPE(), got, prev)
				}
				return pe.BarrierAll()
			})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(rep.Diagnostics) != 0 {
			t.Errorf("%s: sanitizer flagged a clean program: %v", algo, rep.Diagnostics)
		}
	}
}

// TestBarrierAlgoTimeout starves each new algorithm's barrier (one PE
// never arrives) under an armed fault budget: every waiter must unwind
// with a typed *TimeoutError attributing op "barrier" instead of
// deadlocking — the regression the library algorithms must share with
// the chain.
func TestBarrierAlgoTimeout(t *testing.T) {
	const n = 4
	for _, algo := range []BarrierAlgo{
		BarrierAlgoCounter, BarrierAlgoDissemination, BarrierAlgoTournament, BarrierAlgoMCSTree,
	} {
		rep, err := Run(Config{
			NPEs: n, HeapPerPE: 1 << 16, BarrierAlgo: algo,
			Faults: &fault.Plan{},
		}, func(pe *PE) error {
			if pe.MyPE() == n-1 {
				return nil // never reaches the barrier
			}
			return pe.BarrierAll()
		})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: Run error = %v, want ErrTimeout", algo, err)
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v carries no *TimeoutError", algo, err)
		}
		if te.Op != "barrier" {
			t.Errorf("%s: timeout op %q, want \"barrier\"", algo, te.Op)
		}
		if te.Deadline != te.Start.Add(DefaultWaitBudget) {
			t.Errorf("%s: deadline %v is not start %v + budget", algo, te.Deadline, te.Start)
		}
		if rep == nil {
			t.Fatalf("%s: no report alongside the timeout", algo)
		}
		if diags := timeoutDiags(rep); len(diags) == 0 {
			t.Errorf("%s: no timeout diagnostic recorded", algo)
		}
	}
}

// lockHammer takes one lock from every PE, five times each, handing the
// baton on inside the critical section so the other PEs run into the held
// lock. It fails if two PEs ever overlap in the critical section
// (host-level check, independent of the modeled clocks) or an increment
// is lost.
func lockHammer(t *testing.T, cfg Config) *Report {
	t.Helper()
	const iters = 5
	var inside, count int64
	rep, err := Run(cfg, func(pe *PE) error {
		lk, err := Malloc[int64](pe, 1)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := pe.SetLock(lk); err != nil {
				return err
			}
			if !atomic.CompareAndSwapInt64(&inside, 0, 1) {
				t.Errorf("%s: PE %d entered an occupied critical section", cfg.LockAlgo, pe.MyPE())
			}
			count++
			pe.yieldSpin()
			if !atomic.CompareAndSwapInt64(&inside, 1, 0) {
				t.Errorf("%s: critical section emptied twice", cfg.LockAlgo)
			}
			if err := pe.ClearLock(lk); err != nil {
				return err
			}
		}
		return pe.BarrierAll()
	})
	if err != nil {
		t.Fatalf("%s: %v", cfg.LockAlgo, err)
	}
	if want := int64(cfg.NPEs * iters); count != want {
		t.Errorf("%s: %d increments survived, want %d", cfg.LockAlgo, count, want)
	}
	return rep
}

// TestLockAlgoMutualExclusion hammers one lock from every PE under each
// algorithm, and holds every PE's final clock to the record: the contended
// paths (CAS retries with backoff, ticket hub waits, MCS hand-offs) are
// deterministic under the calendar, and the goldens elsewhere cover only
// uncontended acquisition. Recorded on PR 19's parent commit, before the
// atomics under Swap/CSwap/FAdd and the lock releases became plain memory
// operations; the makespans are repeated here so that -update cannot move
// them unnoticed.
func TestLockAlgoMutualExclusion(t *testing.T) {
	makespans := map[string]vtime.Duration{
		"cas/6": 7_805_800, "cas/13": 21_272_150,
		"ticket/6": 4_420_550, "ticket/13": 9_759_250,
		"mcs/6": 5_808_550, "mcs/13": 12_687_950,
	}
	g := openGolden(t)
	for _, algo := range LockAlgos() {
		for _, n := range []int{6, 13} {
			label := fmt.Sprintf("%s/%d", algo, n)
			rep := lockHammer(t, Config{NPEs: n, HeapPerPE: 1 << 16, LockAlgo: algo})
			g.check(t, "contended/"+label, rep, clocksOf(rep))
			if rep.MaxTime != makespans[label] {
				t.Errorf("%s: contended makespan %d ps, want %d", label, rep.MaxTime, makespans[label])
			}
		}
	}
}

// TestLockAlgoTestLock exercises the non-blocking probe under each
// algorithm: a free lock is taken, a held lock reports busy, and the
// holder releases cleanly.
func TestLockAlgoTestLock(t *testing.T) {
	for _, algo := range LockAlgos() {
		_, err := Run(Config{NPEs: 2, HeapPerPE: 1 << 16, LockAlgo: algo}, func(pe *PE) error {
			lk, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				held, err := pe.TestLock(lk)
				if err != nil {
					return err
				}
				if held {
					t.Errorf("%s: free lock reported held", algo)
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				held, err := pe.TestLock(lk)
				if err != nil {
					return err
				}
				if !held {
					t.Errorf("%s: held lock reported free", algo)
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				if err := pe.ClearLock(lk); err != nil {
					return err
				}
			}
			return pe.BarrierAll()
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// TestLockAlgoSanitizerClean runs a lock-guarded shared update under the
// sanitizer for each algorithm: the acquire/release edges must order the
// puts (with the usual Quiet before ClearLock) so a correct program
// draws zero diagnostics.
func TestLockAlgoSanitizerClean(t *testing.T) {
	const n = 4
	for _, algo := range LockAlgos() {
		rep, err := Run(Config{NPEs: n, HeapPerPE: 1 << 16, Sanitize: true, LockAlgo: algo},
			func(pe *PE) error {
				lk, err := Malloc[int64](pe, 1)
				if err != nil {
					return err
				}
				shared, err := Malloc[int64](pe, 1)
				if err != nil {
					return err
				}
				if err := pe.SetLock(lk); err != nil {
					return err
				}
				v, err := G(pe, shared, 0)
				if err != nil {
					return err
				}
				if err := P(pe, shared, v+1, 0); err != nil {
					return err
				}
				pe.Quiet()
				if err := pe.ClearLock(lk); err != nil {
					return err
				}
				return pe.BarrierAll()
			})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(rep.Diagnostics) != 0 {
			t.Errorf("%s: sanitizer flagged a lock-guarded update: %v", algo, rep.Diagnostics)
		}
	}
}

// TestLockAlgoClearUnheld verifies every algorithm rejects releasing a
// lock the caller does not hold.
func TestLockAlgoClearUnheld(t *testing.T) {
	for _, algo := range LockAlgos() {
		_, err := Run(Config{NPEs: 1, HeapPerPE: 1 << 16, LockAlgo: algo}, func(pe *PE) error {
			lk, merr := Malloc[int64](pe, 1)
			if merr != nil {
				return merr
			}
			return pe.ClearLock(lk)
		})
		if err == nil {
			t.Errorf("%s: clearing an unheld lock succeeded", algo)
		} else if !strings.Contains(err.Error(), "cleared a lock it does not hold") || strings.Contains(err.Error(), "-1") {
			t.Errorf("%s: clearing a free lock reported %q", algo, err)
		}
	}
}

// TestLockAlgoClearByNonHolder: a ClearLock by a PE that does not hold the
// lock fails naming the holder and leaves the lock held, under every
// algorithm; the holder's own release then succeeds.
func TestLockAlgoClearByNonHolder(t *testing.T) {
	for _, algo := range LockAlgos() {
		_, err := Run(Config{NPEs: 2, HeapPerPE: 1 << 16, LockAlgo: algo}, func(pe *PE) error {
			lk, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				if err := pe.SetLock(lk); err != nil {
					return err
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				if err := pe.ClearLock(lk); err == nil || !strings.Contains(err.Error(), "cleared a lock held by 0") {
					t.Errorf("%s: PE 1 clearing PE 0's lock returned %v", algo, err)
				}
				if held, err := pe.TestLock(lk); err != nil || !held {
					t.Errorf("%s: after the failed clear TestLock = %v, %v; the lock must still be held", algo, held, err)
				}
			}
			if err := pe.BarrierAll(); err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				if err := pe.ClearLock(lk); err != nil {
					t.Errorf("%s: the holder's release after a foreign clear: %v", algo, err)
				}
			}
			return pe.BarrierAll()
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// TestLockAlgoTimeout starves the queueing lock algorithms (the holder
// never releases) under an armed fault budget: the waiter must surface a
// typed *TimeoutError attributing op "lock" instead of hanging.
func TestLockAlgoTimeout(t *testing.T) {
	for _, algo := range []LockAlgo{LockAlgoTicket, LockAlgoMCS} {
		_, err := Run(Config{
			NPEs: 2, HeapPerPE: 1 << 16, LockAlgo: algo,
			Faults: &fault.Plan{},
		}, func(pe *PE) error {
			lk, merr := Malloc[int64](pe, 1)
			if merr != nil {
				return merr
			}
			flag, merr := Malloc[int64](pe, 1)
			if merr != nil {
				return merr
			}
			if pe.MyPE() == 0 {
				if err := pe.SetLock(lk); err != nil {
					return err
				}
				return P(pe, flag, 1, 1) // hold the lock forever
			}
			if err := WaitUntil(pe, flag, CmpNE, 0); err != nil {
				return err
			}
			return pe.SetLock(lk)
		})
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: Run error = %v, want ErrTimeout", algo, err)
		}
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v carries no *TimeoutError", algo, err)
		}
		if te.Op != "lock" || te.PE != 1 {
			t.Errorf("%s: timeout names PE %d op %q, want PE 1 op \"lock\"", algo, te.PE, te.Op)
		}
	}
}

// TestLockMCSReleaseAfterSuccessorWithdrew covers the one case in which an
// MCS releaser finds the tail naming somebody else and nobody registered
// behind it: the successor queued, its bounded wait expired under a fault
// plan, and it withdrew. Nobody can queue behind the releaser any more (new
// arrivals queue behind the withdrawn PE), so the release itself times out,
// on the deadline its own wait budget sets. PE 0 sits through two expiring
// waits so that PE 1 has certainly withdrawn before the release.
func TestLockMCSReleaseAfterSuccessorWithdrew(t *testing.T) {
	var setErr, clearErr error
	rep, err := Run(Config{NPEs: 2, HeapPerPE: 1 << 16, LockAlgo: LockAlgoMCS, Faults: &fault.Plan{}},
		func(pe *PE) error {
			lk, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			flag, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			never, err := Malloc[int64](pe, 1)
			if err != nil {
				return err
			}
			if pe.MyPE() == 1 {
				if err := WaitUntil(pe, flag, CmpNE, 0); err != nil {
					return err
				}
				setErr = pe.SetLock(lk)
				return nil
			}
			if err := pe.SetLock(lk); err != nil {
				return err
			}
			if err := P(pe, flag, 1, 1); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				if err := WaitUntil(pe, never, CmpNE, 0); !errors.Is(err, ErrTimeout) {
					return fmt.Errorf("wait %d on a word nobody writes: %v", i, err)
				}
			}
			clearErr = pe.ClearLock(lk)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var te *TimeoutError
	if !errors.As(setErr, &te) || te.Op != "lock" || te.PE != 1 || te.Peer != 0 {
		t.Errorf("PE 1 SetLock = %v, want a lock timeout of PE 1 awaiting PE 0", setErr)
	}
	te = nil
	if !errors.As(clearErr, &te) || te.Op != "lock" || te.PE != 0 || te.Peer != -1 {
		t.Errorf("PE 0 ClearLock = %v, want a lock timeout of PE 0 with no peer", clearErr)
	} else if te.Deadline != te.Start.Add(DefaultWaitBudget) {
		t.Errorf("release deadline %v is not its start %v + budget", te.Deadline, te.Start)
	}
	if want := []vtime.Duration{150_001_500_464, 50_001_588_664}; !slices.Equal(rep.PETimes, want) {
		t.Errorf("final clocks %d ps, want %d", rep.PETimes, want)
	}
	var ops []string
	for _, d := range timeoutDiags(rep) {
		ops = append(ops, fmt.Sprintf("%d:%s", d.PE, d.Op))
	}
	if want := "0:wait_until 0:wait_until 0:lock 1:lock"; strings.Join(ops, " ") != want {
		t.Errorf("timeout diagnostics %q, want %q", strings.Join(ops, " "), want)
	}
}
