package core

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tshmem/internal/arch"
)

// Tests for what running PE bodies as pooled coroutines adds to Run's
// contract: the driver is a goroutine the library owns, so the caller's OS
// thread lock and a body's runtime.Goexit both stay out of it, and workers
// are reused across runs and callers.

// workerOf names the pooled coroutine running pe's body.
func workerOf(pe *PE) *peWorker { return pe.prog.sched.pes[pe.id].co }

// idleWorkers snapshots the pool.
func idleWorkers() []*peWorker {
	peWorkerMu.Lock()
	defer peWorkerMu.Unlock()
	return slices.Clone(peWorkerIdle)
}

// settledGoroutines polls runtime.NumGoroutine until ten readings a
// millisecond apart agree (or a second has passed) and returns the last: a
// run's driver signals Run before it returns, so its goroutine is gone only
// "soon" after, and there is no event to wait on for that.
func settledGoroutines() int {
	last, same := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); same < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n == last {
			same++
		} else {
			last, same = n, 0
		}
	}
	return last
}

// barrierLoop is the hand-off-bound body: nothing but "PE k parks, PE k+1
// resumes", twice per PE per round.
func barrierLoop(rounds int) func(*PE) error {
	return func(pe *PE) error {
		for r := 0; r < rounds; r++ {
			if err := pe.BarrierAll(); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestRunFromLockedOSThread: Run works from a goroutine locked to its OS
// thread, on workers another goroutine's run created and pooled. A coroutine
// may only be resumed under the thread-lock state it was created under, and
// the runtime kills the process (not the goroutine) on a mismatch — which is
// what happens here if Run's caller ever creates or resumes a worker itself.
func TestRunFromLockedOSThread(t *testing.T) {
	cfg := Config{NPEs: 4, HeapPerPE: 1 << 16}
	// More PEs than the pool can hold, so that some workers are cold.
	wider := Config{Chip: arch.Synthetic(24, 24), NPEs: 2 * peWorkerMaxIdle, HeapPerPE: 4096, ScratchBytes: 1 << 16}
	if _, err := Run(cfg, barrierLoop(1)); err != nil { // warm the pool, unlocked
		t.Fatal(err)
	}
	errc := make(chan error)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		_, err := Run(cfg, barrierLoop(1)) // pooled workers, locked caller
		if err == nil {
			_, err = Run(wider, barrierLoop(1)) // and cold ones
		}
		errc <- err
	}()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if _, err := Run(wider, barrierLoop(1)); err != nil { // and back, unlocked, on workers the locked caller's run made
		t.Fatal(err)
	}
}

// TestBodyGoexitAborts: a body that leaves through runtime.Goexit (what
// t.FailNow does) while its peers sit in a barrier fails the run like any
// other PE failure. The Goexit ends the body's coroutine and unwinds the
// run's driver, never Run's caller: Run returns the error on the calling
// goroutine, every peer has unwound out of its barrier by then, the only
// goroutines left are the idle pool's, and the next run is unaffected.
func TestBodyGoexitAborts(t *testing.T) {
	cfg := Config{NPEs: 6, HeapPerPE: 1 << 16}
	if _, err := Run(cfg, barrierLoop(1)); err != nil {
		t.Fatal(err)
	}
	// Goroutines that are not idle pooled workers: the test binary's own.
	others := func() int { return settledGoroutines() - len(idleWorkers()) }
	base, idle := others(), len(idleWorkers())

	unwound := make([]bool, cfg.NPEs)
	peak := 0 // of resumes in progress, as the peers the successor driver resumed saw it
	_, err := Run(cfg, func(pe *PE) error {
		defer func() {
			unwound[pe.MyPE()] = true
			peak = max(peak, pe.prog.sched.maxRunning)
		}()
		if pe.MyPE() == 2 {
			// Behind every peer in virtual time, so that yielding lets each
			// of them run, into the barrier, before this PE is resumed.
			pe.ComputeIntOps(1_000_000)
			pe.yieldSpin()
			if got := pe.prog.sched.parked[wkChain]; got != pe.NumPEs()-1 {
				t.Errorf("%d peers parked in the barrier's rendezvous, want %d", got, pe.NumPEs()-1)
			}
			runtime.Goexit()
		}
		return pe.BarrierAll()
	})
	if err == nil || !strings.Contains(err.Error(), "PE 2 exited without completing") {
		t.Fatalf("Run error = %v, want PE 2 exited without completing", err)
	}
	for i, ok := range unwound {
		if !ok {
			t.Errorf("PE %d's body had not unwound when Run returned", i)
		}
	}
	if peak != 1 {
		t.Errorf("%d PEs resumed at once across the driver takeover, want exactly 1", peak)
	}
	// Both drivers (the unwound one and its successor) are gone and so is
	// the dead worker's goroutine, which the pool did not take back.
	if got := others(); got != base {
		t.Errorf("%d goroutines beside the idle pool after the aborted run, %d before it", got, base)
	}
	if got := len(idleWorkers()); got != idle-1 {
		t.Errorf("%d idle workers after the aborted run, want %d (one died)", got, idle-1)
	}
	if _, err := Run(cfg, barrierLoop(1)); err != nil {
		t.Fatalf("run after a Goexit-aborted one: %v", err)
	}
	if got := others(); got != base {
		t.Errorf("%d goroutines beside the idle pool after the following run, %d at the start", got, base)
	}

	// The Goexit that takes the last live PE with it — a one-PE run, and a
	// run whose every body bails out: the successor driver has nobody left to
	// resume and must still end the run.
	for _, npes := range []int{1, cfg.NPEs} {
		errc := make(chan error, 1)
		go func() {
			_, err := Run(Config{NPEs: npes, HeapPerPE: 1 << 16}, func(*PE) error {
				runtime.Goexit()
				return nil
			})
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "PE 0 exited without completing") {
				t.Errorf("%d PEs all calling Goexit: Run error = %v, want PE 0 exited without completing", npes, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d PEs all calling Goexit: Run did not return", npes)
		}
		if got := others(); got != base {
			t.Errorf("%d goroutines beside the idle pool after %d PEs all called Goexit, %d before", got, npes, base)
		}
	}
}

// TestWorkerPoolReuse: concurrent runs from different goroutines share one
// pool of coroutines — a second round of runs, and a third run from yet
// another goroutine, execute on the first round's workers and start no
// goroutine that outlives them; a worker whose body panicked goes back to
// the pool, one whose body called runtime.Goexit does not.
func TestWorkerPoolReuse(t *testing.T) {
	const npes = 8
	cfg := Config{NPEs: npes, HeapPerPE: 1 << 16}
	var mu sync.Mutex
	// round runs two overlapping simulations — each PE 0 waits on the host
	// for the other run's, so both runs hold their workers at once — and
	// returns the workers they ran on.
	round := func() map[*peWorker]bool {
		used := make(map[*peWorker]bool)
		var both, runs sync.WaitGroup
		both.Add(2)
		for r := 0; r < 2; r++ {
			runs.Add(1)
			go func() {
				defer runs.Done()
				_, err := Run(cfg, func(pe *PE) error {
					mu.Lock()
					used[workerOf(pe)] = true
					mu.Unlock()
					if pe.MyPE() == 0 {
						both.Done()
						both.Wait()
					}
					return pe.BarrierAll()
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
		runs.Wait()
		return used
	}
	first := round()
	if len(first) != 2*npes {
		t.Fatalf("two overlapping %d-PE runs used %d workers", npes, len(first))
	}
	base, idle := settledGoroutines(), len(idleWorkers())
	check := func(what string, used map[*peWorker]bool) {
		t.Helper()
		for w := range used {
			if !first[w] {
				t.Errorf("%s ran a PE on a worker the first round did not pool", what)
			}
		}
		if got := settledGoroutines(); got != base {
			t.Errorf("%s: %d goroutines, %d after the first round", what, got, base)
		}
		if got := len(idleWorkers()); got != idle {
			t.Errorf("%s: %d idle workers, %d after the first round", what, got, idle)
		}
	}
	check("the second round", round())
	third := make(map[*peWorker]bool)
	if _, err := Run(cfg, func(pe *PE) error {
		third[workerOf(pe)] = true
		return pe.BarrierAll()
	}); err != nil {
		t.Fatal(err)
	}
	check("a third run", third)

	var panicked, exited *peWorker
	_, err := Run(cfg, func(pe *PE) error {
		if pe.MyPE() == 1 {
			panicked = workerOf(pe)
			panic("boom")
		}
		return pe.BarrierAll()
	})
	if err == nil || !strings.Contains(err.Error(), "PE 1 panicked: boom") {
		t.Fatalf("Run error = %v, want PE 1 panicked: boom", err)
	}
	if !slices.Contains(idleWorkers(), panicked) {
		t.Error("the worker whose body panicked was not pooled again")
	}
	_, err = Run(cfg, func(pe *PE) error {
		if pe.MyPE() == 1 {
			exited = workerOf(pe)
			runtime.Goexit()
		}
		return pe.BarrierAll()
	})
	if err == nil || !strings.Contains(err.Error(), "exited without completing") {
		t.Fatalf("Run error = %v, want exited without completing", err)
	}
	if slices.Contains(idleWorkers(), exited) {
		t.Error("the worker whose body called runtime.Goexit is back in the pool")
	}
	if got := len(idleWorkers()); got != idle-1 {
		t.Errorf("%d idle workers after the Goexit, want %d", got, idle-1)
	}
}

// TestHandoffStaysOffScheduler: a hand-off is a coroutine switch, which
// moves the resumed goroutine from waiting straight to running; a grant
// through a channel (or anything else that readies a goroutine) passes it
// through the scheduler's runnable state, and the runtime counts those
// passes — one in eight, sampled — in its scheduling-latency histogram. A
// warm 36-PE run of 500 chain barriers is 36 000 hand-offs; it may add a
// few passes (the driver starting, Run's caller waking, the collector) and
// the channel hand-off this replaced added about 2 250.
func TestHandoffStaysOffScheduler(t *testing.T) {
	const rounds = 500
	cfg := Config{NPEs: 36, HeapPerPE: 64 << 10}
	passes := func() (n uint64) {
		s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
		metrics.Read(s)
		for _, c := range s[0].Value.Float64Histogram().Counts {
			n += c
		}
		return n
	}
	runT(t, cfg, barrierLoop(1)) // warm the pool: a cold worker starts as a goroutine
	before := passes()
	runT(t, cfg, barrierLoop(rounds))
	handoffs := uint64(2 * rounds * cfg.NPEs)
	if got := passes() - before; got > handoffs/8/10 {
		t.Errorf("%d sampled scheduler passes during %d hand-offs: more than a tenth of them went through the Go scheduler",
			got, handoffs)
	}
}
