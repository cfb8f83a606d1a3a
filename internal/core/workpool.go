package core

import (
	"errors"
	"fmt"
	"iter"
	"sync"
)

// peTask is one PE's share of a Run: the body plus the bookkeeping the
// run loop needs back from it.
type peTask struct {
	prog *Program
	pe   *PE
	body func(*PE) error
	errs []error
}

// peWorker is a reusable coroutine that executes peTasks one at a time: a
// goroutine the Go scheduler never sees, because only a run's driver
// resumes it (next) and it only ever suspends back into that driver
// (yield), both direct switches. A cold one costs a goroutine, its stack
// and iter.Pull's closures, which is why finished workers are pooled:
// a warm Run allocates nothing per PE for them.
type peWorker struct {
	task  peTask
	next  func() (struct{}, bool) // resume: returns when the worker suspends
	yield func(struct{}) bool     // suspend into whoever called next; false once stopped
	stop  func()                  // end an idle worker's coroutine
}

// The idle-worker free list. This is deliberately NOT a sync.Pool: the
// pool may drop entries on GC, and a dropped worker's suspended coroutine
// is a goroutine nothing will ever resume or stop. An explicit capped stack
// keeps the count bounded and every idle coroutine reachable. A run takes
// its workers in one acquisition of peWorkerMu and gives them back in one.
var (
	peWorkerMu   sync.Mutex
	peWorkerIdle []*peWorker
)

const peWorkerMaxIdle = 256

// checkoutWorkers gives every node of a run a worker, idle pooled ones
// first and new ones when the pool runs dry. Nothing runs until the run's
// driver first resumes a worker. Only drivers call it: a coroutine must be
// created on a goroutine that is never locked to its OS thread (see
// evsched.begin).
func checkoutWorkers(nodes []evNode) {
	peWorkerMu.Lock()
	k := min(len(nodes), len(peWorkerIdle))
	idle := peWorkerIdle[len(peWorkerIdle)-k:]
	for i, w := range idle {
		nodes[i].co = w
	}
	clear(idle)
	peWorkerIdle = peWorkerIdle[:len(peWorkerIdle)-k]
	peWorkerMu.Unlock()
	for i := k; i < len(nodes); i++ {
		w := &peWorker{}
		w.next, w.stop = iter.Pull(w.loop)
		nodes[i].co = w
	}
}

// loop is the worker's coroutine: run the bound task, forget it, suspend
// until the next one is bound, until stopped.
func (w *peWorker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.task.run()
		w.task = peTask{}
		if !yield(struct{}{}) {
			return
		}
	}
}

// returnWorkers disposes of a finished run's workers, once its driver has
// retired every PE: the idle ones go back to the pool, the ones past its
// cap are stopped. A worker still bound to its task never returned from
// run — the body left through runtime.Goexit, which ended the coroutine —
// and stop on it is a no-op that leaves it to the collector.
func returnWorkers(nodes []evNode) {
	peWorkerMu.Lock()
	for i := range nodes {
		if w := nodes[i].co; w.task.pe == nil && len(peWorkerIdle) < peWorkerMaxIdle {
			peWorkerIdle = append(peWorkerIdle, w)
			nodes[i].co = nil
		}
	}
	peWorkerMu.Unlock()
	for i := range nodes {
		if w := nodes[i].co; w != nil {
			w.stop()
		}
	}
}

// run executes one PE body. Defer order matters: the recover/abort handler
// runs first, then the calendar exit, so the driver finds the PE done — and
// its error recorded, the program aborted if it failed — when the coroutine
// next suspends.
//
// A panic is recovered here, so the worker survives and is reused. A body
// that bails out via runtime.Goexit (a t.FailNow, say) runs these defers
// too and then ends the coroutine under the worker; release sees that.
func (t peTask) run() {
	pe, prog := t.pe, t.prog
	defer prog.sched.exit(pe.id)
	completed := false
	defer func() {
		if r := recover(); r != nil {
			t.errs[pe.id] = fmt.Errorf("tshmem: PE %d panicked: %v", pe.id, r)
		} else if !completed && t.errs[pe.id] == nil {
			// The body bailed out via runtime.Goexit (e.g. a test
			// Fatalf); treat it as a failure so peers don't hang.
			t.errs[pe.id] = fmt.Errorf("tshmem: PE %d exited without completing", pe.id)
		}
		// Timeouts deliberately do not abort: every blocking path is
		// bounded under fault injection, so the other PEs unblock on
		// their own budgets, keeping their clocks (and the report)
		// deterministic. Tearing the networks down here would race
		// ErrClosed against those still-pending bounded waits.
		if t.errs[pe.id] != nil && !errors.Is(t.errs[pe.id], ErrTimeout) {
			prog.abort(fmt.Errorf("PE %d: %w", pe.id, t.errs[pe.id]))
		}
	}()
	if err := pe.startPEs(t.errs[pe.id]); err != nil {
		t.errs[pe.id] = fmt.Errorf("start_pes: %w", err)
		return
	}
	t.errs[pe.id] = t.body(pe)
	completed = true
}
