package core

import (
	"errors"
	"fmt"
	"sync"
)

// peTask is one PE's share of a Run: the body plus the bookkeeping the
// run loop needs back from it.
type peTask struct {
	prog *Program
	pe   *PE
	body func(*PE) error
	errs []error
	wg   *sync.WaitGroup
}

// peWorker is a reusable goroutine that executes peTasks one at a time.
// Run used to launch a fresh closure per PE per run; under RunSuite-style
// parallelism that is thousands of goroutine launches per sweep. Workers
// instead park on a channel between runs and get handed the next task.
type peWorker struct {
	ch chan peTask
}

// The idle-worker free list. This is deliberately NOT a sync.Pool: the
// pool may drop entries on GC, which would leak the dropped worker's
// parked goroutine forever. An explicit capped stack keeps the goroutine
// count bounded and every parked goroutine reachable.
var (
	peWorkerMu   sync.Mutex
	peWorkerIdle []*peWorker
)

const peWorkerMaxIdle = 256

// spawnPE hands t to an idle pooled worker, creating one if none is
// parked.
func spawnPE(t peTask) {
	peWorkerMu.Lock()
	var w *peWorker
	if n := len(peWorkerIdle); n > 0 {
		w = peWorkerIdle[n-1]
		peWorkerIdle[n-1] = nil
		peWorkerIdle = peWorkerIdle[:n-1]
	}
	peWorkerMu.Unlock()
	if w == nil {
		w = &peWorker{ch: make(chan peTask, 1)}
		go w.loop()
	}
	w.ch <- t
}

func (w *peWorker) loop() {
	for t := range w.ch {
		t.run()
		peWorkerMu.Lock()
		if len(peWorkerIdle) < peWorkerMaxIdle {
			peWorkerIdle = append(peWorkerIdle, w)
			peWorkerMu.Unlock()
			continue
		}
		peWorkerMu.Unlock()
		return
	}
}

// run executes one PE body with the same semantics the per-PE closure in
// Run used to have. Defer order matters: the recover/abort handler runs
// first, then the calendar exit (handing the baton on), then
// wg.Done — so by the time Run's wg.Wait returns, every PE has fully
// left the calendar.
//
// A body that bails out via runtime.Goexit runs these defers and then
// kills the worker's goroutine before loop can re-pool it; that only
// costs the worker, never correctness. A panic is recovered here, so the
// worker survives and is reused.
func (t peTask) run() {
	pe, prog := t.pe, t.prog
	defer t.wg.Done()
	prog.sched.enter(pe.id)
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
	if err := pe.startPEs(); err != nil {
		t.errs[pe.id] = fmt.Errorf("start_pes: %w", err)
		return
	}
	t.errs[pe.id] = t.body(pe)
	completed = true
}
