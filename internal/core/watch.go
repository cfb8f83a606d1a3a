package core

import (
	"sync"
	"time"

	"tshmem/internal/vtime"
)

// watchHub is the per-PE synchronization hub behind Wait/WaitUntil. Writers
// of watchable values (elemental puts, atomic operations) record the
// virtual time at which their store became visible and wake any waiters;
// a waiting PE re-evaluates its predicate on each wakeup and, once
// satisfied, merges its clock with the store's visibility time — the
// virtual-time analogue of the coherence fabric delivering the line to the
// polling tile.
type watchHub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	times   map[int64]hubStamp // partition byte offset -> latest visible store
	aborted bool

	idx   int      // this hub's index in Program.hubs (the calendar wait key)
	sched *evsched // nil unless the event engine runs the program
}

// hubStamp records one store's visibility time plus the global rank of
// the PE that performed it, so waiters can emit a happens-before edge to
// the writer's timeline (sanitize.Edge / critical-path extraction).
type hubStamp struct {
	t      vtime.Time
	writer int32
}

func (h *watchHub) init(idx int, sched *evsched) {
	h.cond = sync.NewCond(&h.mu)
	h.times = make(map[int64]hubStamp)
	h.idx = idx
	h.sched = sched
}

// publish performs a store to the watched word at partition offset off and
// records when it became visible — t, written by global PE writer — as one
// step with respect to waiters, then wakes them. store runs under the hub
// lock and reports whether it wrote; a false return (a compare-and-swap
// that lost) publishes nothing. Were the store to land before the stamp, a
// waiter could poll between the two, see its predicate satisfied with no
// stamp to merge with, and resume at a host-dependent virtual time.
func (h *watchHub) publish(off int64, t vtime.Time, writer int, store func() bool) bool {
	h.mu.Lock()
	ok := store()
	if ok && t > h.times[off].t {
		h.times[off] = hubStamp{t: t, writer: int32(writer)}
	}
	h.mu.Unlock()
	if !ok {
		return false
	}
	h.cond.Broadcast()
	if h.sched != nil {
		h.sched.wake(wkHub, int64(h.idx), 0)
	}
	return true
}

// await outcomes.
const (
	hubOK       = iota // predicate satisfied
	hubAborted         // program aborted while waiting
	hubTimedOut        // host-time grace expired (fault injection)
)

// await blocks until pred returns true, then reports the recorded
// visibility stamp of offset off (zero if never recorded) and hubOK. A
// grace > 0 arms a host-time bound: if the predicate is still false after
// grace — the writer is starved by fault injection — await gives up with
// hubTimedOut. hubAborted reports a program abort while waiting.
func (h *watchHub) await(pe *PE, off int64, pred func() bool, grace time.Duration) (hubStamp, int) {
	if h.sched != nil {
		return h.awaitEvent(pe, off, pred)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var timedOut bool
	if grace > 0 {
		timer := time.AfterFunc(grace, func() {
			h.mu.Lock()
			timedOut = true
			h.mu.Unlock()
			h.cond.Broadcast()
		})
		defer timer.Stop()
	}
	for !pred() {
		if h.aborted {
			return hubStamp{}, hubAborted
		}
		if timedOut {
			return hubStamp{}, hubTimedOut
		}
		h.cond.Wait()
	}
	return h.times[off], hubOK
}

// awaitEvent is await on the event engine: the waiting PE parks in the
// calendar keyed on this hub, record's wake re-arms the poll, and a
// quiescence expiry re-checks the predicate once (the satisfying write
// may have landed in the same step) before giving up. Note any PE may
// wait on any hub — the ticket lock parks every contender on the lock
// owner's hub — hence the hub-indexed wait key rather than a PE-indexed
// one.
func (h *watchHub) awaitEvent(pe *PE, off int64, pred func() bool) (hubStamp, int) {
	for {
		h.mu.Lock()
		if pred() {
			st := h.times[off]
			h.mu.Unlock()
			return st, hubOK
		}
		ab := h.aborted
		h.mu.Unlock()
		if ab {
			return hubStamp{}, hubAborted
		}
		switch pe.prog.sched.yield(pe.id, wkHub, int64(h.idx), 0) {
		case wakeAbort:
			return hubStamp{}, hubAborted
		case wakeTimeout:
			h.mu.Lock()
			ok := pred()
			st := h.times[off]
			h.mu.Unlock()
			if ok {
				return st, hubOK
			}
			return hubStamp{}, hubTimedOut
		}
	}
}

// abort wakes all waiters after a program failure.
func (h *watchHub) abort() {
	h.mu.Lock()
	h.aborted = true
	h.mu.Unlock()
	h.cond.Broadcast()
}
