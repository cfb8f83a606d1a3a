package core

import "tshmem/internal/vtime"

// watchHub is the per-PE synchronization hub behind Wait/WaitUntil. Writers
// of watchable values (elemental puts, atomic operations) record the
// virtual time at which their store became visible and wake any waiters;
// a waiting PE re-evaluates its predicate on each wakeup and, once
// satisfied, merges its clock with the store's visibility time — the
// virtual-time analogue of the coherence fabric delivering the line to the
// polling tile.
type watchHub struct {
	times map[int64]hubStamp // partition byte offset -> latest visible store

	idx   int // this hub's index in Program.hubs (the calendar wait key)
	sched *evsched
}

// hubStamp records one store's visibility time plus the global rank of
// the PE that performed it, so waiters can emit a happens-before edge to
// the writer's timeline (sanitize.Edge / critical-path extraction).
type hubStamp struct {
	t      vtime.Time
	writer int32
}

func (h *watchHub) init(idx int, sched *evsched) {
	h.times = make(map[int64]hubStamp)
	h.idx = idx
	h.sched = sched
}

// publish performs a store to the watched word at partition offset off and
// records when it became visible — t, written by global PE writer — then
// wakes the waiters. store reports whether it wrote; a false return (a
// compare-and-swap that lost) publishes nothing. Store and stamp are one
// step with respect to waiters because the caller holds the baton across
// both: no waiter can poll between the two, see its predicate satisfied
// with no stamp to merge with, and resume at a host-dependent virtual time.
func (h *watchHub) publish(off int64, t vtime.Time, writer int, store func() bool) bool {
	if !store() {
		return false
	}
	if t > h.times[off].t {
		h.times[off] = hubStamp{t: t, writer: int32(writer)}
	}
	h.sched.wake(wkHub, int64(h.idx), 0)
	return true
}

// await outcomes.
const (
	hubOK       = iota // predicate satisfied
	hubAborted         // program aborted while waiting
	hubTimedOut        // the calendar expired the wait (fault injection)
)

// await parks pe in the calendar, keyed on this hub, until pred returns
// true, then reports the recorded visibility stamp of offset off (zero if
// never recorded) and hubOK. publish's wake re-arms the poll. Under fault
// injection the calendar expires the wait once nothing can run; the
// predicate is re-checked once (the satisfying write may have landed in
// the same step) before giving up with hubTimedOut. hubAborted reports a
// program abort while waiting. Note any PE may wait on any hub — the
// ticket lock parks every contender on the lock owner's hub — hence the
// hub-indexed wait key rather than a PE-indexed one.
func (h *watchHub) await(pe *PE, off int64, pred func() bool) (hubStamp, int) {
	for {
		if pred() {
			return h.times[off], hubOK
		}
		if pe.prog.aborted.Load() {
			return hubStamp{}, hubAborted
		}
		switch h.sched.yield(pe.id, wkHub, int64(h.idx), 0) {
		case wakeAbort:
			return hubStamp{}, hubAborted
		case wakeTimeout:
			if pred() {
				return h.times[off], hubOK
			}
			return hubStamp{}, hubTimedOut
		}
	}
}
