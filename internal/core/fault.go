package core

import (
	"sort"

	"tshmem/internal/profile"
	"tshmem/internal/sanitize"
	"tshmem/internal/vtime"
)

// DefaultWaitBudget is the virtual-time bound applied to every blocking
// wait when fault injection is active (Config.WaitBudget unset): 50 ms of
// virtual time, roughly five orders of magnitude beyond any healthy
// barrier or signal wait in the modeled system, so only genuinely starved
// waits trip it.
const DefaultWaitBudget vtime.Duration = 50_000_000_000 // 50 ms in ps

// timeoutLog accumulates Timeout diagnostics across PEs (each appends
// while it holds the run's baton); the report sorts them deterministically
// afterwards.
type timeoutLog struct {
	list []sanitize.Diagnostic
}

func (l *timeoutLog) add(d sanitize.Diagnostic) { l.list = append(l.list, d) }

// diagnostics returns the recorded timeouts sorted by (PE, start time,
// op) — a total order independent of host scheduling.
func (l *timeoutLog) diagnostics() []sanitize.Diagnostic {
	out := append([]sanitize.Diagnostic(nil), l.list...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].PE != out[j].PE {
			return out[i].PE < out[j].PE
		}
		if out[i].VTime != out[j].VTime {
			return out[i].VTime < out[j].VTime
		}
		return out[i].Op < out[j].Op
	})
	return out
}

// waitDeadline returns the virtual deadline for a blocking wait starting
// now, or 0 when fault injection is off and waits are unbounded.
func (pe *PE) waitDeadline() vtime.Time {
	if pe.prog.flt == nil {
		return 0
	}
	return pe.clock.Now().Add(pe.prog.waitBudget)
}

// timeoutAt finalizes a bounded wait that expired: the PE's clock lands
// exactly on the virtual deadline (whether what it waited for arrived past
// the deadline or the calendar found it could never arrive), a Timeout
// diagnostic is logged for the report, and the typed error is returned
// for the PE body to propagate. peer is the awaited PE (-1 when the wait
// had no single peer).
func (pe *PE) timeoutAt(op string, peer int, start, deadline vtime.Time) error {
	waitStart := pe.clock.Now()
	pe.clock.AdvanceTo(deadline)
	// The whole expired wait is fault blame on the starved PE; no edge —
	// nothing the starved PE received determined its resume time.
	pe.prof.Advance(profile.CatFault, waitStart, pe.clock.Now())
	id := pe.prog.flt.Blame(pe.id, start)
	pe.prog.tmo.add(sanitize.Diagnostic{
		Kind: sanitize.Timeout, PE: pe.id, OtherPE: peer, TargetPE: pe.id,
		SID: sanitize.DynamicSID, Op: op, VTime: start, OtherVT: deadline,
		Count: 1, Fault: int32(id),
	})
	pe.rec.FaultTimeout(id, peer, start, deadline)
	return &TimeoutError{PE: pe.id, Peer: peer, Op: op, Fault: id, Start: start, Deadline: deadline}
}
