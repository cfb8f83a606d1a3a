package core

// The phase runner. The paper builds its collectives as steps between
// barriers (S IV.D): the pull broadcast is barrier, get, barrier; the naive
// reduction and FCollect are three barriers with a gather or a put and a pull
// between; shmalloc's symmetric check is two barriers around a compare. Each
// is written once, as a step type over a per-PE record (phaseRun), and run
// by runPhases.
//
// On the computed chain the driver takes the steps. A member released from
// an inner barrier is readied with wakeStep (chainInst.release) in its usual
// (clock, rank) place, and when evsched.drive pops it, Program.turn runs, for
// the member and without resuming its body, what the body would run next:
// the barrier's leave and completion hooks, the step, and the arrival at the
// next barrier, which parks the member again (repark). The body parks once,
// at the first barrier, and is resumed when the last one releases it. The
// same code runs in the same heap order either way, so every clock, hook
// call, trace, profile, sanitizer verdict and fault count is the body's.
//
// A turn must not park (evsched.yield panics off the PE's own resume), so the
// driver takes only steps made of plain copies through common memory. A
// collective with a static operand, whose remote access is a UDN interrupt
// into the owner's tile, runs its steps inline in the body, between plain
// barriers; so does one with a barrier off the computed chain: a set across
// chips, Malloc under a non-linear BarrierAlgo, or a run with a literal
// protocol swapped in (tests). A turn whose leave, step or arrival fails — a
// late release, an abort, a late wait signal — hands the member back to its
// body with the error.

// phaseStep is a collective's steps: run is step r.k, between barriers r.k
// and r.k+1. Every implementation is an empty struct, generic in the element
// type it reads the operands back as, so that storing one in a phaseRun
// allocates nothing (a generic function's value would: it closes over its
// type dictionary).
type phaseStep interface {
	run(pe *PE, r *phaseRun) error
}

// phaseRun is a member's collective in progress: its steps, their operands
// and where the member is. One per PE, in the launch shell.
type phaseRun struct {
	step phaseStep
	w    chainStay // the barrier the member is in: its set and position, generation and hooks
	// err is the collective's result once set: a failed turn's error, or the
	// symmetric check's verdict.
	err error

	// The operands, their element types dropped: a step reads Ref[T](r.dst).
	dst, src            Ref[byte]
	kind                foldKind
	nelems, root, total int
	v                   int64 // the value the symmetric check compares
	// scratch is a collective root's two private buffers (reduceScratch): the
	// naive reduction's or Collect's, a []T grown to the largest collective
	// the member has rooted in this launch.
	scratch any

	k, steps int  // barrier k is the current one, barrier steps the last
	all      bool // the barriers are BarrierAll's (the symmetric check)
	turns    bool // the driver takes the steps: the member is in runPhases' turned loop
}

// phase returns pe's record set up for a collective of steps steps over as,
// in which pe is member idx. The caller fills in the operands its step reads.
func (pe *PE) phase(as ActiveSet, idx, steps int, step phaseStep) *phaseRun {
	p := pe.prog
	p.phased = true
	r := &p.phases[pe.id]
	r.step, r.steps, r.k, r.err, r.all = step, steps, 0, nil, false
	r.w.as, r.w.idx = as, idx
	return r
}

// turnable reports whether a collective's barriers over as, BarrierAll's
// when all, are all on the computed chain, where the driver can take the
// steps between them.
func (p *Program) turnable(as ActiveSet, all bool) bool {
	return as.Size > 1 && !p.literal.inUse() && (p.nchips == 1 || setOnOneChip(p, as)) &&
		(!all || p.cfg.BarrierAlgo == BarrierAlgoLinear)
}

// runPhases runs pe's collective r from barrier r.k on: barrier, step,
// barrier, ..., barrier r.steps. inline, set when an operand is static,
// keeps every step in the body.
func (pe *PE) runPhases(r *phaseRun, inline bool) error {
	p := pe.prog
	if inline || !p.turnable(r.w.as, r.all) {
		err := pe.phaseBarrier(r)
		for err == nil && r.k < r.steps {
			if err = r.step.run(pe, r); err == nil {
				r.k++
				err = pe.phaseBarrier(r)
			}
		}
		return r.result(err)
	}
	r.turns = true
	parks, err := pe.phaseArrive(r)
	for parks {
		switch st := p.sched.yield(pe.id, wkChain, 0, 0); st {
		case wakeForward: // a late wait signal, handed back (Program.turn)
			if err = pe.bar.forward(p, r.w.idx); err != nil {
				parks, err = false, pe.phaseLeave(r, wakeRun, err)
			}
		case wakeStep: // the driver took the step, and it failed
			parks, err = false, r.err
		default:
			parks, err = pe.phaseNext(r, st)
		}
	}
	r.turns = false
	return r.result(err)
}

// result is the collective's outcome given err, its last barrier's or
// step's: the verdict a step set, if any, else err.
func (r *phaseRun) result(err error) error {
	if r.err != nil {
		return r.err
	}
	return err
}

// phaseBarrier is barrier r.k, inline.
func (pe *PE) phaseBarrier(r *phaseRun) error {
	if r.all {
		return pe.BarrierAll()
	}
	return pe.barrierUDN(r.w.as)
}

// phaseArrive is the member arriving at barrier r.k as phaseBarrier would on
// the computed chain, up to its park: BarrierAll's entry when the barriers
// are its, barrierUDN's, barrierChain's and chainArrive. It reports whether
// the member parks there; if not, the barrier is over, with result err.
func (pe *PE) phaseArrive(r *phaseRun) (bool, error) {
	if r.all {
		if err := pe.check(); err != nil {
			return false, err
		}
		pe.stats.Barriers++
	}
	w := &r.w
	w.start = pe.clock.Now()
	g, _ := pe.barrierEnter(w)
	parks, err := pe.chainArrive(g, w)
	switch {
	case !parks:
		pe.barrierDone(w)
	case err != nil:
		parks, err = false, pe.phaseLeave(r, wakeRun, err)
	}
	return parks, err
}

// phaseLeave is the member leaving barrier r.k, woken with st or stopped by
// err, and the barrier's completion hooks.
func (pe *PE) phaseLeave(r *phaseRun, st uint8, err error) error {
	err = pe.chainLeave(&r.w, st, err)
	pe.barrierDone(&r.w)
	return err
}

// phaseNext takes the member from its wake-up in barrier r.k, with status
// st, to its park in barrier r.k+1: it leaves r.k, runs step r.k and arrives
// at r.k+1. It reports false when the member does not park again: the
// collective is over, or err stopped it.
func (pe *PE) phaseNext(r *phaseRun, st uint8) (bool, error) {
	if err := pe.phaseLeave(r, st, nil); err != nil || r.k == r.steps {
		return false, err
	}
	if err := r.step.run(pe, r); err != nil {
		return false, err
	}
	r.k++
	return pe.phaseArrive(r)
}

// turn is the driver's turn for PE id, readied with wakeForward or wakeStep,
// taken between resumes: the member forwards the wait signal, or leaves its
// barrier, runs its collective's next step and arrives at the next barrier,
// and parks again without its body running. It reports false when the turn
// is the body's after all. A forwarding turn is, untaken, when the program
// has aborted since, and the body unwinds, or the signal came late, and the
// body times out. A step turn is, taken, when it failed — the release came
// late, the program has aborted, the step or the arrival failed — and the
// body returns the error (phaseRun.err): it would have run the same code.
func (p *Program) turn(id int) bool {
	n, pe := &p.sched.pes[id], &p.pes[id]
	if n.wake == wakeStep {
		r := &p.phases[id]
		if parks, err := pe.phaseNext(r, wakeRun); !parks {
			if r.err == nil {
				r.err = err
			}
			return false
		}
		p.sched.repark(id)
		return true
	}
	if p.aborted {
		n.wake = wakeAbort
		return false
	}
	inst := pe.bar
	if inst.late(pe) {
		return false
	}
	idx, _ := inst.set.as.Index(id)
	p.sched.repark(id)
	_ = inst.forward(p, idx) // on time, so it cannot fail
	return true
}
