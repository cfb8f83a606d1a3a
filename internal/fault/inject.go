package fault

import (
	"slices"

	"tshmem/internal/cache"
	"tshmem/internal/mesh"
	"tshmem/internal/vtime"
)

// Injector executes a validated Plan for one program run. All methods are
// nil-safe: a nil *Injector is the faults-disabled state and costs one
// branch on the hot path. The per-event perturbation counts are plain
// integers, bumped by whichever PE holds the run's baton; everything else
// is read-only after construction.
type Injector struct {
	plan    *Plan
	counts  []int64 // perturbations per plan event
	npes    int
	perChip int
}

// NewInjector builds an Injector for a program of npes PEs split into
// chips of perChip tiles. A nil plan yields a nil Injector (faults off).
// The plan must already be validated.
func NewInjector(plan *Plan, npes, perChip int) *Injector {
	if plan == nil {
		return nil
	}
	if perChip <= 0 {
		perChip = npes
	}
	return &Injector{
		plan:    plan,
		counts:  make([]int64, len(plan.Events)),
		npes:    npes,
		perChip: perChip,
	}
}

// Active reports whether fault injection is on.
func (in *Injector) Active() bool { return in != nil }

// Plan returns the executed plan (nil when faults are off).
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// Counts returns a snapshot of per-event perturbation counts, indexed
// like Plan().Events.
func (in *Injector) Counts() []int64 {
	if in == nil {
		return nil
	}
	return slices.Clone(in.counts)
}

func (in *Injector) count(id int) {
	if id >= 0 && id < len(in.counts) {
		in.counts[id]++
	}
}

// Blame picks the plan event most plausibly responsible for a wait that
// started at virtual time t on tile pe: an event targeting pe that is
// active at t, else any event active at t, else the last event that had
// already started, else -1. Purely a diagnostic aid — deterministic, and
// honest about being a heuristic.
func (in *Injector) Blame(pe int, t vtime.Time) int {
	if in == nil {
		return -1
	}
	anyActive, started := -1, -1
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if e.active(t) {
			if e.Kind != LinkSlow && e.Tile == pe {
				return i
			}
			if anyActive < 0 {
				anyActive = i
			}
		}
		if e.Start <= t {
			started = i
		}
	}
	if anyActive >= 0 {
		return anyActive
	}
	return started
}

// CopyExtra returns the additional virtual cost a charged memory copy of
// base duration incurs on tile pe (global rank) at virtual time now,
// given the run's homing policy, plus the id of the last contributing
// event (-1 if none). TileSlow events scale the whole copy; CacheStuck
// events scale the share of the copy homed at the stuck tile.
func (in *Injector) CopyExtra(pe int, h cache.Homing, tiles int, now vtime.Time, base vtime.Duration) (vtime.Duration, int) {
	if in == nil || base <= 0 {
		return 0, -1
	}
	var extra vtime.Duration
	id := -1
	for i := range in.plan.Events {
		e := &in.plan.Events[i]
		if !e.active(now) || e.Factor <= 1 {
			continue
		}
		switch e.Kind {
		case TileSlow:
			if e.Tile == pe {
				extra += vtime.Duration(float64(base) * (e.Factor - 1))
				id = i
				in.count(i)
			}
		case CacheStuck:
			// A stuck home tile only matters for copies on its own chip.
			if e.Tile/in.perChip != pe/in.perChip {
				continue
			}
			share := cache.HomeShare(h, pe%in.perChip, e.Tile%in.perChip, tiles)
			if share <= 0 {
				continue
			}
			extra += vtime.Duration(float64(base) * (e.Factor - 1) * share)
			id = i
			in.count(i)
		}
	}
	return extra, id
}

// Chip returns a view of the injector scoped to one chip whose tiles are
// the global ranks [base, base+tiles). udn.Network holds one per chip;
// its methods translate the network's local CPU numbers to global ranks.
// Nil-safe: a nil Injector yields a nil view.
func (in *Injector) Chip(base int, geo mesh.Geometry) *ChipView {
	if in == nil {
		return nil
	}
	return &ChipView{in: in, base: base, geo: geo}
}

// ChipView applies an Injector to one chip's UDN. All methods take local
// CPU numbers and are nil-safe and allocation-free.
type ChipView struct {
	in   *Injector
	base int
	geo  mesh.Geometry
}

// AdjustSend perturbs the latency of a UDN packet from local CPU src to
// local CPU dst that would normally cost send (sender occupancy) + wire.
// It returns the adjusted pair, the id of the last applied event (-1 when
// untouched), and drop=true when a TileDead event swallows the packet.
func (cv *ChipView) AdjustSend(src, dst int, now vtime.Time, send, wire vtime.Duration) (vtime.Duration, vtime.Duration, int, bool) {
	if cv == nil {
		return send, wire, -1, false
	}
	gsrc, gdst := cv.base+src, cv.base+dst
	id := -1
	for i := range cv.in.plan.Events {
		e := &cv.in.plan.Events[i]
		if !e.active(now) {
			continue
		}
		switch e.Kind {
		case TileDead:
			if e.Tile == gsrc || e.Tile == gdst {
				cv.in.count(i)
				return send, wire, i, true
			}
		case TileSlow:
			if e.Tile == gsrc && e.Factor > 1 {
				send = vtime.Duration(float64(send) * e.Factor)
				wire = vtime.Duration(float64(wire) * e.Factor)
				id = i
				cv.in.count(i)
			}
		case LinkSlow:
			on, err := cv.geo.RouteUsesLink(src, dst, e.From-cv.base, e.To-cv.base)
			if err != nil || !on {
				continue
			}
			if e.Factor > 1 {
				wire = vtime.Duration(float64(wire) * e.Factor)
			}
			wire += e.Extra
			id = i
			cv.in.count(i)
		}
	}
	return send, wire, id, false
}

// HoldArrive applies demux-queue stalls to a packet arriving at local CPU
// dst's demux queue dq at virtual time arrive. It returns the (possibly
// deferred) arrival time, the id of the applied event, and drop=true when
// an end-less stall swallows the packet.
func (cv *ChipView) HoldArrive(dst, dq int, arrive vtime.Time) (vtime.Time, int, bool) {
	if cv == nil {
		return arrive, -1, false
	}
	gdst := cv.base + dst
	id := -1
	for i := range cv.in.plan.Events {
		e := &cv.in.plan.Events[i]
		if e.Kind != UDNStall || e.Tile != gdst || !e.active(arrive) {
			continue
		}
		if e.Queue >= 0 && e.Queue != dq {
			continue
		}
		cv.in.count(i)
		if e.End == 0 {
			return arrive, i, true
		}
		if e.End > arrive {
			arrive = e.End
		}
		id = i
	}
	return arrive, id, false
}

// DropInterrupt reports whether a UDN interrupt raised by local CPU src
// toward local CPU dst at virtual time now is dropped, and by which
// event.
func (cv *ChipView) DropInterrupt(src, dst int, now vtime.Time) (int, bool) {
	if cv == nil {
		return -1, false
	}
	gsrc, gdst := cv.base+src, cv.base+dst
	for i := range cv.in.plan.Events {
		e := &cv.in.plan.Events[i]
		if !e.active(now) {
			continue
		}
		switch e.Kind {
		case TileDead:
			if e.Tile == gsrc || e.Tile == gdst {
				cv.in.count(i)
				return i, true
			}
		case UDNDropIntr:
			if e.Tile == gdst {
				cv.in.count(i)
				return i, true
			}
		}
	}
	return -1, false
}
