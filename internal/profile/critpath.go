package profile

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"tshmem/internal/vtime"
)

// Step is one link of the critical path: the run spent [Start, End) of
// virtual time doing Cat on PE (for CatMesh steps reached through an
// edge, "on PE" means "in flight toward PE"). Steps are contiguous and
// chronological; their durations sum exactly to the run's makespan.
type Step struct {
	PE    int32
	Cat   Category
	Start vtime.Time
	End   vtime.Time
}

// Dur is the step's virtual duration.
func (s Step) Dur() vtime.Duration { return s.End.Sub(s.Start) }

// criticalPath walks the happens-before DAG backward from the PE that
// determined the makespan (argmax end, ties to the lowest PE id) down to
// virtual time zero.
//
// The walk maintains a cursor (pe, t) with t strictly decreasing:
//
//   - If the latest segment of pe ending at or before t ends strictly
//     before t (or there is none), the gap is uninstrumented local work:
//     emit a compute step and move the cursor to the gap's start.
//   - A segment without an edge is emitted as-is; the cursor moves to
//     its start.
//   - A segment carrying an edge (always CatMesh transport) is emitted
//     as [Sent, End) — the full in-flight interval on the chain — and
//     the cursor jumps to (Peer, Sent). Idle-wait segments on the waiter
//     are thereby skipped: idle waiting never determines the end time.
//
// Each emitted step covers exactly [new cursor, old cursor), so the
// steps tile [0, makespan) and their durations telescope to the
// makespan. Recorded segments always have End > Start (and edges Sent <
// End), so the cursor strictly decreases and the walk terminates.
//
// The walk meets the steps last to first. It merges adjacent steps that
// stay on the same PE in the same category as it goes, in a scratch slice
// recycled across runs (walkScratch), and returns them reversed in a slice
// of exactly their number: the profile keeps the path, never the scratch.
func criticalPath(recs []*Recorder, ends []vtime.Time) []Step {
	if len(ends) == 0 {
		return nil
	}
	pe := 0
	for i := 1; i < len(ends); i++ {
		if ends[i] > ends[pe] {
			pe = i
		}
	}
	cursor := ends[pe]
	ws := walkScratch.Get().(*walkState)
	rev, hi := ws.rev[:0], append(ws.hi[:0], make([]int, len(recs))...)
	// Safety bound: the cursor argument makes the walk finite, but cap
	// steps anyway so malformed segment streams degrade instead of
	// looping. Each seg/gap contributes at most two steps.
	budget := 2*len(ends) + 16
	for i, r := range recs {
		if r != nil {
			hi[i] = len(r.segs)
			budget += 2 * len(r.segs)
		}
	}
	emit := func(s Step) {
		if n := len(rev); n > 0 && rev[n-1].PE == s.PE && rev[n-1].Cat == s.Cat && rev[n-1].Start == s.End {
			rev[n-1].Start = s.Start
			return
		}
		rev = append(rev, s)
	}
	for cursor > 0 && budget > 0 {
		budget--
		// Latest seg of pe with End <= cursor. The cursor only ever moves
		// down, so on every PE that seg does too: the scan resumes where the
		// PE's last one stopped and passes each segment once in the whole walk.
		var segs []Seg
		i := -1
		if pe < len(recs) && recs[pe] != nil {
			segs = recs[pe].segs
			for i = hi[pe] - 1; i >= 0 && segs[i].End > cursor; i-- {
			}
			hi[pe] = i + 1
		}
		if i < 0 || segs[i].End < cursor {
			start := vtime.Time(0)
			if i >= 0 {
				start = segs[i].End
			}
			emit(Step{PE: int32(pe), Cat: CatCompute, Start: start, End: cursor})
			cursor = start
			continue
		}
		s := segs[i]
		if s.Peer >= 0 {
			// Zero-transport edges (Sent == End) contribute no step; the
			// walk just hops to the writer. budget still decrements, so
			// even a malformed same-instant edge cycle terminates.
			if cursor > s.Sent {
				emit(Step{PE: int32(pe), Cat: s.Cat, Start: s.Sent, End: cursor})
			}
			cursor = s.Sent
			pe = int(s.Peer)
			continue
		}
		emit(Step{PE: int32(pe), Cat: s.Cat, Start: s.Start, End: cursor})
		cursor = s.Start
	}
	out := make([]Step, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	ws.rev, ws.hi = rev, hi
	walkScratch.Put(ws)
	return out
}

// walkState is criticalPath's working memory, recycled across runs: every
// profiled run of a shape walks a path about as long as the last one's.
type walkState struct {
	rev []Step // the path so far, last step first
	hi  []int  // per PE: how many of its segs can still end at or before the cursor
}

var walkScratch = sync.Pool{New: func() any { return new(walkState) }}

// PathTable renders the critical path chronologically with per-step
// durations and the share of the makespan each step explains, followed by
// a per-category rollup and the largest per-PE slacks.
func (p *Profile) PathTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d steps, makespan %.3f us\n", len(p.Path), p.Makespan.Us())
	var byCat [NumCategories]vtime.Duration
	for _, s := range p.Path {
		byCat[s.Cat] += s.Dur()
		pct := 0.0
		if p.Makespan > 0 {
			pct = 100 * float64(s.Dur()) / float64(p.Makespan)
		}
		fmt.Fprintf(&b, "  %10.3f..%-10.3f PE %-3d %-12s %10.3f us %5.1f%%\n",
			s.Start.Ns()/1e3, s.End.Ns()/1e3, s.PE, s.Cat.String(), s.Dur().Us(), pct)
	}
	b.WriteString("on-path by category:\n")
	for c := Category(0); c < NumCategories; c++ {
		if byCat[c] == 0 {
			continue
		}
		pct := 0.0
		if p.Makespan > 0 {
			pct = 100 * float64(byCat[c]) / float64(p.Makespan)
		}
		fmt.Fprintf(&b, "  %-12s %10.3f us %5.1f%%\n", c.String(), byCat[c].Us(), pct)
	}
	// Slack: how far off the path each PE finished.
	type sl struct {
		pe    int
		slack vtime.Duration
	}
	sls := make([]sl, 0, len(p.PEs))
	for _, pe := range p.PEs {
		sls = append(sls, sl{pe.PE, pe.Slack})
	}
	sort.Slice(sls, func(a, b int) bool {
		if sls[a].slack != sls[b].slack {
			return sls[a].slack > sls[b].slack
		}
		return sls[a].pe < sls[b].pe
	})
	b.WriteString("slack (off-path headroom, largest first):\n")
	for i, s := range sls {
		if i >= 8 {
			fmt.Fprintf(&b, "  ... %d more PEs\n", len(sls)-i)
			break
		}
		fmt.Fprintf(&b, "  PE %-3d %10.3f us\n", s.pe, s.slack.Us())
	}
	return b.String()
}
