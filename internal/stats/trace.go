package stats

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"tshmem/internal/vtime"
)

// compareEvents is the trace order: by virtual start time, then PE, then
// the later end first, so an enclosing span sorts before the spans it
// contains that started with it.
func compareEvents(a, b *Event) int {
	switch {
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	case a.PE != b.PE:
		return cmp.Compare(a.PE, b.PE)
	default:
		return cmp.Compare(b.End, a.End)
	}
}

// mergeSource is one buffer's unmerged tail; idx is the buffer's position
// in the input, the last tie-break (it keeps the merge stable).
type mergeSource struct {
	evs []Event
	idx int
}

func (s *mergeSource) before(o *mergeSource) bool {
	c := compareEvents(&s.evs[0], &o.evs[0])
	return c < 0 || c == 0 && s.idx < o.idx
}

// siftDown restores the min-heap property of h below position i.
func siftDown(h []mergeSource, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// MergeEvents merges per-PE event buffers into one trace in compareEvents
// order, events that compare equal staying in input order. A recorder
// appends an event when its operation completes, so a buffer arrives
// ordered by end time, each collective behind the puts and barriers it
// contains. MergeEvents first sorts every buffer in place into trace order
// (a stable sort that is near-linear on such input, where an event is out
// of place only by its own descendants) and then merges the k buffers
// through a binary heap of their heads.
func MergeEvents(perPE [][]Event) []Event {
	var n int
	h := make([]mergeSource, 0, len(perPE))
	for i, evs := range perPE {
		if len(evs) == 0 {
			continue
		}
		n += len(evs)
		slices.SortStableFunc(evs, func(a, b Event) int { return compareEvents(&a, &b) })
		h = append(h, mergeSource{evs: evs, idx: i})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]Event, 0, n)
	for len(h) > 1 {
		top := &h[0]
		out = append(out, top.evs[0])
		if top.evs = top.evs[1:]; len(top.evs) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if len(h) == 1 {
		out = append(out, h[0].evs...)
	}
	return out
}

// WriteTrace emits events as Chrome trace_event JSON (the JSON Object
// Format: {"traceEvents":[...]}), loadable in Perfetto or chrome://tracing.
//
// Timestamps are virtual, not wall-clock: ts and dur are the event's
// virtual-time start and duration converted from picoseconds to the
// format's microsecond unit. All PEs share pid 0 (one simulated program);
// tid is the PE rank, and one metadata record per PE names its row
// "PE <rank>". Complete events ("ph":"X") carry bytes and peer in args.
//
// Events must be start-ordered (use MergeEvents); the format requires it
// for "X" events within a thread.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}
	pes := map[int32]bool{}
	for _, e := range events {
		pes[e.PE] = true
	}
	ranks := make([]int, 0, len(pes))
	for pe := range pes {
		ranks = append(ranks, int(pe))
	}
	sort.Ints(ranks)
	for _, pe := range ranks {
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"PE %d"}}`, pe, pe))
	}
	for _, e := range events {
		ts := float64(e.Start) / 1e6 // ps -> µs
		dur := float64(e.End-e.Start) / 1e6
		emit(fmt.Sprintf(
			`{"name":%q,"cat":"tshmem","ph":"X","ts":%.6f,"dur":%.6f,"pid":0,"tid":%d,"args":{"bytes":%d,"peer":%d}}`,
			e.Op.String(), ts, dur, e.PE, e.Bytes, e.Peer))
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// Coverage reports what fraction of the virtual window [from, to] on PE pe
// is covered by the union of that PE's trace events. Nested events (a put
// inside a broadcast) are unioned, not summed, so coverage never exceeds
// 1. It answers the EXPERIMENTS.md audit question: do the traced substrate
// operations explain the virtual time the benchmark reported?
func Coverage(events []Event, pe int, from, to vtime.Time) float64 {
	if to <= from {
		return 0
	}
	type iv struct{ s, e vtime.Time }
	var ivs []iv
	for _, ev := range events {
		if int(ev.PE) != pe {
			continue
		}
		s, e := ev.Start, ev.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var covered vtime.Duration
	var curS, curE vtime.Time
	have := false
	for _, v := range ivs {
		if !have {
			curS, curE, have = v.s, v.e, true
			continue
		}
		if v.s <= curE {
			if v.e > curE {
				curE = v.e
			}
			continue
		}
		covered += curE.Sub(curS)
		curS, curE = v.s, v.e
	}
	if have {
		covered += curE.Sub(curS)
	}
	return float64(covered) / float64(to.Sub(from))
}
