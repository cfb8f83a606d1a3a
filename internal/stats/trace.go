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

// loserTree is a tournament over k sorted buffers, in one k-entry array: entry
// i holds leaf i's unmerged tail and, for i >= 1, the loser of the match
// played at internal node i; entry 0's loser field holds the overall winner.
// Node m's children are 2m and 2m+1, and leaf i sits at node k+i, so every
// node below k is a match and every node from k up is a leaf.
type loserTree []mergeEntry

type mergeEntry struct {
	evs   []Event
	loser int32
}

// before orders leaves a and b by head event, then by leaf index — input
// order, which keeps the merge stable. An exhausted leaf comes after every
// live one. The event order is compareEvents', spelled out: compareEvents
// does not inline, and a call per match cost the merge 15 %.
func (t loserTree) before(a, b int32) bool {
	ea, eb := t[a].evs, t[b].evs
	switch {
	case len(eb) == 0:
		return len(ea) > 0
	case len(ea) == 0:
		return false
	}
	x, y := &ea[0], &eb[0]
	switch {
	case x.Start != y.Start:
		return x.Start < y.Start
	case x.PE != y.PE:
		return x.PE < y.PE
	case x.End != y.End:
		return x.End > y.End
	}
	return a < b
}

// play returns the winner of the subtree under node m, leaving each match's
// loser at its node.
func (t loserTree) play(m int) int32 {
	if m >= len(t) {
		return int32(m - len(t))
	}
	a, b := t.play(2*m), t.play(2*m+1)
	if t.before(b, a) {
		a, b = b, a
	}
	t[m].loser = b
	return a
}

// MergeEvents merges per-PE event buffers into one trace in compareEvents
// order, events that compare equal staying in input order. A recorder
// appends an event when its operation completes, so a buffer arrives
// ordered by end time, each collective behind the puts and barriers it
// contains. MergeEvents first sorts every buffer in place into trace order
// (a stable sort that is near-linear on such input, where an event is out
// of place only by its own descendants) and then merges the k buffers
// through a loser tree: an event costs the log2(k) matches on its leaf's
// path to the root, against the loser stored at each, where a binary heap of
// the heads compared both children at every level and swapped 32-byte
// entries.
func MergeEvents(perPE [][]Event) []Event {
	var n int
	t := make(loserTree, 0, len(perPE))
	for _, evs := range perPE {
		if len(evs) == 0 {
			continue
		}
		n += len(evs)
		slices.SortStableFunc(evs, func(a, b Event) int { return compareEvents(&a, &b) })
		t = append(t, mergeEntry{evs: evs})
	}
	out := make([]Event, 0, n)
	if len(t) == 0 {
		return out
	}
	t[0].loser = t.play(1)
	for live := len(t); live > 1; {
		w := t[0].loser
		out = append(out, t[w].evs[0])
		if t[w].evs = t[w].evs[1:]; len(t[w].evs) == 0 {
			live--
		}
		// Replay w's path: at each node the better of w and the stored loser
		// goes on up, the other stays.
		for m := (len(t) + int(w)) / 2; m > 0; m /= 2 {
			if l := t[m].loser; t.before(l, w) {
				t[m].loser, w = w, l
			}
		}
		t[0].loser = w
	}
	return append(out, t[t[0].loser].evs...)
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
