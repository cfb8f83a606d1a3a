package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one timed interval of host time recorded by the traced pass.
// Parent is the ID of the span that caused it (0 for a rep, the root).
// Spans of one rep share Rep and Engine. Times are nanoseconds since the
// tracer was created.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Engine  string `json:"engine"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so the untraced pass runs the same code without a
// single time.Now in the measured path.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end time.Time, parent, rep int, engine string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Rep: rep, Engine: engine,
	})
	return id
}

// begin opens a span whose end is set later by end; it exists so that
// children can name their parent before the parent has finished.
func (t *tracer) begin(name string, parent, rep int, engine string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(name, now, now, parent, rep, engine)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// opSpans collects the op-class batch spans of one PE body. Only PE 0 is
// handed a non-nil *opSpans: one PE's view is enough to see where body
// time goes, and the other PEs then run without any clock reads. The
// harness merges them under the body span once core.Run has returned.
type opSpans struct {
	batches []opBatch
}

type opBatch struct {
	name       string
	start, end time.Time
}

// start returns the batch start time, or the zero time when not tracing.
func (o *opSpans) start() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// done closes a batch of operations of class name begun at start.
func (o *opSpans) done(name string, start time.Time) {
	if o == nil {
		return
	}
	o.batches = append(o.batches, opBatch{name: name, start: start, end: time.Now()})
}

// selfTime is one row of the per-span-name summary: how often the span
// occurred, its total duration, and its self time — the duration minus
// the part of the interval its child spans cover.
type selfTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes folds the recorded spans into per-name totals. Children are
// clipped to their parent and overlapping children are merged before
// subtraction, so concurrent children never drive self time negative.
func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*selfTime)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].StartNs < t.spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(t.spans[k].StartNs, edge), min(t.spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		row := byName[s.Name]
		if row == nil {
			row = &selfTime{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.TotalNs += s.EndNs - s.StartNs
		row.SelfNs += s.EndNs - s.StartNs - covered
	}
	out := make([]selfTime, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfNs > out[b].SelfNs })
	return out
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Manifest manifest `json:"manifest"`
	Spans    []span   `json:"spans"`
}

// write stores the spans with the run manifest at path.
func (t *tracer) write(path string, m manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(traceFile{Manifest: m, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
