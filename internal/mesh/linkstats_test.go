package mesh

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"tshmem/internal/arch"
)

func testGeo(t *testing.T, w, h int) Geometry {
	t.Helper()
	g, err := NewGeometry(arch.Gx8036(), w, h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A route must charge every link of its X-then-Y dimension-order path and
// nothing else.
func TestRecordRouteXYPath(t *testing.T) {
	ls := NewLinkStats(testGeo(t, 4, 4))
	// Virtual 0 = (0,0) to virtual 10 = (2,2): east, east, south, south.
	ls.RecordRoute(0, 10, 5)
	u := ls.Snapshot()
	want := []struct {
		x, y int
		d    LinkDir
	}{
		{0, 0, LinkEast}, {1, 0, LinkEast}, {2, 0, LinkSouth}, {2, 1, LinkSouth},
	}
	for _, l := range want {
		if got := u.Link(l.x, l.y, l.d); got != 5 {
			t.Errorf("link (%d,%d) %v = %d words, want 5", l.x, l.y, l.d, got)
		}
	}
	var total int64
	for y := 0; y < u.Height; y++ {
		for x := 0; x < u.Width; x++ {
			for d := LinkDir(0); d < NumLinkDirs; d++ {
				total += u.Link(x, y, d)
			}
		}
	}
	if total != 4*5 {
		t.Errorf("total words on links = %d, want 20 (4 hops x 5 words)", total)
	}
	// Reverse route uses the opposite directions: west/north legs, and
	// again X before Y (so the turn corner differs from the forward path).
	ls2 := NewLinkStats(testGeo(t, 4, 4))
	ls2.RecordRoute(10, 0, 1)
	u2 := ls2.Snapshot()
	for _, l := range []struct {
		x, y int
		d    LinkDir
	}{
		{2, 2, LinkWest}, {1, 2, LinkWest}, {0, 2, LinkNorth}, {0, 1, LinkNorth},
	} {
		if got := u2.Link(l.x, l.y, l.d); got != 1 {
			t.Errorf("reverse link (%d,%d) %v = %d, want 1", l.x, l.y, l.d, got)
		}
	}
}

func TestRecordRouteEdgeCases(t *testing.T) {
	ls := NewLinkStats(testGeo(t, 4, 4))
	ls.RecordRoute(3, 3, 7)  // self: nothing
	ls.RecordRoute(0, 99, 7) // out of area: nothing
	ls.RecordRoute(-1, 2, 7) // out of area: nothing
	ls.RecordRoute(0, 1, 0)  // zero words: nothing
	var nilLS *LinkStats
	nilLS.RecordRoute(0, 1, 4) // nil-safe
	nilLS.RecordQueueDepth(0, 3)
	if nilLS.Snapshot() != nil {
		t.Error("nil Snapshot must be nil")
	}
	if m := ls.Snapshot().MaxLink(); m != 0 {
		t.Errorf("degenerate routes recorded %d words", m)
	}
}

func TestQueueDepthHighWater(t *testing.T) {
	ls := NewLinkStats(testGeo(t, 2, 2))
	ls.RecordQueueDepth(1, 3)
	ls.RecordQueueDepth(1, 2) // lower: ignored
	ls.RecordQueueDepth(1, 9)
	ls.RecordQueueDepth(99, 5) // out of range: ignored
	u := ls.Snapshot()
	if u.QueueHWM(1, 0) != 9 || u.MaxQueueHWM() != 9 {
		t.Errorf("hwm = %d (max %d), want 9", u.QueueHWM(1, 0), u.MaxQueueHWM())
	}
	// A snapshot is a copy: what is recorded after it does not show in it.
	ls.RecordQueueDepth(1, 20)
	ls.RecordRoute(0, 1, 4)
	if u.QueueHWM(1, 0) != 9 || u.TotalWords() != 0 {
		t.Errorf("snapshot moved with the live counters: hwm %d, %d words", u.QueueHWM(1, 0), u.TotalWords())
	}
	if u2 := ls.Snapshot(); u2.QueueHWM(1, 0) != 20 || u2.TotalWords() != 4 {
		t.Errorf("second snapshot: hwm %d, %d words; want 20, 4", u2.QueueHWM(1, 0), u2.TotalWords())
	}
}

// A LinkStats that Clear emptied and Reset pointed at an area records and
// snapshots exactly as a new one for that area, its earlier snapshots keep
// their counts, and it reuses its blocks when the area needs as many.
func TestLinkStatsResetIsFresh(t *testing.T) {
	big, err := NewGeometry(arch.Synthetic(16, 16), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	small := testGeo(t, 4, 4)
	// traffic routes among the first tiles tiles of the area only, so a
	// later, narrower pass leaves kept blocks untouched.
	traffic := func(ls *LinkStats, tiles int) {
		for i := 0; i < tiles; i += 3 {
			ls.RecordRoute(i, tiles-1-i, 1+i%5)
			ls.RecordQueueDepth(i, 1+i%4)
		}
	}
	ls := NewLinkStats(big)
	traffic(ls, 256)
	before := ls.Snapshot()
	for _, pass := range []struct {
		geo   Geometry
		tiles int
	}{{big, 256}, {small, 16}, {big, 256}, {big, 16}, {big, 256}} {
		geo := pass.geo
		kept := slices.Clone(ls.blocks)
		ls.Clear()
		ls.Reset(geo)
		if u := ls.Snapshot(); slices.ContainsFunc(u.blocks, func(b *linkBlock) bool { return b != nil }) {
			t.Fatalf("a reset LinkStats snapshots blocks: %d words, queue mark %d", u.TotalWords(), u.MaxQueueHWM())
		}
		fresh := NewLinkStats(geo)
		traffic(ls, pass.tiles)
		traffic(fresh, pass.tiles)
		if got, want := ls.Snapshot(), fresh.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%dx%d, %d tiles: a reset LinkStats snapshots %+v, a new one %+v", geo.Width, geo.Height, pass.tiles, got, want)
		}
		if len(kept) == len(ls.blocks) {
			for i, b := range kept {
				if b != nil && ls.blocks[i] != b {
					t.Errorf("%dx%d: block %d was made again, not reused", geo.Width, geo.Height, i)
				}
			}
		}
	}
	fresh := NewLinkStats(big)
	traffic(fresh, 256)
	if !reflect.DeepEqual(before, fresh.Snapshot()) {
		t.Error("a snapshot taken before Clear changed with it")
	}
}

func TestHotLinksRanking(t *testing.T) {
	ls := NewLinkStats(testGeo(t, 3, 1))
	ls.RecordRoute(0, 2, 10) // (0,0)E and (1,0)E get 10
	ls.RecordRoute(1, 2, 5)  // (1,0)E gets 5 more
	hot := ls.Snapshot().HotLinks(2)
	if len(hot) != 2 {
		t.Fatalf("got %d hot links, want 2", len(hot))
	}
	if hot[0].From != (Coord{X: 1, Y: 0}) || hot[0].Words != 15 {
		t.Errorf("hottest = %+v, want (1,0) east with 15 words", hot[0])
	}
	if hot[1].Words != 10 {
		t.Errorf("second = %+v, want 10 words", hot[1])
	}
}

func TestUtilizationAdd(t *testing.T) {
	a := NewLinkStats(testGeo(t, 2, 2))
	b := NewLinkStats(testGeo(t, 2, 2))
	a.RecordRoute(0, 1, 3)
	b.RecordRoute(0, 1, 4)
	b.RecordQueueDepth(1, 5)
	ua, ub := a.Snapshot(), b.Snapshot()
	if err := ua.Add(ub); err != nil {
		t.Fatal(err)
	}
	if got := ua.Link(0, 0, LinkEast); got != 7 {
		t.Errorf("folded link = %d, want 7", got)
	}
	if ua.QueueHWM(1, 0) != 5 {
		t.Errorf("folded hwm = %d, want 5", ua.QueueHWM(1, 0))
	}
	if err := ua.Add(NewLinkStats(testGeo(t, 3, 3)).Snapshot()); err == nil {
		t.Error("shape mismatch must error")
	}
}

func TestHeatmapRenderers(t *testing.T) {
	ls := NewLinkStats(testGeo(t, 4, 4))
	ls.RecordRoute(0, 3, 100)
	ls.RecordRoute(0, 12, 40)
	ls.RecordQueueDepth(3, 2)
	u := ls.Snapshot()
	a := u.ASCII()
	for _, want := range []string{"4x4", "[  0", ">100", "v40", "hottest links", "(0,0)->(1,0)"} {
		if !strings.Contains(a, want) {
			t.Errorf("ASCII heatmap missing %q:\n%s", want, a)
		}
	}
	s := u.SVG()
	for _, want := range []string{"<svg", "</svg>", "<rect", "<line", "100 words"} {
		if !strings.Contains(s, want) {
			t.Errorf("SVG heatmap missing %q", want)
		}
	}
	var empty *Utilization
	if !strings.Contains(empty.ASCII(), "no mesh utilization") {
		t.Error("nil ASCII must degrade gracefully")
	}
}
