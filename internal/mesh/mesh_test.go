package mesh

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"tshmem/internal/arch"
)

func gx6x6(t *testing.T) Geometry {
	t.Helper()
	g, err := NewGeometry(arch.Gx8036(), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pro6x6(t *testing.T) Geometry {
	t.Helper()
	g, err := NewGeometry(arch.Pro64(), 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGeometryBounds(t *testing.T) {
	if _, err := NewGeometry(arch.Gx8036(), 7, 6); err == nil {
		t.Error("7x6 should not fit a 6x6 chip")
	}
	if _, err := NewGeometry(arch.Gx8036(), 0, 3); err == nil {
		t.Error("zero-width area should be rejected")
	}
	if _, err := NewGeometry(arch.Pro64(), 8, 8); err != nil {
		t.Errorf("8x8 on TILEPro64: %v", err)
	}
}

func TestFullGeometry(t *testing.T) {
	g := FullGeometry(arch.Pro64())
	if g.Tiles() != 64 || g.Width != 8 || g.Height != 8 {
		t.Errorf("full TILEPro64 geometry = %dx%d", g.Width, g.Height)
	}
	if g.Chip().Name != "TILEPro64" {
		t.Errorf("chip = %s", g.Chip().Name)
	}
}

func TestAreaGeometry(t *testing.T) {
	cases := []struct {
		n            int
		wantW, wantH int
	}{
		{1, 1, 1},
		{2, 2, 2},
		{4, 2, 2},
		{5, 3, 3},
		{9, 3, 3},
		{16, 4, 4},
		{17, 5, 5},
		{36, 6, 6},
	}
	for _, c := range cases {
		g, err := AreaGeometry(arch.Gx8036(), c.n)
		if err != nil {
			t.Fatalf("AreaGeometry(%d): %v", c.n, err)
		}
		if g.Width != c.wantW || g.Height != c.wantH {
			t.Errorf("AreaGeometry(%d) = %dx%d, want %dx%d", c.n, g.Width, g.Height, c.wantW, c.wantH)
		}
	}
	if _, err := AreaGeometry(arch.Gx8036(), 37); err == nil {
		t.Error("37 tiles should not fit the TILE-Gx8036")
	}
	if _, err := AreaGeometry(arch.Gx8036(), 0); err == nil {
		t.Error("zero tiles should be rejected")
	}
	// 37..64 must fit the TILEPro64 by growing beyond a 6x6 square.
	g, err := AreaGeometry(arch.Pro64(), 40)
	if err != nil || g.Tiles() < 40 {
		t.Errorf("AreaGeometry(Pro64, 40) = %dx%d, %v", g.Width, g.Height, err)
	}
}

func TestHops(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{5, 0}, 5},
		{Coord{0, 0}, Coord{5, 5}, 10},
		{Coord{3, 2}, Coord{1, 4}, 4},
	}
	for _, c := range cases {
		if got := Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopsSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax % 8), int(ay % 8)}
		b := Coord{int(bx % 8), int(by % 8)}
		return Hops(a, b) == Hops(b, a) && Hops(a, a) == 0 && Hops(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVirtualPhysicalMapping pins the paper's example: in a 6x6 test area
// on the 8x8 TILEPro64, virtual tile 6 is physical tile 8.
func TestVirtualPhysicalMapping(t *testing.T) {
	pro := pro6x6(t)
	if p, err := pro.PhysicalCPU(6); err != nil || p != 8 {
		t.Errorf("Pro virtual 6 -> physical %d (%v), want 8", p, err)
	}
	if p, err := pro.PhysicalCPU(35); err != nil || p != 45 {
		t.Errorf("Pro virtual 35 -> physical %d (%v), want 45", p, err)
	}
	// On the TILE-Gx36 the 6x6 area covers the chip: identity mapping.
	gx := gx6x6(t)
	for v := 0; v < 36; v++ {
		if p, err := gx.PhysicalCPU(v); err != nil || p != v {
			t.Fatalf("Gx virtual %d -> physical %d (%v), want identity", v, p, err)
		}
	}
}

func TestVirtualPhysicalRoundTrip(t *testing.T) {
	pro := pro6x6(t)
	for v := 0; v < pro.Tiles(); v++ {
		p, err := pro.PhysicalCPU(v)
		if err != nil {
			t.Fatal(err)
		}
		back, ok := pro.VirtualCPU(p)
		if !ok || back != v {
			t.Fatalf("round trip v=%d -> p=%d -> v=%d ok=%v", v, p, back, ok)
		}
	}
	// Physical CPUs outside the area do not map back.
	if _, ok := pro.VirtualCPU(6); ok {
		t.Error("physical 6 (column 6) should be outside the 6x6 area")
	}
	if _, ok := pro.VirtualCPU(-1); ok {
		t.Error("negative physical CPU should be rejected")
	}
	if _, ok := pro.VirtualCPU(64); ok {
		t.Error("physical CPU beyond grid should be rejected")
	}
}

func TestCoordErrors(t *testing.T) {
	g := gx6x6(t)
	if _, err := g.Coord(-1); err == nil {
		t.Error("negative virtual CPU accepted")
	}
	if _, err := g.Coord(36); err == nil {
		t.Error("out-of-area virtual CPU accepted")
	}
	if _, err := g.HopsBetween(0, 99); err == nil {
		t.Error("HopsBetween accepted bad CPU")
	}
	if _, err := g.HopsBetween(99, 0); err == nil {
		t.Error("HopsBetween accepted bad CPU")
	}
}

// TestTableIIILatencies reproduces the Table III one-way latency classes.
// Gx: neighbors 21-22 ns, side-to-side 25-26 ns, corners 31-32 ns.
// Pro: neighbors 18-19 ns, side-to-side 24-25 ns, corners ~33 ns.
func TestTableIIILatencies(t *testing.T) {
	type pair struct{ s, r int }
	neighbors := []pair{{14, 13}, {14, 15}, {14, 8}, {14, 20}}
	sideToSide := []pair{{6, 11}, {11, 6}, {1, 31}, {31, 1}}
	corners := []pair{{0, 35}, {35, 0}, {5, 30}, {30, 5}}

	check := func(g Geometry, ps []pair, lo, hi float64, label string) {
		t.Helper()
		for _, p := range ps {
			d, err := g.OneWayLatency(p.s, p.r, 1)
			if err != nil {
				t.Fatalf("%s %d->%d: %v", label, p.s, p.r, err)
			}
			if ns := d.Ns(); ns < lo || ns > hi {
				t.Errorf("%s %s %d->%d = %.1f ns, want [%v,%v]", g.Chip().Name, label, p.s, p.r, ns, lo, hi)
			}
		}
	}
	gx, pro := gx6x6(t), pro6x6(t)
	check(gx, neighbors, 20.5, 22.5, "neighbors")
	check(gx, sideToSide, 24.5, 26.5, "side-to-side")
	check(gx, corners, 30.5, 32.5, "corners")
	check(pro, neighbors, 17.5, 19.5, "neighbors")
	check(pro, sideToSide, 23.5, 25.5, "side-to-side")
	check(pro, corners, 31.5, 33.5, "corners")
}

// TestLatencyCrossover checks the Figure 4 structure: the TILE-Gx is slower
// for neighbors and side-to-side (64-bit fabric setup cost) but the curves
// meet near the corners where the Pro's slower per-hop rate catches up.
func TestLatencyCrossover(t *testing.T) {
	gx, pro := gx6x6(t), pro6x6(t)
	lat := func(g Geometry, s, r int) float64 {
		d, err := g.OneWayLatency(s, r, 1)
		if err != nil {
			t.Fatal(err)
		}
		return d.Ns()
	}
	if lat(gx, 14, 13) <= lat(pro, 14, 13) {
		t.Error("Gx neighbors should be slower than Pro (setup-and-teardown)")
	}
	if lat(gx, 6, 11) <= lat(pro, 6, 11) {
		t.Error("Gx side-to-side should be slower than Pro")
	}
	if lat(gx, 0, 35) >= lat(pro, 0, 35) {
		t.Error("Gx corners should be faster than Pro (per-hop rate)")
	}
}

func TestPayloadScaling(t *testing.T) {
	g := gx6x6(t)
	one, err := g.OneWayLatency(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := g.OneWayLatency(0, 1, 127)
	if err != nil {
		t.Fatal(err)
	}
	// Cut-through: each extra word adds one cycle (1 ns on the Gx).
	extra := many.Ns() - one.Ns()
	if math.Abs(extra-126) > 0.5 {
		t.Errorf("127-word packet costs %.1f ns extra, want ~126", extra)
	}
	if _, err := g.OneWayLatency(0, 1, 128); err == nil {
		t.Error("payload above 127 words must be rejected")
	}
	if _, err := g.OneWayLatency(0, 1, 0); err == nil {
		t.Error("zero-word payload must be rejected")
	}
}

func TestSendWireSplit(t *testing.T) {
	g := gx6x6(t)
	for _, pair := range [][2]int{{0, 35}, {14, 13}, {3, 33}} {
		total, err := g.OneWayLatency(pair[0], pair[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		send, err := g.SendLatency(pair[0], pair[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := g.WireLatency(pair[0], pair[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		if send+wire != total {
			t.Errorf("split %v+%v != total %v", send, wire, total)
		}
		if send <= 0 || wire <= 0 {
			t.Errorf("both halves must be positive: send=%v wire=%v", send, wire)
		}
	}
}

func TestDirectionOf(t *testing.T) {
	o := Coord{3, 3}
	cases := []struct {
		b    Coord
		want Direction
	}{
		{Coord{3, 3}, Self},
		{Coord{2, 3}, Left},
		{Coord{4, 3}, Right},
		{Coord{3, 2}, Up},
		{Coord{3, 4}, Down},
		{Coord{1, 5}, Left}, // X first under XY routing
	}
	for _, c := range cases {
		if got := DirectionOf(o, c.b); got != c.want {
			t.Errorf("DirectionOf(%v,%v) = %v, want %v", o, c.b, got, c.want)
		}
	}
	for d, want := range map[Direction]string{Self: "self", Left: "left", Right: "right", Up: "up", Down: "down"} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
}

// TestLatencyMetricProperties: OneWayLatency behaves like a proper metric
// plus constant: nonnegative, roughly symmetric (within the directional
// epsilon), and monotone in hop count.
func TestLatencyMetricProperties(t *testing.T) {
	g := gx6x6(t)
	f := func(a, b uint8) bool {
		s, r := int(a%36), int(b%36)
		if s == r {
			return true
		}
		d1, err1 := g.OneWayLatency(s, r, 1)
		d2, err2 := g.OneWayLatency(r, s, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return d1 > 0 && d2 > 0 && math.Abs(d1.Ns()-d2.Ns()) <= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Monotonicity along a row.
	prev := -1.0
	for dst := 1; dst < 6; dst++ {
		d, err := g.OneWayLatency(0, dst, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Ns() <= prev {
			t.Fatalf("latency not increasing with distance at dst=%d", dst)
		}
		prev = d.Ns()
	}
}

// perturbNumeric calls visit once for each way of changing one number (or
// flag) reachable from v — a struct's fields, through nested structs and
// slices — with that one value changed and everything else as it was: an
// integer becomes 0 and n+1, a float 0 and 1.5x+1, a flag its opposite.
func perturbNumeric(v reflect.Value, path string, visit func(path string)) {
	try := func(set func(), restore func()) {
		set()
		visit(path)
		restore()
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbNumeric(v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbNumeric(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Int, reflect.Int64:
		old := v.Int()
		for _, n := range []int64{0, old + 1} {
			try(func() { v.SetInt(n) }, func() { v.SetInt(old) })
		}
	case reflect.Float64:
		old := v.Float()
		for _, f := range []float64{0, old*1.5 + 1} {
			try(func() { v.SetFloat(f) }, func() { v.SetFloat(old) })
		}
	case reflect.Bool:
		old := v.Bool()
		try(func() { v.SetBool(!old) }, func() { v.SetBool(old) })
	}
}

// TestRouteKeyCoversPath holds RouteKey to its contract: internal/core caches
// a result computed from Path alone under it, so whatever changes a route
// must change the key. Every number in a copied arch.Chip is perturbed in
// turn; whenever any one-word Path on a 5x3 area then resolves differently
// (or fails differently), the key must differ too. The area's own numbers
// are checked by hand.
func TestRouteKeyCoversPath(t *testing.T) {
	type route struct {
		info PathInfo
		err  string
	}
	routes := func(g Geometry) []route {
		var out []route
		for src := 0; src < 15; src++ {
			for dst := 0; dst < 15; dst++ {
				info, err := g.Path(src, dst, 1)
				r := route{info: info}
				if err != nil {
					r.err = err.Error()
				}
				out = append(out, r)
			}
		}
		return out
	}
	for _, chip := range []*arch.Chip{arch.Gx8036(), arch.Pro64(), arch.EpiphanyIII()} {
		// NewGeometry's bounds test is not Path's: build the area directly so
		// that a perturbed grid cannot refuse it.
		g := Geometry{chip: chip, Width: 5, Height: 3}
		baseKey, baseRoutes := g.RouteKey(), routes(g)
		moved := 0
		perturbNumeric(reflect.ValueOf(chip).Elem(), chip.Name, func(path string) {
			if reflect.DeepEqual(routes(g), baseRoutes) {
				return
			}
			moved++
			if g.RouteKey() == baseKey {
				t.Errorf("%s changes a route on the 5x3 area and leaves RouteKey as it was", path)
			}
		})
		if g.RouteKey() != baseKey {
			t.Fatalf("%s: the perturbation did not restore the chip", chip.Name)
		}
		// Setup, send share, hop (or clock) and the payload limit at zero.
		if moved < 4 {
			t.Errorf("%s: only %d perturbations moved a route; the test is not reaching Path's inputs", chip.Name, moved)
		}
	}
	g := gx6x6(t)
	for _, other := range []Geometry{
		{chip: g.chip, Width: 5, Height: 6}, {chip: g.chip, Width: 6, Height: 5},
	} {
		if other.RouteKey() == g.RouteKey() {
			t.Errorf("a %dx%d and a 6x6 area share a RouteKey", other.Width, other.Height)
		}
	}
	if gx6x6(t).RouteKey() != g.RouteKey() {
		t.Error("two geometries over equal chips do not share a RouteKey")
	}
}
