package mesh

import (
	"fmt"

	"tshmem/internal/arch"
	"tshmem/internal/vtime"
)

// Coord is a tile position in the physical grid.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Hops returns the XY dimension-order-routing hop count from a to b.
func Hops(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Geometry maps virtual CPU numbers (PE ranks in the test area) onto
// physical tiles of a chip. Width/Height describe the test area; the area
// is anchored at the chip's top-left corner, matching the paper's setup
// where virtual numbers equal physical numbers on the TILE-Gx36 but stride
// over the wider TILEPro64 grid (virtual tile 6 is physical tile 8).
type Geometry struct {
	chip          *arch.Chip
	Width, Height int
}

// NewGeometry builds a test-area geometry of w x h tiles on chip.
func NewGeometry(chip *arch.Chip, w, h int) (Geometry, error) {
	if w <= 0 || h <= 0 {
		return Geometry{}, fmt.Errorf("mesh: non-positive test area %dx%d", w, h)
	}
	if w > chip.GridW || h > chip.GridH {
		return Geometry{}, fmt.Errorf("mesh: test area %dx%d exceeds %s grid %dx%d",
			w, h, chip.Name, chip.GridW, chip.GridH)
	}
	return Geometry{chip: chip, Width: w, Height: h}, nil
}

// FullGeometry covers the entire chip.
func FullGeometry(chip *arch.Chip) Geometry {
	return Geometry{chip: chip, Width: chip.GridW, Height: chip.GridH}
}

// AreaGeometry returns the smallest square test area holding at least n
// tiles, mirroring how the paper grows the active tile set.
func AreaGeometry(chip *arch.Chip, n int) (Geometry, error) {
	if n <= 0 {
		return Geometry{}, fmt.Errorf("mesh: need at least one tile, got %d", n)
	}
	side := 1
	for side*side < n {
		side++
	}
	w, h := side, side
	if w > chip.GridW {
		w = chip.GridW
	}
	if h > chip.GridH {
		h = chip.GridH
	}
	for w*h < n && h < chip.GridH {
		h++
	}
	for w*h < n && w < chip.GridW {
		w++
	}
	if w*h < n {
		return Geometry{}, fmt.Errorf("mesh: %d tiles exceed %s capacity %d", n, chip.Name, chip.Tiles)
	}
	return Geometry{chip: chip, Width: w, Height: h}, nil
}

// Chip returns the chip this geometry is laid out on.
func (g Geometry) Chip() *arch.Chip { return g.chip }

// Tiles reports the number of tiles in the test area.
func (g Geometry) Tiles() int { return g.Width * g.Height }

// Coord returns the physical tile coordinate of virtual CPU v.
func (g Geometry) Coord(v int) (Coord, error) {
	if v < 0 || v >= g.Tiles() {
		return Coord{}, fmt.Errorf("mesh: virtual CPU %d outside %dx%d area", v, g.Width, g.Height)
	}
	return Coord{X: v % g.Width, Y: v / g.Width}, nil
}

// PhysicalCPU maps a virtual CPU number to the physical CPU number on the
// full chip grid. On a chip whose grid equals the test area they coincide;
// on the TILEPro64 a 6x6 area makes virtual 6 physical 8, as noted under
// Table III.
func (g Geometry) PhysicalCPU(v int) (int, error) {
	c, err := g.Coord(v)
	if err != nil {
		return 0, err
	}
	return c.Y*g.chip.GridW + c.X, nil
}

// VirtualCPU is the inverse of PhysicalCPU. It reports ok=false when the
// physical CPU lies outside the test area.
func (g Geometry) VirtualCPU(phys int) (v int, ok bool) {
	if phys < 0 || phys >= g.chip.Tiles {
		return 0, false
	}
	x, y := phys%g.chip.GridW, phys/g.chip.GridW
	if x >= g.Width || y >= g.Height {
		return 0, false
	}
	return y*g.Width + x, true
}

// HopsBetween reports the routing hop count between two virtual CPUs.
func (g Geometry) HopsBetween(a, b int) (int, error) {
	ca, err := g.Coord(a)
	if err != nil {
		return 0, err
	}
	cb, err := g.Coord(b)
	if err != nil {
		return 0, err
	}
	return Hops(ca, cb), nil
}

// Direction classifies the first routing leg of a transfer, used for the
// Table III direction labels. XY routing travels horizontally first.
type Direction int

const (
	Self Direction = iota
	Left
	Right
	Up
	Down
)

func (d Direction) String() string {
	switch d {
	case Self:
		return "self"
	case Left:
		return "left"
	case Right:
		return "right"
	case Up:
		return "up"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// DirectionOf reports the initial routing direction from a to b under XY
// dimension-order routing.
func DirectionOf(a, b Coord) Direction {
	switch {
	case b.X < a.X:
		return Left
	case b.X > a.X:
		return Right
	case b.Y < a.Y:
		return Up
	case b.Y > a.Y:
		return Down
	default:
		return Self
	}
}

// RouteUsesLink reports whether the XY dimension-order route from src to
// dst (virtual CPUs) crosses the directed link a->b. The link must be one
// unit mesh step; anything else (including out-of-range endpoints) simply
// never matches. Used by internal/fault to decide whether a LinkSlow
// hotspot applies to a packet.
func (g Geometry) RouteUsesLink(src, dst, a, b int) (bool, error) {
	cs, err := g.Coord(src)
	if err != nil {
		return false, err
	}
	cd, err := g.Coord(dst)
	if err != nil {
		return false, err
	}
	n := g.Tiles()
	if a < 0 || a >= n || b < 0 || b >= n {
		return false, nil
	}
	ca, _ := g.Coord(a)
	cb, _ := g.Coord(b)
	if Hops(ca, cb) != 1 {
		return false, nil
	}
	if cb.Y == ca.Y {
		// Horizontal link: the route's horizontal leg runs along row cs.Y
		// from cs.X toward cd.X.
		if ca.Y != cs.Y {
			return false, nil
		}
		if cb.X == ca.X+1 { // rightward link
			return cs.X <= ca.X && ca.X < cd.X, nil
		}
		// leftward link
		return cd.X < ca.X && ca.X <= cs.X, nil
	}
	// Vertical link: the vertical leg runs along column cd.X from cs.Y
	// toward cd.Y.
	if ca.X != cd.X {
		return false, nil
	}
	if cb.Y == ca.Y+1 { // downward link
		return cs.Y <= ca.Y && ca.Y < cd.Y, nil
	}
	// upward link
	return cd.Y < ca.Y && ca.Y <= cs.Y, nil
}

// PathInfo is the resolved route of one packet: the hop count and initial
// direction of its XY route, and its one-way latency split into the
// sender-side injection share (Send) and the in-flight remainder (Wire).
// Send + Wire is the full one-way latency.
type PathInfo struct {
	Hops int
	Dir  Direction
	Send vtime.Duration
	Wire vtime.Duration
}

// Latency reports the full one-way latency of the path.
func (p PathInfo) Latency() vtime.Duration { return p.Send + p.Wire }

// Path resolves the route of a words-long packet from virtual CPU src to
// dst in a single call: coordinates are looked up once, and the returned
// PathInfo carries the hop count (which the observability layer counts per
// injected packet) together with the latency split senders and receivers
// charge. It is the primitive behind OneWayLatency, SendLatency, and
// WireLatency.
//
// The route is computed in closed form from the XY dimension-order
// geometry — O(1) time and memory per call, so a 64x64 synthetic mesh
// costs no more to construct than a 4x4 one. (Earlier revisions
// precomputed a dense per-(src,dst) table, which is O(n^2) memory: ~400 MB
// for 4096 tiles. The closed form evaluates exactly the same expression in
// the same association order, so modeled virtual time is unchanged.)
//
// The latency model is setup-and-teardown + hops*hop + (words-1)*cycle for
// the trailing payload words of the cut-through wormhole, plus a small
// deterministic per-direction epsilon (+-0.5 ns) reproducing the 1 ns
// directional spread visible in Table III. The Send share is the chip's
// UDNSendShare of the setup cost, capped at the total.
func (g Geometry) Path(src, dst, words int) (PathInfo, error) {
	if words < 1 {
		return PathInfo{}, fmt.Errorf("mesh: packet needs at least 1 word, got %d", words)
	}
	if words > g.chip.UDNMaxWords {
		return PathInfo{}, fmt.Errorf("mesh: %d words exceed UDN payload limit %d", words, g.chip.UDNMaxWords)
	}
	ca, err := g.Coord(src)
	if err != nil {
		return PathInfo{}, err
	}
	cb, err := g.Coord(dst)
	if err != nil {
		return PathInfo{}, err
	}
	hops := Hops(ca, cb)
	dir := DirectionOf(ca, cb)
	ns := g.chip.UDNSetupNs + float64(hops)*g.chip.HopNs() + float64(words-1)*g.chip.CycleNs()
	ns += directionEps(dir)
	total := vtime.FromNs(ns)
	send := vtime.FromNs(g.chip.UDNSetupNs * g.chip.UDNSendShare)
	if send > total {
		send = total
	}
	return PathInfo{Hops: hops, Dir: dir, Send: send, Wire: total - send}, nil
}

// RouteKey is everything Path reads of a Geometry and its chip, as a
// comparable value: two geometries with equal keys resolve every (src, dst,
// words) to the same PathInfo or the same failure. It exists so that a
// result derived from Path alone — internal/core keeps the outcome of the
// start_pes handshake per mesh shape — can be cached under a value rather
// than under a *arch.Chip, which a caller may copy and edit. It lives beside
// Path so that a number Path starts to read is added here in the same edit;
// TestRouteKeyCoversPath perturbs every numeric Chip field to check it was.
type RouteKey struct {
	Width, Height int
	UDNMaxWords   int
	UDNSetupNs    float64
	UDNSendShare  float64
	UDNHopNs      float64 // HopNs reads it, and ClockHz when it is zero
	ClockHz       float64 // CycleNs
}

// RouteKey returns g's RouteKey.
func (g Geometry) RouteKey() RouteKey {
	return RouteKey{
		Width: g.Width, Height: g.Height,
		UDNMaxWords:  g.chip.UDNMaxWords,
		UDNSetupNs:   g.chip.UDNSetupNs,
		UDNSendShare: g.chip.UDNSendShare,
		UDNHopNs:     g.chip.UDNHopNs,
		ClockHz:      g.chip.ClockHz,
	}
}

// OneWayLatency models the one-way latency of a words-long packet from
// virtual CPU src to dst. See Path for the model.
func (g Geometry) OneWayLatency(src, dst, words int) (vtime.Duration, error) {
	p, err := g.Path(src, dst, words)
	if err != nil {
		return 0, err
	}
	return p.Latency(), nil
}

// directionEps is the deterministic sub-nanosecond skew per initial routing
// direction. Table III shows left-going transfers arriving ~1 ns earlier
// than the other directions on the TILE-Gx.
func directionEps(d Direction) float64 {
	switch d {
	case Left:
		return -0.4
	case Up:
		return -0.1
	case Right:
		return 0.3
	case Down:
		return 0.1
	default:
		return 0
	}
}

// SendLatency is the sender-side injection share of OneWayLatency, per the
// chip's UDNSendShare. SendLatency + WireLatency equals OneWayLatency.
func (g Geometry) SendLatency(src, dst, words int) (vtime.Duration, error) {
	p, err := g.Path(src, dst, words)
	if err != nil {
		return 0, err
	}
	return p.Send, nil
}

// WireLatency is the remainder of OneWayLatency after the sender-side
// share: time from injection until the packet is ready at the receiver.
func (g Geometry) WireLatency(src, dst, words int) (vtime.Duration, error) {
	p, err := g.Path(src, dst, words)
	if err != nil {
		return 0, err
	}
	return p.Wire, nil
}
