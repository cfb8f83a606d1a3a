package mesh

import (
	"fmt"
	"sort"
	"unsafe"
)

// LinkDir identifies one of a tile's four outgoing iMesh links.
type LinkDir int

const (
	LinkEast  LinkDir = iota // +X
	LinkWest                 // -X
	LinkSouth                // +Y
	LinkNorth                // -Y

	NumLinkDirs
)

func (d LinkDir) String() string {
	switch d {
	case LinkEast:
		return "east"
	case LinkWest:
		return "west"
	case LinkSouth:
		return "south"
	case LinkNorth:
		return "north"
	default:
		return fmt.Sprintf("LinkDir(%d)", int(d))
	}
}

// delta is the coordinate step one hop in direction d takes.
func (d LinkDir) delta() (dx, dy int) {
	switch d {
	case LinkEast:
		return 1, 0
	case LinkWest:
		return -1, 0
	case LinkSouth:
		return 0, 1
	default:
		return 0, -1
	}
}

// blockTiles is the tile granularity of the lazy accounting blocks: 64
// tiles' worth of link counters (~4.5 kB) per block. Traffic confined to a
// corner of a 64x64 synthetic mesh allocates only the blocks it crosses,
// so an idle geometry costs one pointer slice instead of dense arrays over
// all 4096 tiles.
const blockTiles = 64

// linkBlock holds the counters of one blockTiles-tile span, live in a
// LinkStats and copied in a Utilization: payload words and packets per
// outgoing link, plus the receive-queue occupancy high-water mark per tile.
type linkBlock struct {
	words   [blockTiles * int(NumLinkDirs)]int64
	packets [blockTiles * int(NumLinkDirs)]int64
	qhwm    [blockTiles]int64
}

// LinkStats accumulates per-directed-link utilization of a test area's
// iMesh: payload words and packets forwarded over each outgoing link of
// each tile, plus per-tile receive-queue occupancy high-water marks.
//
// Unlike the per-PE stats.Recorder, links are shared by construction —
// every route crosses other tiles' links — so one structure serves the
// whole chip. Its counters are plain integers: one goroutine at a time may
// record, which under core.Run is the PE holding the run's baton. Storage
// is block-lazy: a fixed-size counter block is installed the first time any
// tile in its span records, so large mostly-idle meshes stay sparse.
// Snapshot after the run for a copy. Clear empties a LinkStats, keeping its
// blocks, and Reset points it at another area.
type LinkStats struct {
	geo    Geometry
	tiles  int
	blocks []*linkBlock
}

// NewLinkStats builds an empty accounting structure for geo. No counter
// blocks are allocated until traffic is recorded.
func NewLinkStats(geo Geometry) *LinkStats {
	n := geo.Tiles()
	return &LinkStats{
		geo:    geo,
		tiles:  n,
		blocks: make([]*linkBlock, (n+blockTiles-1)/blockTiles),
	}
}

// Clear empties ls: every counter reads zero, as in a new LinkStats. The
// blocks it installed stay installed, zeroed, for the next traffic to reuse;
// Snapshot skips them while they stay zero.
func (ls *LinkStats) Clear() {
	for _, b := range ls.blocks {
		if b != nil {
			*b = linkBlock{}
		}
	}
}

// Reset points ls, which Clear emptied, at an area of geo: it is then what
// NewLinkStats(geo) returns but for the zero blocks it keeps when geo has
// as many blocks' worth of tiles as its last area.
func (ls *LinkStats) Reset(geo Geometry) {
	ls.geo, ls.tiles = geo, geo.Tiles()
	if n := (ls.tiles + blockTiles - 1) / blockTiles; n != len(ls.blocks) {
		ls.blocks = make([]*linkBlock, n)
	}
}

// Bytes reports the memory ls holds: its block directory and its blocks.
func (ls *LinkStats) Bytes() int64 {
	n := int64(cap(ls.blocks)) * int64(unsafe.Sizeof((*linkBlock)(nil)))
	for _, b := range ls.blocks {
		if b != nil {
			n += int64(unsafe.Sizeof(*b))
		}
	}
	return n
}

// block returns tile's counter block, installing it on first touch.
func (ls *LinkStats) block(tile int) *linkBlock {
	p := &ls.blocks[tile/blockTiles]
	if *p == nil {
		*p = new(linkBlock)
	}
	return *p
}

// RecordRoute charges a words-long transfer from virtual CPU src to dst
// onto every directed link of its XY dimension-order route (X leg first,
// then Y — the iMesh routing the latency model assumes). Self-routes and
// out-of-area endpoints record nothing. Nil-safe: accounting defaults off.
func (ls *LinkStats) RecordRoute(src, dst, words int) {
	if ls == nil || words <= 0 || src == dst {
		return
	}
	if src < 0 || src >= ls.tiles || dst < 0 || dst >= ls.tiles {
		return
	}
	w := ls.geo.Width
	ax, ay := src%w, src/w
	bx, by := dst%w, dst/w
	// Walk the XY route tile by tile: stepping east/west moves the tile
	// index by 1, south/north by a full row.
	wn := int64(words)
	t := src
	for ; ax < bx; ax++ {
		ls.charge(t, LinkEast, wn)
		t++
	}
	for ; ax > bx; ax-- {
		ls.charge(t, LinkWest, wn)
		t--
	}
	for ; ay < by; ay++ {
		ls.charge(t, LinkSouth, wn)
		t += w
	}
	for ; ay > by; ay-- {
		ls.charge(t, LinkNorth, wn)
		t -= w
	}
}

// charge adds one packet of wn words to tile's outgoing link d.
func (ls *LinkStats) charge(tile int, d LinkDir, wn int64) {
	b := ls.block(tile)
	i := (tile%blockTiles)*int(NumLinkDirs) + int(d)
	b.words[i] += wn
	b.packets[i]++
}

// RecordQueueDepth raises tile's receive-queue occupancy high-water mark
// to depth if it exceeds the current mark.
func (ls *LinkStats) RecordQueueDepth(tile, depth int) {
	if ls == nil || tile < 0 || tile >= ls.tiles || depth <= 0 {
		return
	}
	m := &ls.block(tile).qhwm[tile%blockTiles]
	*m = max(*m, int64(depth))
}

// Snapshot copies the live counters into a Utilization for rendering and
// comparison. Only touched blocks are materialized, so the snapshot stays
// as sparse as the traffic.
func (ls *LinkStats) Snapshot() *Utilization {
	if ls == nil {
		return nil
	}
	u := &Utilization{
		Chip:   ls.geo.Chip().Name,
		Width:  ls.geo.Width,
		Height: ls.geo.Height,
		blocks: make([]*linkBlock, len(ls.blocks)),
	}
	for bi, lb := range ls.blocks {
		// A block traffic touched is never zero (a route counts a packet, a
		// queue mark is positive), so a zero one is one Clear kept.
		if lb != nil && *lb != (linkBlock{}) {
			cp := *lb
			u.blocks[bi] = &cp
		}
	}
	return u
}

// Utilization is a point-in-time copy of a LinkStats block: per-directed-
// link words/packets and per-tile queue high-water marks over a
// Width x Height test area, stored in the same sparse blocks as the live
// counters. Access goes through Link, Packets, QueueHWM, and the derived
// views; untouched regions read as zero.
type Utilization struct {
	Chip          string
	Width, Height int
	blocks        []*linkBlock
}

// block returns tile's snapshot block, or nil if that span saw no traffic.
func (u *Utilization) block(tile int) *linkBlock {
	if bi := tile / blockTiles; bi < len(u.blocks) {
		return u.blocks[bi]
	}
	return nil
}

// ensure returns tile's snapshot block, allocating it if absent (Add).
func (u *Utilization) ensure(tile int) *linkBlock {
	bi := tile / blockTiles
	for bi >= len(u.blocks) {
		u.blocks = append(u.blocks, nil)
	}
	if u.blocks[bi] == nil {
		u.blocks[bi] = new(linkBlock)
	}
	return u.blocks[bi]
}

// Link reports the payload words forwarded over tile (x,y)'s outgoing
// link in direction d. Out-of-area queries return 0.
func (u *Utilization) Link(x, y int, d LinkDir) int64 {
	if u == nil || x < 0 || x >= u.Width || y < 0 || y >= u.Height {
		return 0
	}
	tile := y*u.Width + x
	b := u.block(tile)
	if b == nil {
		return 0
	}
	return b.words[(tile%blockTiles)*int(NumLinkDirs)+int(d)]
}

// Packets reports the packets forwarded over tile (x,y)'s outgoing link in
// direction d. Out-of-area queries return 0.
func (u *Utilization) Packets(x, y int, d LinkDir) int64 {
	if u == nil || x < 0 || x >= u.Width || y < 0 || y >= u.Height {
		return 0
	}
	tile := y*u.Width + x
	b := u.block(tile)
	if b == nil {
		return 0
	}
	return b.packets[(tile%blockTiles)*int(NumLinkDirs)+int(d)]
}

// QueueHWM reports tile (x,y)'s receive-queue occupancy high-water mark.
// Out-of-area queries return 0.
func (u *Utilization) QueueHWM(x, y int) int64 {
	if u == nil || x < 0 || x >= u.Width || y < 0 || y >= u.Height {
		return 0
	}
	tile := y*u.Width + x
	b := u.block(tile)
	if b == nil {
		return 0
	}
	return b.qhwm[tile%blockTiles]
}

// TileLoad reports the words leaving tile (x,y) over all four links — the
// through-plus-injected traffic the heatmap shades tiles by.
func (u *Utilization) TileLoad(x, y int) int64 {
	var t int64
	for d := LinkDir(0); d < NumLinkDirs; d++ {
		t += u.Link(x, y, d)
	}
	return t
}

// TotalWords reports the payload words summed over every directed link —
// per-hop accounting, so a packet crossing h links counts h times.
func (u *Utilization) TotalWords() int64 {
	if u == nil {
		return 0
	}
	var t int64
	for _, b := range u.blocks {
		if b == nil {
			continue
		}
		for _, w := range b.words {
			t += w
		}
	}
	return t
}

// MaxLink reports the busiest directed link's word count.
func (u *Utilization) MaxLink() int64 {
	if u == nil {
		return 0
	}
	var m int64
	for _, b := range u.blocks {
		if b == nil {
			continue
		}
		for _, w := range b.words {
			if w > m {
				m = w
			}
		}
	}
	return m
}

// MaxQueueHWM reports the largest per-tile queue high-water mark.
func (u *Utilization) MaxQueueHWM() int64 {
	if u == nil {
		return 0
	}
	var m int64
	for _, b := range u.blocks {
		if b == nil {
			continue
		}
		for _, q := range b.qhwm {
			if q > m {
				m = q
			}
		}
	}
	return m
}

// LinkLoad describes one directed link for the hot-links ranking.
type LinkLoad struct {
	From, To Coord
	Dir      LinkDir
	Words    int64
	Packets  int64
}

// HotLinks returns the k busiest directed links by words, descending;
// ties break toward the lexicographically first (y, x, dir). Links that
// carried nothing are omitted.
func (u *Utilization) HotLinks(k int) []LinkLoad {
	if u == nil {
		return nil
	}
	var all []LinkLoad
	for y := 0; y < u.Height; y++ {
		for x := 0; x < u.Width; x++ {
			if u.block(y*u.Width+x) == nil {
				continue
			}
			for d := LinkDir(0); d < NumLinkDirs; d++ {
				w := u.Link(x, y, d)
				if w == 0 {
					continue
				}
				dx, dy := d.delta()
				all = append(all, LinkLoad{
					From: Coord{X: x, Y: y}, To: Coord{X: x + dx, Y: y + dy},
					Dir: d, Words: w,
					Packets: u.Packets(x, y, d),
				})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Words > all[j].Words })
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// Add folds o's counters into u (same-shape areas only; used to merge
// per-chip views when every chip runs the same test area). Blocks o never
// touched stay unallocated in u as well.
func (u *Utilization) Add(o *Utilization) error {
	if u.Width != o.Width || u.Height != o.Height {
		return fmt.Errorf("mesh: cannot fold %dx%d utilization into %dx%d",
			o.Width, o.Height, u.Width, u.Height)
	}
	for bi, ob := range o.blocks {
		if ob == nil {
			continue
		}
		ub := u.ensure(bi * blockTiles)
		for i := range ub.words {
			ub.words[i] += ob.words[i]
			ub.packets[i] += ob.packets[i]
		}
		for i := range ub.qhwm {
			if ob.qhwm[i] > ub.qhwm[i] {
				ub.qhwm[i] = ob.qhwm[i]
			}
		}
	}
	return nil
}
