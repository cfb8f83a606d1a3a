package mesh

import (
	"fmt"
	"strings"
)

// shadeRunes grade a tile's outgoing traffic relative to the busiest tile:
// idle, <25%, <50%, <75%, >=75%.
var shadeRunes = []byte{' ', '.', ':', '+', '#'}

// shade maps a tile's load v against the busiest tile's load max onto the
// documented legend buckets. The thresholds are compared exactly
// (4v >= 3*max is the ">=75%" bucket), so the busiest tile always renders
// '#' — the old integer bucketing 1+4v/(max+1) could never reach the top
// bucket for max < 3, shading the hottest tile '+'.
func shade(v, max int64) byte {
	switch {
	case v <= 0 || max <= 0:
		return shadeRunes[0]
	case 4*v >= 3*max:
		return shadeRunes[4] // >=75%
	case 2*v >= max:
		return shadeRunes[3] // >=50%
	case 4*v >= max:
		return shadeRunes[2] // >=25%
	default:
		return shadeRunes[1]
	}
}

// digits reports the decimal width of v (minimum 1).
func digits(v int64) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// ASCII renders the utilization as a text heatmap: the tile grid with the
// words forwarded over every directed link (east > and west < between
// horizontal neighbors, south v and north ^ between vertical neighbors),
// each tile shaded by its outgoing traffic, followed by the queue
// high-water marks and a ranked hottest-links list. This is what
// tshmem-bench -heatmap prints; docs/OBSERVABILITY.md holds the legend.
func (u *Utilization) ASCII() string {
	if u == nil || u.Width == 0 || u.Height == 0 {
		return "(no mesh utilization recorded)\n"
	}
	maxLink, maxTile := u.MaxLink(), u.maxTile()
	n := digits(maxLink) // digits of the busiest link
	// Size the tile cell from the largest tile ID (as the link columns are
	// sized from the busiest link) so >=1000-tile grids stay aligned; the
	// floor of 3 digits preserves the classic small-grid layout.
	tw := digits(int64(u.Width*u.Height - 1))
	if tw < 3 {
		tw = 3
	}
	cw := 2*n + 3 // "v<words> ^<words>" vertical cell
	if cw < tw+4 {
		cw = tw + 4 // "[nnn s]" tile cell
	}
	gw := n + 3 // ">{words} " horizontal gap

	var b strings.Builder
	fmt.Fprintf(&b, "iMesh link utilization: %s, %dx%d area (payload words per directed link)\n",
		u.Chip, u.Width, u.Height)
	fmt.Fprintf(&b, "busiest link %d words; tile shade by outgoing words: .<25%% :<50%% +<75%% #>=75%%\n\n",
		maxLink)
	emit := func(cells, gaps []string) {
		var line strings.Builder
		for x := range cells {
			fmt.Fprintf(&line, "%-*s", cw, cells[x])
			if x < len(gaps) {
				fmt.Fprintf(&line, "%-*s", gw, gaps[x])
			}
		}
		b.WriteString(strings.TrimRight(line.String(), " "))
		b.WriteByte('\n')
	}
	for y := 0; y < u.Height; y++ {
		tiles := make([]string, u.Width)
		east := make([]string, u.Width-1)
		west := make([]string, u.Width-1)
		for x := 0; x < u.Width; x++ {
			tiles[x] = fmt.Sprintf("[%*d %c]", tw, y*u.Width+x, shade(u.TileLoad(x, y), maxTile))
			if x < u.Width-1 {
				east[x] = fmt.Sprintf(">%d", u.Link(x, y, LinkEast))
				west[x] = fmt.Sprintf("<%d", u.Link(x+1, y, LinkWest))
			}
		}
		emit(tiles, east)
		if u.Width > 1 {
			emit(make([]string, u.Width), west)
		}
		if y < u.Height-1 {
			vert := make([]string, u.Width)
			for x := 0; x < u.Width; x++ {
				vert[x] = fmt.Sprintf("v%d ^%d", u.Link(x, y, LinkSouth), u.Link(x, y+1, LinkNorth))
			}
			emit(vert, make([]string, u.Width-1))
		}
	}
	if m := u.MaxQueueHWM(); m > 0 {
		qw := digits(m)
		if qw < 3 {
			qw = 3
		}
		b.WriteString("\nreceive-queue occupancy high-water mark per tile:\n")
		for y := 0; y < u.Height; y++ {
			b.WriteString(" ")
			for x := 0; x < u.Width; x++ {
				fmt.Fprintf(&b, " %*d", qw, u.QueueHWM(x, y))
			}
			b.WriteByte('\n')
		}
	}
	if hot := u.HotLinks(8); len(hot) > 0 {
		b.WriteString("\nhottest links:\n")
		for _, l := range hot {
			bar := int(20 * l.Words / maxLink)
			fmt.Fprintf(&b, "  %v->%v %-5s %*d words %4d pkts  %s\n",
				l.From, l.To, l.Dir, n, l.Words, l.Packets, strings.Repeat("#", bar))
		}
	}
	return b.String()
}

// SVG renders the utilization as a standalone SVG document: tiles as
// squares shaded by outgoing traffic, directed links as arrows whose
// stroke width scales with the words carried (each direction drawn offset
// from the link axis). Every element carries a <title> tooltip with the
// exact counts.
func (u *Utilization) SVG() string {
	if u == nil || u.Width == 0 || u.Height == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40"><text x="8" y="24">no mesh utilization recorded</text></svg>`
	}
	const (
		cell = 90 // grid pitch
		tile = 44 // tile square side
		off  = 7  // per-direction offset from the link axis
	)
	maxLink, maxTile := u.MaxLink(), u.maxTile()
	center := func(x, y int) (float64, float64) {
		return float64(50 + x*cell), float64(50 + y*cell)
	}
	w := 100 + (u.Width-1)*cell
	h := 130 + (u.Height-1)*cell

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", w, h)
	fmt.Fprintf(&b, `<text x="8" y="%d">%s %dx%d iMesh: words per directed link (busiest %d)</text>`+"\n",
		h-12, u.Chip, u.Width, u.Height, maxLink)
	// Links first so tiles draw over the line ends.
	for y := 0; y < u.Height; y++ {
		for x := 0; x < u.Width; x++ {
			for d := LinkDir(0); d < NumLinkDirs; d++ {
				words := u.Link(x, y, d)
				if words == 0 {
					continue
				}
				dx, dy := d.delta()
				x1, y1 := center(x, y)
				x2, y2 := center(x+dx, y+dy)
				// Offset each direction sideways so the two opposing
				// links of a channel stay distinguishable.
				ox, oy := float64(dy)*off, float64(dx)*off
				sw := 1 + 6*float64(words)/float64(maxLink)
				fmt.Fprintf(&b, `<line x1="%.0f" y1="%.0f" x2="%.0f" y2="%.0f" stroke="#c0392b" stroke-opacity="0.8" stroke-width="%.1f"><title>(%d,%d)->(%d,%d) %s: %d words</title></line>`+"\n",
					x1+ox, y1+oy, x2+ox, y2+oy, sw, x, y, x+dx, y+dy, d, words)
			}
		}
	}
	for y := 0; y < u.Height; y++ {
		for x := 0; x < u.Width; x++ {
			cx, cy := center(x, y)
			load := u.TileLoad(x, y)
			// Shade from near-white (idle) toward steel blue (busiest).
			frac := 0.0
			if maxTile > 0 {
				frac = float64(load) / float64(maxTile)
			}
			r := int(245 - 175*frac)
			g := int(247 - 117*frac)
			bl := int(250 - 70*frac)
			fmt.Fprintf(&b, `<rect x="%.0f" y="%.0f" width="%d" height="%d" fill="rgb(%d,%d,%d)" stroke="#333"><title>tile %d (%d,%d): %d words out, queue hwm %d</title></rect>`+"\n",
				cx-tile/2, cy-tile/2, tile, tile, r, g, bl,
				y*u.Width+x, x, y, load, u.QueueHWM(x, y))
			fmt.Fprintf(&b, `<text x="%.0f" y="%.0f" text-anchor="middle">%d</text>`+"\n", cx, cy+4, y*u.Width+x)
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// maxTile reports the busiest tile's TileLoad.
func (u *Utilization) maxTile() int64 {
	var m int64
	for y := 0; y < u.Height; y++ {
		for x := 0; x < u.Width; x++ {
			m = max(m, u.TileLoad(x, y))
		}
	}
	return m
}
