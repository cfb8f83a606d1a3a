// Package cbir implements the content-based image retrieval case study of
// the paper's Section V.B: color-feature extraction with the
// autocorrelogram of Huang et al. (CVPR 1997), a synthetic image corpus
// standing in for the paper's 22,000-image database, and query ranking.
//
// The autocorrelogram of an image estimates, for each quantized color c and
// distance d, the probability that a pixel at L-infinity distance d from a
// color-c pixel also has color c. It is an integer-dominated workload,
// which is why both Tilera generations scale almost linearly on it
// (Figure 14).
package cbir

import (
	"fmt"
	"math"
)

// Params configures feature extraction.
type Params struct {
	Size   int   // square image edge, pixels (paper: 128)
	Colors int   // quantized color count (power of two <= 256)
	Dists  []int // correlogram distances (Huang et al. use {1,3,5,7})
}

// DefaultParams returns the paper-scale configuration: 128x128 8-bit
// images, 64 quantized colors, distances {1,3,5,7}.
func DefaultParams() Params {
	return Params{Size: 128, Colors: 64, Dists: []int{1, 3, 5, 7}}
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	if p.Size < 8 {
		return fmt.Errorf("cbir: image size %d too small", p.Size)
	}
	if p.Colors < 2 || p.Colors > 256 {
		return fmt.Errorf("cbir: %d colors out of range", p.Colors)
	}
	if len(p.Dists) == 0 {
		return fmt.Errorf("cbir: no correlogram distances")
	}
	for _, d := range p.Dists {
		if d < 1 || d >= p.Size/2 {
			return fmt.Errorf("cbir: distance %d out of range for %d-pixel images", d, p.Size)
		}
	}
	return nil
}

// FeatureLen reports the feature-vector length: Colors x len(Dists).
func (p Params) FeatureLen() int { return p.Colors * len(p.Dists) }

// OpsPerImage reports the integer-operation count charged for extracting
// one image's feature: each pixel samples 8 ring points per distance, plus
// the normalization pass.
func (p Params) OpsPerImage() int64 {
	pixels := int64(p.Size) * int64(p.Size)
	return pixels*int64(len(p.Dists))*8 + int64(p.FeatureLen())*2
}

// SynthImage generates the id-th image of the synthetic corpus: a
// deterministic composition of colored rectangles, radial gradients, and
// speckle, quantized to p.Colors levels. Images with nearby ids share
// structure (same family), making retrieval meaningful: the nearest
// neighbors of a query are its family members.
func SynthImage(id int, p Params) []uint8 {
	n := p.Size
	img := make([]uint8, n*n)
	family := id / 4 // four variants per family
	variant := id % 4
	rng := splitmix(uint64(family)*0x9E3779B9 + 0x1234)

	// Family-level structure: base gradient direction and palette.
	base := int(rng() % uint64(p.Colors))
	gradX := int(rng()%5) - 2
	gradY := int(rng()%5) - 2
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := base + (gradX*x+gradY*y)/8
			img[y*n+x] = uint8(mod(v, p.Colors))
		}
	}
	// Family rectangles.
	for r := 0; r < 6; r++ {
		color := uint8(rng() % uint64(p.Colors))
		x0 := int(rng() % uint64(n))
		y0 := int(rng() % uint64(n))
		w := int(rng()%uint64(n/4)) + 4
		h := int(rng()%uint64(n/4)) + 4
		for y := y0; y < y0+h && y < n; y++ {
			for x := x0; x < x0+w && x < n; x++ {
				img[y*n+x] = color
			}
		}
	}
	// Variant-level perturbation: a small rectangle and sparse speckle.
	vr := splitmix(uint64(id)*0x517CC1B7 + 7)
	color := uint8(vr() % uint64(p.Colors))
	x0, y0 := int(vr()%uint64(n)), int(vr()%uint64(n))
	for y := y0; y < y0+n/8 && y < n; y++ {
		for x := x0; x < x0+n/8 && x < n; x++ {
			img[y*n+x] = color
		}
	}
	for s := 0; s < n*n/64; s++ {
		pos := vr() % uint64(n*n)
		img[pos] = uint8(vr() % uint64(p.Colors))
		_ = variant
	}
	return img
}

// Correlogram extracts the autocorrelogram feature of img: for each color c
// and distance d, the fraction of ring samples around color-c pixels that
// are also color c. The returned vector has length p.FeatureLen(), indexed
// color-major (feature[c*len(Dists)+di]).
//
// The loop is offset-major. Offsets o and -o join the same pairs of
// pixels, so for each distance it takes four of the eight ring offsets,
// clips the range of pixels whose partner at o lies in the image, and
// walks that range a row at a time beside the partner row: each pair is a
// sample for both of its pixels and, when their colors agree, a match for
// both. The counts are integers, so the feature is bit-identical to the
// pixel-major loop's (refCorrelogram, in the tests), for any distance:
// Correlogram does not call Validate, and a zero or negative distance
// counts as that loop counted it. Its cost is host time only: the CBIR
// kernel charges virtual time through OpsPerImage.
func Correlogram(img []uint8, p Params) ([]float32, error) {
	n := p.Size
	if len(img) != n*n {
		return nil, fmt.Errorf("cbir: image has %d pixels, want %d", len(img), n*n)
	}
	for _, c := range img {
		if int(c) >= p.Colors {
			return nil, fmt.Errorf("cbir: pixel color %d exceeds %d levels", c, p.Colors)
		}
	}
	nd := len(p.Dists)
	feat := make([]float32, p.FeatureLen())
	for di, d := range p.Dists {
		if d >= n || d <= -n {
			continue // no pixel has a ring point in the image
		}
		var match, total [256]uint32
		for _, o := range [4][2]int{{d, 0}, {0, d}, {d, d}, {d, -d}} {
			dx, dy := o[0], o[1]
			x0, x1 := max(0, -dx), min(n, n-dx)
			for y := max(0, -dy); y < min(n, n-dy); y++ {
				row := img[y*n+x0 : y*n+x1]
				ring := img[(y+dy)*n+x0+dx:][:len(row)]
				for i, c := range row {
					r := ring[i]
					same := uint32(0)
					if r == c {
						same = 2
					}
					total[c]++
					total[r]++
					match[c] += same
				}
			}
		}
		for c := range min(p.Colors, len(total)) {
			if total[c] > 0 {
				feat[c*nd+di] = float32(match[c]) / float32(total[c])
			}
		}
	}
	return feat, nil
}

// L1 reports the Manhattan distance between two feature vectors, the
// similarity measure of the case study.
func L1(a, b []float32) float64 {
	var sum float64
	for i := range a {
		sum += math.Abs(float64(a[i] - b[i]))
	}
	return sum
}

// Match is one retrieval result.
type Match struct {
	ID       int
	Distance float64
}

// Rank scans the database features (numImages x FeatureLen, row-major) and
// returns the k nearest images to the query feature, best first.
func Rank(db []float32, query []float32, numImages, k int) []Match {
	fl := len(query)
	best := make([]Match, 0, k+1)
	for id := 0; id < numImages; id++ {
		d := L1(db[id*fl:(id+1)*fl], query)
		if len(best) < k || d < best[len(best)-1].Distance {
			best = append(best, Match{ID: id, Distance: d})
			for i := len(best) - 1; i > 0 && best[i].Distance < best[i-1].Distance; i-- {
				best[i], best[i-1] = best[i-1], best[i]
			}
			if len(best) > k {
				best = best[:k]
			}
		}
	}
	return best
}

func splitmix(seed uint64) func() uint64 {
	return func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}

func mod(v, m int) int {
	v %= m
	if v < 0 {
		v += m
	}
	return v
}
