package cbir

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"tshmem/internal/arch"
	"tshmem/internal/core"
)

func smallParams() Params {
	return Params{Size: 32, Colors: 16, Dists: []int{1, 3}}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{Size: 4, Colors: 16, Dists: []int{1}},
		{Size: 32, Colors: 1, Dists: []int{1}},
		{Size: 32, Colors: 300, Dists: []int{1}},
		{Size: 32, Colors: 16, Dists: nil},
		{Size: 32, Colors: 16, Dists: []int{0}},
		{Size: 32, Colors: 16, Dists: []int{16}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	p := DefaultParams()
	if p.FeatureLen() != 64*4 {
		t.Errorf("FeatureLen = %d", p.FeatureLen())
	}
	if p.OpsPerImage() < 128*128*4*8 {
		t.Errorf("OpsPerImage = %d suspiciously low", p.OpsPerImage())
	}
}

func TestSynthImage(t *testing.T) {
	p := smallParams()
	a := SynthImage(7, p)
	b := SynthImage(7, p)
	if len(a) != p.Size*p.Size {
		t.Fatalf("image size %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SynthImage not deterministic")
		}
		if int(a[i]) >= p.Colors {
			t.Fatalf("pixel %d has color %d >= %d", i, a[i], p.Colors)
		}
	}
	// Different ids differ.
	c := SynthImage(8, p)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("distinct ids produced identical images")
	}
}

func TestCorrelogramProperties(t *testing.T) {
	p := smallParams()
	img := SynthImage(3, p)
	feat, err := Correlogram(img, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(feat) != p.FeatureLen() {
		t.Fatalf("feature length %d", len(feat))
	}
	for i, v := range feat {
		if v < 0 || v > 1 {
			t.Errorf("feature[%d] = %v outside [0,1]", i, v)
		}
	}
	// A constant image autocorrelates perfectly at its own color.
	mono := make([]uint8, p.Size*p.Size)
	for i := range mono {
		mono[i] = 5
	}
	feat, err = Correlogram(mono, p)
	if err != nil {
		t.Fatal(err)
	}
	nd := len(p.Dists)
	for di := 0; di < nd; di++ {
		if feat[5*nd+di] != 1 {
			t.Errorf("constant image: corr(c=5,d=%d) = %v, want 1", p.Dists[di], feat[5*nd+di])
		}
	}
	for c := 0; c < p.Colors; c++ {
		if c == 5 {
			continue
		}
		for di := 0; di < nd; di++ {
			if feat[c*nd+di] != 0 {
				t.Errorf("constant image: corr(c=%d) = %v, want 0", c, feat[c*nd+di])
			}
		}
	}
	// Validation.
	if _, err := Correlogram(mono[:10], p); err == nil {
		t.Error("short image accepted")
	}
	mono[0] = 200
	if _, err := Correlogram(mono, p); err == nil {
		t.Error("out-of-palette color accepted")
	}
}

func TestCorrelogramIsIdentityInvariant(t *testing.T) {
	// Property: the feature of an image equals the feature of the same
	// image (stability), and self-distance is zero.
	p := smallParams()
	f := func(idRaw uint8) bool {
		img := SynthImage(int(idRaw), p)
		f1, err1 := Correlogram(img, p)
		f2, err2 := Correlogram(img, p)
		if err1 != nil || err2 != nil {
			return false
		}
		return L1(f1, f2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestL1(t *testing.T) {
	a := []float32{0, 1, 0.5}
	b := []float32{1, 0, 0.5}
	if got := L1(a, b); got != 2 {
		t.Errorf("L1 = %v, want 2", got)
	}
	if L1(a, a) != 0 {
		t.Error("self distance nonzero")
	}
}

func TestRank(t *testing.T) {
	const num, fl = 10, 4
	db := make([]float32, num*fl)
	for id := 0; id < num; id++ {
		for j := 0; j < fl; j++ {
			db[id*fl+j] = float32(id)
		}
	}
	query := []float32{3, 3, 3, 3}
	top := Rank(db, query, num, 3)
	if len(top) != 3 {
		t.Fatalf("got %d matches", len(top))
	}
	if top[0].ID != 3 || top[0].Distance != 0 {
		t.Errorf("best match %+v, want id 3 at distance 0", top[0])
	}
	// Next two are ids 2 and 4 (distance 4 each).
	if top[1].Distance != 4 || top[2].Distance != 4 {
		t.Errorf("runner-up distances: %+v", top[1:])
	}
	// Ordered by distance.
	for i := 1; i < len(top); i++ {
		if top[i].Distance < top[i-1].Distance {
			t.Error("matches out of order")
		}
	}
}

// TestRetrievalFindsFamily: the nearest neighbors of a query are its
// synthetic family members, i.e. retrieval semantics actually work.
func TestRetrievalFindsFamily(t *testing.T) {
	p := smallParams()
	const num = 64 // 16 families of 4
	fl := p.FeatureLen()
	db := make([]float32, num*fl)
	for id := 0; id < num; id++ {
		f, err := Correlogram(SynthImage(id, p), p)
		if err != nil {
			t.Fatal(err)
		}
		copy(db[id*fl:], f)
	}
	const queryID = 21 // family 5: ids 20..23
	query := db[queryID*fl : (queryID+1)*fl]
	top := Rank(db, query, num, 4)
	if top[0].ID != queryID {
		t.Errorf("best match %d, want the query itself", top[0].ID)
	}
	sameFamily := 0
	for _, m := range top {
		if m.ID/4 == queryID/4 {
			sameFamily++
		}
	}
	if sameFamily < 2 {
		t.Errorf("only %d of top-4 from the query's family: %+v", sameFamily, top)
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	p := smallParams()
	const num, queryID, topK = 40, 13, 5

	// Serial reference.
	fl := p.FeatureLen()
	db := make([]float32, num*fl)
	for id := 0; id < num; id++ {
		f, err := Correlogram(SynthImage(id, p), p)
		if err != nil {
			t.Fatal(err)
		}
		copy(db[id*fl:], f)
	}
	qf, err := Correlogram(SynthImage(queryID, p), p)
	if err != nil {
		t.Fatal(err)
	}
	want := Rank(db, qf, num, topK)

	for _, pes := range []int{1, 3, 8} {
		var got []Match
		cfg := core.Config{Chip: arch.Gx8036(), NPEs: pes, HeapPerPE: 1 << 20}
		if _, err := core.Run(cfg, func(pe *core.PE) error {
			res, err := Distributed(pe, num, queryID, topK, p)
			if err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				got = res.Top
			}
			return nil
		}); err != nil {
			t.Fatalf("pes=%d: %v", pes, err)
		}
		if len(got) != topK {
			t.Fatalf("pes=%d: %d matches", pes, len(got))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Errorf("pes=%d: rank %d = image %d, want %d", pes, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestDistributedSpeedupShape reproduces Figure 14's structure at reduced
// scale: near-linear speedup (integer workload, tiny serial tail), the
// TILE-Gx faster in absolute terms, and the TILEPro with equal or better
// relative speedup.
func TestDistributedSpeedupShape(t *testing.T) {
	p := smallParams()
	const num = 128
	run := func(chip *arch.Chip, pes int) float64 {
		var sec float64
		cfg := core.Config{Chip: chip, NPEs: pes, HeapPerPE: 1 << 20}
		if _, err := core.Run(cfg, func(pe *core.PE) error {
			res, err := Distributed(pe, num, 0, 3, p)
			if err != nil {
				return err
			}
			if pe.MyPE() == 0 {
				sec = res.Elapsed.Seconds()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return sec
	}
	gx1, gx16 := run(arch.Gx8036(), 1), run(arch.Gx8036(), 16)
	pro1, pro16 := run(arch.Pro64(), 1), run(arch.Pro64(), 16)
	gxSp, proSp := gx1/gx16, pro1/pro16
	if gxSp < 8 {
		t.Errorf("Gx speedup at 16 tiles = %.1f, want near-linear", gxSp)
	}
	if proSp < gxSp*0.95 {
		t.Errorf("Pro speedup (%.1f) should match or beat Gx (%.1f), as in Figure 14", proSp, gxSp)
	}
	if gx16 >= pro16 {
		t.Errorf("Gx (%.4fs) should be absolutely faster than Pro (%.4fs)", gx16, pro16)
	}
}

func TestDistributedValidation(t *testing.T) {
	cfg := core.Config{Chip: arch.Gx8036(), NPEs: 4, HeapPerPE: 1 << 20}
	if _, err := core.Run(cfg, func(pe *core.PE) error {
		if _, err := Distributed(pe, 2, 0, 1, smallParams()); err == nil {
			t.Error("fewer images than PEs accepted")
		}
		if _, err := Distributed(pe, 8, 99, 1, smallParams()); err == nil {
			t.Error("bad query id accepted")
		}
		bad := smallParams()
		bad.Dists = nil
		if _, err := Distributed(pe, 8, 0, 1, bad); err == nil {
			t.Error("bad params accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// refCorrelogram is the pixel-major loop Correlogram replaced, kept as its
// oracle: for each pixel in raster order, for each distance, visit the
// eight ring points and count the in-image ones and the matching ones.
func refCorrelogram(img []uint8, p Params) ([]float32, error) {
	n := p.Size
	if len(img) != n*n {
		return nil, fmt.Errorf("cbir: image has %d pixels, want %d", len(img), n*n)
	}
	nd := len(p.Dists)
	match := make([]uint32, p.Colors*nd)
	total := make([]uint32, p.Colors*nd)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			c := int(img[y*n+x])
			if c >= p.Colors {
				return nil, fmt.Errorf("cbir: pixel color %d exceeds %d levels", c, p.Colors)
			}
			for di, d := range p.Dists {
				idx := c*nd + di
				for _, off := range [8][2]int{
					{d, 0}, {-d, 0}, {0, d}, {0, -d},
					{d, d}, {d, -d}, {-d, d}, {-d, -d},
				} {
					nx, ny := x+off[0], y+off[1]
					if nx < 0 || nx >= n || ny < 0 || ny >= n {
						continue
					}
					total[idx]++
					if int(img[ny*n+nx]) == c {
						match[idx]++
					}
				}
			}
		}
	}
	feat := make([]float32, p.FeatureLen())
	for i := range feat {
		if total[i] > 0 {
			feat[i] = float32(match[i]) / float32(total[i])
		}
	}
	return feat, nil
}

// checkCorrelogram runs Correlogram and refCorrelogram on img and fails
// unless both return the same error text, or bit-identical features.
func checkCorrelogram(t *testing.T, img []uint8, p Params) {
	t.Helper()
	got, gerr := Correlogram(img, p)
	want, werr := refCorrelogram(img, p)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%+v: error %v, oracle %v", p, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%+v: %d features, oracle %d", p, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%+v: feature[%d] = %v, oracle %v", p, i, got[i], want[i])
		}
	}
}

// FuzzCorrelogram holds Correlogram to refCorrelogram on images of 8 to 40
// pixels a side in 2 to 256 colours, with distances Validate accepts and
// ones it refuses (zero, negative, past Size/2, at or past Size), which
// Correlogram must still count as the old loop did. A nonzero badRaw
// plants out-of-palette pixels, the first of which the error must name.
func FuzzCorrelogram(f *testing.F) {
	f.Add(uint64(1), byte(24), byte(62), []byte{1, 3, 5, 7}, uint16(0))
	f.Add(uint64(2), byte(0), byte(0), []byte{1, 2}, uint16(0))
	f.Add(uint64(3), byte(32), byte(254), []byte{0, 0xff, 40, 19}, uint16(0))
	f.Add(uint64(4), byte(8), byte(14), []byte{3}, uint16(77))
	f.Add(uint64(5), byte(17), byte(6), []byte{}, uint16(9))
	f.Add(uint64(6), byte(24), byte(14), []byte{1}, uint16(240)) // a pixel of colour Colors first
	f.Fuzz(func(t *testing.T, seed uint64, sizeRaw, colorsRaw byte, distsRaw []byte, badRaw uint16) {
		p := Params{Size: 8 + int(sizeRaw)%33, Colors: 2 + int(colorsRaw)%255}
		for _, b := range distsRaw[:min(len(distsRaw), 5)] {
			p.Dists = append(p.Dists, int(int8(b))%(p.Size+3))
		}
		// Runs of one colour broken by random pixels, so that every
		// distance sees matches and mismatches.
		r := rand.New(rand.NewPCG(seed, 31))
		img := make([]uint8, p.Size*p.Size)
		c := uint8(0)
		for i := range img {
			if r.IntN(4) == 0 {
				c = uint8(r.IntN(p.Colors))
			}
			img[i] = c
		}
		if badRaw != 0 && p.Colors < 256 {
			for k := 0; k < 2; k++ {
				img[(int(badRaw)*(k+1))%len(img)] = uint8(p.Colors + (int(badRaw)>>k)%(256-p.Colors))
			}
		}
		checkCorrelogram(t, img, p)
	})
}

// TestCorrelogramMatchesOracle compares whole feature vectors on the
// synthetic corpus at the paper's parameters and at the tests' small ones.
func TestCorrelogramMatchesOracle(t *testing.T) {
	for _, p := range []Params{DefaultParams(), smallParams(), {Size: 40, Colors: 256, Dists: []int{1, 19}}} {
		for id := 0; id < 8; id++ {
			checkCorrelogram(t, SynthImage(id, p), p)
		}
	}
}

// TestCorrelogramAllocs: Correlogram allocates no more than the loop it
// replaced.
func TestCorrelogramAllocs(t *testing.T) {
	p := DefaultParams()
	img := SynthImage(5, p)
	count := func(fn func([]uint8, Params) ([]float32, error)) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := fn(img, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got, ref := count(Correlogram), count(refCorrelogram); got > ref {
		t.Errorf("Correlogram: %v allocs per image, the old loop %v", got, ref)
	}
}

// BenchmarkCorrelogram times one feature extraction at the paper's
// parameters (128x128 pixels, 64 colours, distances {1,3,5,7}).
//
//	go test ./internal/cbir -run '^$' -bench Correlogram -benchmem
func BenchmarkCorrelogram(b *testing.B) {
	p := DefaultParams()
	img := SynthImage(5, p)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Correlogram(img, p); err != nil {
			b.Fatal(err)
		}
	}
}
