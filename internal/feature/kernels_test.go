package feature

import (
	"math"
	"math/rand"
	"testing"

	"slamshare/internal/img"
)

// Equivalence of the extraction kernels with the loops they replaced
// (ref_test.go): fuzzers for the per-pixel and per-keypoint kernels,
// table tests where order sensitivity is the risk.

// circlePatch is a 7x7 image with centre value c and the 16 circle
// pixels taken from ring; the other pixels do not matter to FAST.
func circlePatch(c byte, ring [16]byte) []byte {
	p := make([]byte, 49)
	p[3*7+3] = c
	for i, o := range circle16 {
		p[(3+o[1])*7+3+o[0]] = ring[i]
	}
	return p
}

func FuzzFASTScore(f *testing.F) {
	ringOf := func(fn func(i int) byte) (r [16]byte) {
		for i := range r {
			r[i] = fn(i)
		}
		return r
	}
	arc := func(from, n int, in, out byte) [16]byte {
		return ringOf(func(i int) byte {
			if (i-from+16)%16 < n {
				return in
			}
			return out
		})
	}
	for _, t := range []uint8{1, 20, 40, 127, 254, 255} {
		f.Add(circlePatch(100, ringOf(func(int) byte { return 100 })), t) // all equal
		f.Add(circlePatch(0, ringOf(func(int) byte { return 255 })), t)   // saturated, brighter
		f.Add(circlePatch(255, ringOf(func(int) byte { return 0 })), t)   // saturated, darker
		f.Add(circlePatch(100, arc(0, 9, 200, 100)), t)                   // exactly 9
		f.Add(circlePatch(100, arc(0, 8, 200, 100)), t)                   // one short
		f.Add(circlePatch(100, arc(12, 9, 200, 90)), t)                   // wraps 15 -> 0
		f.Add(circlePatch(100, arc(11, 12, 10, 110)), t)                  // darker, wraps
		f.Add(circlePatch(100, arc(3, 15, 180, 100)), t)                  // one gap
		f.Add(circlePatch(100, arc(4, 9, 200, 0)), t)                     // 9 brighter, 7 darker
		f.Add(circlePatch(128, ringOf(func(i int) byte { return byte(100 + 7*i) })), t)
	}
	f.Fuzz(func(t *testing.T, patch []byte, thr uint8) {
		if len(patch) == 0 {
			return
		}
		for len(patch) < 49 { // the mutator shortens slices; tile what is left
			patch = append(patch, patch...)
		}
		var offsets [16]int
		for i, o := range circle16 {
			offsets[i] = o[1]*7 + o[0]
		}
		var tab polarityTable
		tab.fill(int(thr))
		got := fastScore(patch[:49], 3*7+3, int(thr), &offsets, &tab)
		want := fastScoreRef(patch[:49], 7, 3, 3, int(thr), &offsets)
		if got != want {
			t.Fatalf("fastScore = %d, reference %d (t=%d, patch %v)", got, want, thr, patch[:49])
		}
	})
}

// TestFASTScoreAllArcs checks every 16-bit brighter pattern (and its
// darker mirror) against the reference: all run lengths, all rotations,
// the full circle.
func TestFASTScoreAllArcs(t *testing.T) {
	var offsets [16]int
	for i, o := range circle16 {
		offsets[i] = o[1]*7 + o[0]
	}
	const thr = 20
	var tab polarityTable
	tab.fill(thr)
	for m := 0; m < 1<<16; m++ {
		for _, dark := range []bool{false, true} {
			var ring [16]byte
			for i := range ring {
				// Distinct margins, so a wrong arc gives a wrong sum.
				ring[i] = 120
				if m>>uint(i)&1 == 1 {
					ring[i] = byte(150 + 3*i)
					if dark {
						ring[i] = byte(90 - 3*i)
					}
				}
			}
			p := circlePatch(120, ring)
			got := fastScore(p, 3*7+3, thr, &offsets, &tab)
			if want := fastScoreRef(p, 7, 3, 3, thr, &offsets); got != want {
				t.Fatalf("mask %016b dark=%v: fastScore = %d, reference %d", m, dark, got, want)
			}
		}
	}
}

// smoothTexture is noise blurred enough that FAST finds isolated
// corners, flat runs and tied neighbouring scores, like a rendered
// frame and unlike raw noise.
func smoothTexture(w, h int, seed int64) *img.Gray {
	rng := rand.New(rand.NewSource(seed))
	im := img.New(w, h)
	for i := range im.Pix {
		im.Pix[i] = byte(rng.Intn(256))
	}
	for pass := 0; pass < 2; pass++ {
		src := im.Clone()
		for y := 1; y < h-1; y++ {
			for x := 1; x < w-1; x++ {
				s := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						s += int(src.Pix[(y+dy)*w+x+dx])
					}
				}
				im.Pix[y*w+x] = byte(s / 9 &^ 7) // quantized: ties
			}
		}
	}
	return im
}

// TestAppendFASTMatchesRef compares whole strips — pre-test, score,
// strip-local suppression and its tie-break — on images of changing
// width, so the pooled score plane is reused across strides.
func TestAppendFASTMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		w, h := 7+rng.Intn(150), 7+rng.Intn(90)
		var im *img.Gray
		if trial%2 == 0 {
			im = smoothTexture(w, h, int64(trial))
		} else {
			im = randomTexture(w, h, uint64(trial))
		}
		thr := []int{0, 1, 7, 12, 40, 200, 255, 256, 1000}[rng.Intn(9)]
		border := []int{0, 3, 5, Border}[rng.Intn(4)]
		y0 := rng.Intn(h+10) - 5
		y1 := y0 + rng.Intn(50)
		prefix := []rawCorner{{x: -1, y: -1, score: -1}}
		got := AppendFAST(prefix, im, thr, border, y0, y1)
		want := fromRef(appendFASTRef(toRef(prefix[:1]), im, thr, border, y0, y1))
		if len(got) != len(want) {
			t.Fatalf("trial %d (%dx%d t=%d border=%d rows %d..%d): %d corners, reference %d",
				trial, w, h, thr, border, y0, y1, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%dx%d t=%d border=%d rows %d..%d): corner %d = %+v, reference %+v",
					trial, w, h, thr, border, y0, y1, i, got[i], want[i])
			}
		}
	}
}

// FuzzAppendFAST compares whole strips with the reference on any
// image. Widths run from 7 to 200, so the eight-centre scan's row tail
// takes every length, spans shorter than one word included; thresholds
// reach 255 and the out-of-range 256; every border is allowed; row
// ranges overhang the image at both ends.
func FuzzAppendFAST(f *testing.F) {
	thresholds := []uint16{0, 1, 12, 40, 255, 256}
	for i := 0; i < 24; i++ {
		w, h := 7+i, 7+3*i // spans 1..24 at border 3
		if i == 23 {
			w = 200
		}
		pix := smoothTexture(w, h, int64(i)).Pix
		if i%3 == 1 {
			pix = randomTexture(w, h, uint64(i)).Pix
		}
		f.Add(pix, uint8(w-7), uint8(h-7), uint8(i%8), thresholds[i%6], int8(i-8), uint8(h+4))
	}
	f.Add(smoothTexture(60, 40, 9).Pix, uint8(53), uint8(33), uint8(Border), uint16(12), int8(-5), uint8(60))
	f.Fuzz(func(t *testing.T, pix []byte, wb, hb, bb uint8, thr uint16, y0b int8, rows uint8) {
		if len(pix) == 0 {
			return
		}
		w, h := 7+int(wb)%194, 7+int(hb)%58
		for len(pix) < w*h { // the mutator shortens slices; tile what is left
			pix = append(pix, pix...)
		}
		im := &img.Gray{W: w, H: h, Pix: pix[:w*h]}
		th, border := int(thr)%300, int(bb)%32
		y0 := int(y0b) % (h + 8)
		y1 := y0 + int(rows)%(h+16)
		prefix := []rawCorner{{x: -1, y: -1, score: -1}}
		got := AppendFAST(prefix, im, th, border, y0, y1)
		want := fromRef(appendFASTRef(toRef(prefix[:1]), im, th, border, y0, y1))
		if len(got) != len(want) {
			t.Fatalf("%dx%d t=%d border=%d rows %d..%d: %d corners, reference %d", w, h, th, border, y0, y1, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d t=%d border=%d rows %d..%d: corner %d = %+v, reference %+v",
					w, h, th, border, y0, y1, i, got[i], want[i])
			}
		}
	})
}

// TestFASTPreTest8Lanes checks the eight-centre kernel against the
// scalar 3-of-4 classification where lane arithmetic could go wrong:
// circle pixels at c±t and c±t±1, at 0 and at 255, beside lanes that
// hold other extremes, each case in two lane positions.
func TestFASTPreTest8Lanes(t *testing.T) {
	for _, thr := range []int{0, 1, 12, 40, 254, 255} {
		var cases [][5]byte // centre, then circle pixels 0, 4, 8, 12
		for _, c := range []int{0, 1, 12, 40, 127, 128, 214, 215, 254, 255} {
			var edges []byte
			for _, v := range []int{c - thr - 1, c - thr, c + thr, c + thr + 1, 0, 255} {
				if v >= 0 && v <= 255 {
					edges = append(edges, byte(v))
				}
			}
			for _, a := range edges {
				for _, b := range edges {
					for _, d := range edges {
						for _, e := range edges {
							cases = append(cases, [5]byte{byte(c), a, b, d, e})
						}
					}
				}
			}
		}
		want := func(cs [5]byte) bool {
			bright, dark := 0, 0
			for _, p := range cs[1:] {
				if d := int(p) - int(cs[0]); d > thr {
					bright++
				} else if d < -thr {
					dark++
				}
			}
			return bright >= 3 || dark >= 3
		}
		for _, shift := range []int{0, 5} {
			for start := shift; start < len(cases)+shift; start += 8 {
				var words [5]uint64
				for k := 0; k < 8; k++ {
					for m, v := range cases[(start+k)%len(cases)] {
						words[m] |= uint64(v) << uint(8*k)
					}
				}
				got := fastPreTest8(words[0], words[1], words[2], words[3], words[4], uint64(thr+1)*lanes16)
				if got&^0x0101010101010101 != 0 {
					t.Fatalf("t=%d: result %016x has bits outside the centre positions", thr, got)
				}
				for k := 0; k < 8; k++ {
					cs := cases[(start+k)%len(cases)]
					if pass := got>>uint(8*k)&1 == 1; pass != want(cs) {
						t.Fatalf("t=%d lane %d (centre %d, pixels %v): kernel says %v, scalar test %v", thr, k, cs[0], cs[1:], pass, !pass)
					}
				}
			}
		}
	}
}

func TestRoundInt(t *testing.T) {
	vals := []float64{0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
		0.5000000000000001, 19.5, -19.5, 19.499999999999996, 13.999999999999998, 14, -14, 1e-300, -1e-300}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := (rng.Float64()*2 - 1) * 21
		vals = append(vals, v, math.Floor(v)+0.5, math.Nextafter(math.Floor(v)+0.5, 0), math.Nextafter(math.Floor(v)+0.5, 100))
	}
	for _, v := range vals {
		if got, want := roundInt(v), int(math.Round(v)); got != want {
			t.Fatalf("roundInt(%v) = %d, math.Round gives %d", v, got, want)
		}
	}
}

func FuzzDescribe(f *testing.F) {
	seedPix := randomTexture(48, 48, 21).Pix
	for _, a := range []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi, math.Pi / 4, -3 * math.Pi / 4,
		math.Atan2(3, 4), math.Atan2(-1, 1), math.Atan2(0, -1), 1e-17, 3.0} {
		f.Add(seedPix, a, uint8(24), uint8(24)) // interior
		f.Add(seedPix, a, uint8(20), uint8(27)) // on the interior's edge
		f.Add(seedPix, a, uint8(19), uint8(24)) // just outside
		f.Add(seedPix, a, uint8(0), uint8(47))  // image corner
		f.Add(seedPix, a, uint8(200), uint8(3)) // centre outside the image
	}
	f.Fuzz(func(t *testing.T, pix []byte, angle float64, cx, cy uint8) {
		if len(pix) == 0 || math.IsNaN(angle) || math.IsInf(angle, 0) {
			return
		}
		for len(pix) < 48*48 { // the mutator shortens slices; tile what is left
			pix = append(pix, pix...)
		}
		// Fold any finite angle into [-pi, pi], Orientation's range,
		// keeping exact inputs such as pi/2 exact.
		if math.Abs(angle) > math.Pi {
			angle = math.Remainder(angle, 2*math.Pi)
		}
		im := &img.Gray{W: 48, H: 48, Pix: pix[:48*48]}
		x, y := int(cx)-8, int(cy)-8 // [-8, 247]: inside, on the border, outside
		if got, want := Describe(im, x, y, angle), describeRef(im, x, y, angle); got != want {
			t.Fatalf("Describe(%d, %d, %v) = %x, reference %x", x, y, angle, got, want)
		}
		if got, want := Orientation(im, x, y), orientationRef(im, x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Orientation(%d, %d) = %v, reference %v", x, y, got, want)
		}
	})
}

// TestDescribeNonFiniteAngle: the exported Describe must not index out
// of the image whatever the angle; the unchecked interior path is for
// finite rotations only.
func TestDescribeNonFiniteAngle(t *testing.T) {
	im := randomTexture(80, 80, 5)
	for _, a := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		Describe(im, 40, 40, a)
	}
}

// TestOrientDescribeMatchRefOnFrame sweeps real corners: every
// keypoint of a textured image on every pyramid level, at the angle
// Orientation gives it.
func TestOrientDescribeMatchRefOnFrame(t *testing.T) {
	im := smoothTexture(200, 150, 3)
	pyr := img.NewPyramid(im, 3, 1.2)
	n := 0
	for _, lv := range pyr.Levels {
		for _, c := range DetectFAST(lv, 10, Border, 0, lv.H) {
			x, y := int(c.x), int(c.y)
			a := Orientation(lv, x, y)
			if want := orientationRef(lv, x, y); math.Float64bits(a) != math.Float64bits(want) {
				t.Fatalf("Orientation(%d, %d) = %v, reference %v", x, y, a, want)
			}
			if got, want := Describe(lv, x, y, a), describeRef(lv, x, y, a); got != want {
				t.Fatalf("Describe(%d, %d, %v) = %x, reference %x", x, y, a, got, want)
			}
			n++
		}
	}
	if n < 100 {
		t.Fatalf("only %d corners swept", n)
	}
}

// TestDistributeQuadtreeMatchesRef: tied scores make the best-per-node
// pick depend on the order of corners inside a node, and tied node
// sizes make the split order depend on the order of the node list —
// the two things an in-place partition could disturb.
func TestDistributeQuadtreeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q quadScratch // reused across cases, as Extract reuses it across levels
	for trial := 0; trial < 200; trial++ {
		w, h := 20+rng.Intn(300), 20+rng.Intn(200)
		used := make(map[[2]int]bool)
		var corners []rawCorner
		count := 1 + rng.Intn(600)
		if trial%5 == 0 {
			count = 1 + rng.Intn(8)
		}
		clustered := trial%3 == 0
		for tries := 0; len(corners) < count && tries < 4*count; tries++ {
			x, y := rng.Intn(w), rng.Intn(h)
			if clustered {
				x, y = x/4, y/4
			}
			if used[[2]int{x, y}] {
				continue
			}
			used[[2]int{x, y}] = true
			corners = append(corners, rawCorner{x: int32(x), y: int32(y), score: int32(1 + rng.Intn(3))}) // ties everywhere
		}
		n := []int{0, 1, 2, 5, 37, 100, 400, 1000}[rng.Intn(8)]
		want := fromRef(distributeQuadtreeRef(toRef(corners), w, h, n))
		input := append([]rawCorner(nil), corners...)
		got := DistributeQuadtree(corners, w, h, n)
		for i := range input {
			if corners[i] != input[i] {
				t.Fatalf("trial %d: DistributeQuadtree reordered its input", trial)
			}
		}
		inPlace := q.distribute([]rawCorner{{x: -7}}, append([]rawCorner(nil), corners...), w, h, n)[1:]
		for name, g := range map[string][]rawCorner{"DistributeQuadtree": got, "distribute": inPlace} {
			if len(g) != len(want) {
				t.Fatalf("trial %d (%d corners, n=%d): %s selected %d, reference %d", trial, len(corners), n, name, len(g), len(want))
			}
			for i := range want {
				if g[i] != want[i] {
					t.Fatalf("trial %d (%d corners, n=%d): %s corner %d = %+v, reference %+v", trial, len(corners), n, name, i, g[i], want[i])
				}
			}
		}
	}
}

// TestStereoMatchMatchesRef: descriptors drawn from a handful of
// values tie Hamming distances, so which candidate is "best" and
// whether the ratio test sees a second depend on visiting a row's
// candidates in index order, rows in dr order.
func TestStereoMatchMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	descs := make([]Descriptor, 6)
	for i := range descs {
		for w := range descs[i] {
			descs[i][w] = rng.Uint64()
		}
	}
	near := func(d Descriptor) Descriptor { // a few bits off: inside the strict threshold
		for k := rng.Intn(4); k > 0; k-- {
			d[rng.Intn(4)] ^= 1 << uint(rng.Intn(64))
		}
		return d
	}
	mk := func(n int, rows float64) []Keypoint {
		kps := make([]Keypoint, n)
		for i := range kps {
			kps[i] = Keypoint{
				X: rng.Float64() * 300, Y: rng.Float64()*rows - 2, // a few rows above the image too
				Desc: near(descs[rng.Intn(len(descs))]), Right: -1,
			}
			if rng.Intn(4) == 0 {
				kps[i].Y = math.Floor(kps[i].Y) + 0.5 // the rounding edge of the row bucket
			}
		}
		return kps
	}
	for trial := 0; trial < 100; trial++ {
		rows := []float64{3, 10, 40, 200}[rng.Intn(4)]
		left, right := mk(rng.Intn(120), rows), mk(1+rng.Intn(120), rows)
		if trial == 0 {
			right[0].Y = 1e9 // far outside any image: never a candidate either way
		}
		tol := []float64{0, 1, 2, 3.6}[rng.Intn(4)]
		var par Parallelizer
		if trial%2 == 1 {
			par = reverseRunner{}
		}
		wantL := append([]Keypoint(nil), left...)
		wantN := stereoMatchParRef(wantL, right, 400, 0.11, tol, nil)
		gotN := StereoMatchPar(left, right, 400, 0.11, tol, par)
		if gotN != wantN {
			t.Fatalf("trial %d: %d matches, reference %d", trial, gotN, wantN)
		}
		for i := range left {
			if left[i] != wantL[i] {
				t.Fatalf("trial %d: left[%d] = %+v, reference %+v", trial, i, left[i], wantL[i])
			}
		}
	}
}
