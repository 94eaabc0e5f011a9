package feature

import (
	"math"
	"testing"

	"slamshare/internal/img"
)

func TestDescriptorDistance(t *testing.T) {
	var a, b Descriptor
	if Distance(a, b) != 0 {
		t.Error("identical descriptors have nonzero distance")
	}
	b[0] = 0xFF
	if Distance(a, b) != 8 {
		t.Errorf("distance = %d", Distance(a, b))
	}
	for i := range b {
		b[i] = ^uint64(0)
	}
	if Distance(a, b) != 256 {
		t.Errorf("max distance = %d", Distance(a, b))
	}
}

// syntheticCorner draws a bright disc on a dark background at (x, y):
// a guaranteed FAST corner at the disc edge and a strong blob.
func syntheticCorner(w, h, x, y int) *img.Gray {
	im := img.New(w, h)
	im.Fill(50)
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			if dx*dx+dy*dy <= 4 {
				im.Set(x+dx, y+dy, 250)
			}
		}
	}
	return im
}

func TestDetectFASTFindsCorner(t *testing.T) {
	im := syntheticCorner(100, 100, 50, 50)
	corners := DetectFAST(im, 30, 3, 0, im.H)
	if len(corners) == 0 {
		t.Fatal("no corners detected")
	}
	found := false
	for _, c := range corners {
		if abs(int(c.x)-50) <= 3 && abs(int(c.y)-50) <= 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("corner not near (50,50): %+v", corners)
	}
}

func TestDetectFASTUniformImage(t *testing.T) {
	im := img.New(64, 64)
	im.Fill(128)
	if c := DetectFAST(im, 20, 3, 0, 64); len(c) != 0 {
		t.Errorf("corners on uniform image: %d", len(c))
	}
}

func TestDetectFASTRespectsRowRange(t *testing.T) {
	im := syntheticCorner(100, 100, 50, 20)
	// The corner at y=20 must not appear when scanning rows 40..100.
	if c := DetectFAST(im, 30, 3, 40, 100); len(c) != 0 {
		t.Errorf("corner leaked from outside strip: %+v", c)
	}
	if c := DetectFAST(im, 30, 3, 0, 40); len(c) == 0 {
		t.Error("corner missed inside strip")
	}
}

func TestDetectFASTEmptyStrip(t *testing.T) {
	im := img.New(50, 50)
	if c := DetectFAST(im, 20, 3, 30, 10); c != nil {
		t.Error("inverted strip should return nil")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestOrientationPointsTowardBrightSide(t *testing.T) {
	im := img.New(64, 64)
	// Bright on the right half of the patch: centroid to the right,
	// angle near 0.
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			if x > 32 {
				im.Set(x, y, 200)
			} else {
				im.Set(x, y, 20)
			}
		}
	}
	a := Orientation(im, 32, 32)
	if math.Abs(a) > 0.3 {
		t.Errorf("angle = %v, want ~0", a)
	}
}

func TestDescribeStableUnderNoise(t *testing.T) {
	im := randomTexture(80, 80, 1)
	d1 := Describe(im, 40, 40, 0)
	// Perturb a few pixels slightly.
	im2 := im.Clone()
	for i := 0; i < len(im2.Pix); i += 17 {
		im2.Pix[i] += 2
	}
	d2 := Describe(im2, 40, 40, 0)
	if dist := Distance(d1, d2); dist > 40 {
		t.Errorf("descriptor unstable under small noise: %d bits flipped", dist)
	}
}

func TestDescribeDistinctTextures(t *testing.T) {
	a := Describe(randomTexture(80, 80, 1), 40, 40, 0)
	b := Describe(randomTexture(80, 80, 2), 40, 40, 0)
	if dist := Distance(a, b); dist < 70 {
		t.Errorf("different textures too close: %d", dist)
	}
}

func randomTexture(w, h int, seed uint64) *img.Gray {
	im := img.New(w, h)
	s := seed
	for i := range im.Pix {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		im.Pix[i] = byte(z ^ (z >> 31))
	}
	return im
}

func TestDistributeQuadtree(t *testing.T) {
	var corners []rawCorner
	for y := 10; y < 100; y += 10 {
		for x := 10; x < 100; x += 10 {
			corners = append(corners, rawCorner{x: int32(x), y: int32(y), score: int32(x + y)})
		}
	}
	sel := DistributeQuadtree(corners, 100, 100, 20)
	if len(sel) > len(corners) {
		t.Fatal("selected more than available")
	}
	if len(sel) < 15 || len(sel) > 25 {
		t.Errorf("selected %d, want ~20", len(sel))
	}
	// All inputs returned when fewer than quota.
	few := corners[:5]
	if got := DistributeQuadtree(few, 100, 100, 20); len(got) != 5 {
		t.Errorf("small set: got %d", len(got))
	}
	if DistributeQuadtree(nil, 100, 100, 20) != nil {
		t.Error("nil input should yield nil")
	}
	if DistributeQuadtree(corners, 100, 100, 0) != nil {
		t.Error("zero quota should yield nil")
	}
}

func TestDistributeQuadtreeSpreads(t *testing.T) {
	// 100 corners clustered in one corner plus 1 far away: the far one
	// must survive distribution.
	var corners []rawCorner
	for i := 0; i < 100; i++ {
		corners = append(corners, rawCorner{x: int32(5 + i%10), y: int32(5 + i/10), score: int32(100 + i)})
	}
	corners = append(corners, rawCorner{x: 90, y: 90, score: 1})
	sel := DistributeQuadtree(corners, 100, 100, 10)
	found := false
	for _, c := range sel {
		if c.x == 90 && c.y == 90 {
			found = true
		}
	}
	if !found {
		t.Error("isolated corner was dropped by distribution")
	}
}

func TestExtractorOnSyntheticImage(t *testing.T) {
	im := img.New(320, 240)
	im.Fill(90)
	// Draw a grid of distinctive discs.
	var want int
	for y := 40; y < 200; y += 40 {
		for x := 40; x < 280; x += 40 {
			for dy := -2; dy <= 2; dy++ {
				for dx := -2; dx <= 2; dx++ {
					if dx*dx+dy*dy <= 4 {
						im.Set(x+dx, y+dy, 240)
					}
				}
			}
			want++
		}
	}
	e := NewExtractor(Config{NFeatures: 200, Levels: 3, ScaleFactor: 1.2, Threshold: 30, MinThreshold: 10, StripRows: 40})
	kps := e.Extract(im)
	if len(kps) < want {
		t.Fatalf("extracted %d keypoints, want >= %d", len(kps), want)
	}
	// Every disc must have a keypoint within 3 px at level 0.
	for y := 40; y < 200; y += 40 {
		for x := 40; x < 280; x += 40 {
			ok := false
			for _, k := range kps {
				if math.Abs(k.X-float64(x)) <= 3 && math.Abs(k.Y-float64(y)) <= 3 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("disc at (%d,%d) missed", x, y)
			}
		}
	}
}

func TestExtractParallelMatchesSerial(t *testing.T) {
	im := randomTexture(300, 200, 9)
	cfg := Config{NFeatures: 300, Levels: 3, ScaleFactor: 1.2, Threshold: 25, MinThreshold: 10, StripRows: 31}
	serial := (&Extractor{Cfg: cfg, Par: SerialRunner{}}).Extract(im)
	for name, par := range map[string]Parallelizer{
		"goroutine-per-item": goRunner{},
		"reversed":           reverseRunner{},
	} {
		ex := &Extractor{Cfg: cfg, Par: par}
		// Two rounds so the second runs on warm pooled scratch — reuse
		// must not leak state between frames.
		for round := 0; round < 2; round++ {
			kps := ex.Extract(im)
			if len(serial) != len(kps) {
				t.Fatalf("%s round %d: serial %d vs parallel %d keypoints", name, round, len(serial), len(kps))
			}
			for i := range serial {
				if serial[i] != kps[i] {
					t.Fatalf("%s round %d: keypoint %d differs between serial and parallel:\n%+v\n%+v",
						name, round, i, serial[i], kps[i])
				}
			}
		}
	}
}

// reverseRunner executes items in reverse order on the calling
// goroutine — the worst-case legal schedule for order dependence.
type reverseRunner struct{}

func (reverseRunner) Run(n int, f func(i int)) {
	for i := n - 1; i >= 0; i-- {
		f(i)
	}
}

// goRunner runs work items on goroutines — the determinism check for
// the Parallelizer contract.
type goRunner struct{}

func (goRunner) Run(n int, f func(i int)) {
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int) { f(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

func TestMatchBrute(t *testing.T) {
	mk := func(seed uint64) Keypoint {
		var d Descriptor
		s := seed
		for i := range d {
			s = s*6364136223846793005 + 1442695040888963407
			d[i] = s
		}
		return Keypoint{Desc: d}
	}
	a := []Keypoint{mk(1), mk(2), mk(3)}
	b := []Keypoint{mk(3), mk(1), mk(2)}
	ms := MatchBrute(a, b, 30, 0.9)
	if len(ms) != 3 {
		t.Fatalf("got %d matches", len(ms))
	}
	wantB := map[int]int{0: 1, 1: 2, 2: 0}
	for _, m := range ms {
		if wantB[m.A] != m.B || m.Dist != 0 {
			t.Errorf("bad match %+v", m)
		}
	}
}

func TestMatchBruteRejectsAmbiguous(t *testing.T) {
	var d Descriptor
	a := []Keypoint{{Desc: d}}
	b := []Keypoint{{Desc: d}, {Desc: d}} // two identical candidates
	if ms := MatchBrute(a, b, 30, 0.8); len(ms) != 0 {
		t.Errorf("ambiguous match accepted: %+v", ms)
	}
}

func TestStereoMatch(t *testing.T) {
	mk := func(x, y float64, seed uint64) Keypoint {
		var d Descriptor
		s := seed
		for i := range d {
			s = s*6364136223846793005 + 1442695040888963407
			d[i] = s
		}
		return Keypoint{X: x, Y: y, Desc: d, Right: -1}
	}
	const fx, baseline = 500.0, 0.5
	// Left keypoints with disparities 10 and 25 → depths 25 m and 10 m.
	left := []Keypoint{mk(300, 100, 1), mk(400, 150, 2)}
	right := []Keypoint{mk(290, 100, 1), mk(375, 150.4, 2), mk(100, 100, 3)}
	n := StereoMatch(left, right, fx, baseline, 2)
	if n != 2 {
		t.Fatalf("stereo matches = %d", n)
	}
	if math.Abs(left[0].Depth-25) > 1e-9 {
		t.Errorf("depth[0] = %v", left[0].Depth)
	}
	if math.Abs(left[1].Depth-10) > 0.2 {
		t.Errorf("depth[1] = %v", left[1].Depth)
	}
}

func TestStereoMatchRejectsNegativeDisparity(t *testing.T) {
	var d Descriptor
	left := []Keypoint{{X: 100, Y: 50, Desc: d, Right: -1}}
	right := []Keypoint{{X: 200, Y: 50, Desc: d}} // would be behind camera
	if n := StereoMatch(left, right, 500, 0.5, 2); n != 0 {
		t.Errorf("negative disparity matched: %d", n)
	}
	if n := StereoMatch(left, right, 500, 0, 2); n != 0 {
		t.Error("mono rig produced stereo matches")
	}
}

func TestDescribeRotationSteering(t *testing.T) {
	// The steered descriptor of a patch described at angle a must be
	// closer to the same patch's descriptor at angle a than to the
	// descriptor at a very different angle (rotation awareness).
	im := randomTexture(80, 80, 3)
	d0 := Describe(im, 40, 40, 0)
	dSame := Describe(im, 40, 40, 0.02)
	dFar := Describe(im, 40, 40, 1.5)
	if Distance(d0, dSame) >= Distance(d0, dFar) {
		t.Errorf("steering not monotone: near %d vs far %d",
			Distance(d0, dSame), Distance(d0, dFar))
	}
}

func TestOrientationStableUnderBrightnessShift(t *testing.T) {
	im := randomTexture(80, 80, 4)
	a1 := Orientation(im, 40, 40)
	shifted := im.Clone()
	for i, v := range shifted.Pix {
		if v < 205 {
			shifted.Pix[i] = v + 50
		} else {
			shifted.Pix[i] = 255
		}
	}
	a2 := Orientation(shifted, 40, 40)
	if math.Abs(a1-a2) > 0.5 {
		t.Errorf("orientation moved %v under brightness shift", math.Abs(a1-a2))
	}
}

func TestSerialRunnerOrder(t *testing.T) {
	var order []int
	SerialRunner{}.Run(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}
