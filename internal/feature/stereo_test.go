package feature

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/img"
	"slamshare/internal/video"
)

// stereoTally is what one stereo method did over a run of frames:
// depths found, and the relative depth error of every keypoint with a
// depth that sits within 2 px of a ground-truth projection.
type stereoTally struct {
	depths int
	errs   []float64
}

func (s *stereoTally) add(kps []Keypoint, truthOf func(k *Keypoint) float64) {
	for i := range kps {
		if kps[i].Right < 0 {
			continue
		}
		s.depths++
		if z := truthOf(&kps[i]); z > 0 {
			s.errs = append(s.errs, math.Abs(kps[i].Depth-z)/z)
		}
	}
}

// stats returns the median and 90th-percentile relative error and the
// share of errors over 10 %.
func (s *stereoTally) stats() (p50, p90, over float64) {
	sort.Float64s(s.errs)
	n := len(s.errs)
	if n == 0 {
		return math.Inf(1), math.Inf(1), 1
	}
	return s.errs[n/2], s.errs[n*9/10], float64(n-sort.SearchFloat64s(s.errs, 0.10)) / float64(n)
}

// stereoCompare runs the descriptor matcher (a second extraction and
// StereoMatchPar, the serving path before the block search) and
// StereoSearch over the same frames of seq — as rendered, or as a
// video round trip delivers them to the server — and tallies both.
// agree is the share of keypoints both gave a depth whose right-image
// positions are within a pixel of each other.
func stereoCompare(t *testing.T, seq *dataset.Sequence, frames []int, coded bool) (match, search stereoTally, agree float64) {
	t.Helper()
	ex := NewExtractor(DefaultConfig())
	encL, encR := video.NewEncoder(), video.NewEncoder()
	decL, decR := video.NewDecoder(), video.NewDecoder()
	both, close := 0, 0
	for _, f := range frames {
		left, right := seq.StereoFrame(f)
		if coded {
			bl, br := video.EncodeStereo(encL, encR, left, right)
			var err error
			if left, err = decL.Decode(bl); err != nil {
				t.Fatal(err)
			}
			if right, err = decR.Decode(br); err != nil {
				t.Fatal(err)
			}
		}
		km := ex.Extract(left)
		ks := append([]Keypoint(nil), km...)
		StereoMatchPar(km, ex.Extract(right), seq.Rig.Intr.Fx, seq.Rig.Baseline, 2, nil)
		ex.StereoSearch(left, right, ks, seq.Rig.Intr.Fx, seq.Rig.Baseline)
		truth := seq.Renderer().Truth(seq.GroundTruth(f))
		truthOf := func(k *Keypoint) float64 {
			near, z := 2.0, 0.0
			for j := range truth {
				if d := math.Hypot(truth[j].Px.X-k.X, truth[j].Px.Y-k.Y); d <= near {
					near, z = d, truth[j].Depth
				}
			}
			return z
		}
		match.add(km, truthOf)
		search.add(ks, truthOf)
		for i := range km {
			if km[i].Right >= 0 && ks[i].Right >= 0 {
				both++
				if math.Abs(km[i].Right-ks[i].Right) <= 1 {
					close++
				}
			}
		}
	}
	if both == 0 {
		t.Fatalf("%s: no keypoint got a depth from both methods", seq.Name)
	}
	return match, search, float64(close) / float64(both)
}

// everyNth lists the frames lo, lo+step, … up to hi.
func everyNth(lo, hi, step int) []int {
	var out []int
	for f := lo; f <= hi; f += step {
		out = append(out, f)
	}
	return out
}

// TestStereoSearchDepth is the accuracy gate of the block search: on
// keypoints whose true depth the renderer knows, it is no worse than
// the descriptor matcher it replaced on any of the three figures, and
// where both found a depth they found the same one.
func TestStereoSearchDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("renders and encodes dataset frames")
	}
	for _, seq := range []*dataset.Sequence{dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo), dataset.V202(camera.Stereo)} {
		for _, coded := range []bool{false, true} {
			match, search, agree := stereoCompare(t, seq, everyNth(20, 118, 7), coded)
			m50, m90, mOver := match.stats()
			s50, s90, sOver := search.stats()
			t.Logf("%s coded=%v: relative depth error p50 %.2f %% (matcher %.2f %%), p90 %.2f %% (%.2f %%), over 10 %%: %.1f %% (%.1f %%), on %d keypoints (%d); %.2f %% agree within 1 px",
				seq.Name, coded, 100*s50, 100*m50, 100*s90, 100*m90, 100*sOver, 100*mOver, len(search.errs), len(match.errs), 100*agree)
			if len(search.errs) < 1000 {
				t.Errorf("%s coded=%v: only %d searched keypoints near a ground-truth projection", seq.Name, coded, len(search.errs))
			}
			if s50 > m50 || s90 > m90 || sOver > mOver {
				t.Errorf("%s coded=%v: block search depth error (p50 %.4f, p90 %.4f, >10%% %.4f) worse than the matcher's (%.4f, %.4f, %.4f)",
					seq.Name, coded, s50, s90, sOver, m50, m90, mOver)
			}
			if agree < 0.97 {
				t.Errorf("%s coded=%v: %.2f %% of common depths agree within 1 px, want >= 97 %%", seq.Name, coded, 100*agree)
			}
		}
	}
}

// TestStereoSearchYield holds the invariant the search's acceptance is
// set by (see stereoDominance): over sequences and seeds the benchmark
// does not run it gives a depth to at most 35 % more keypoints than
// the descriptor matcher did — every one of them becomes a map point
// at the next keyframe — and to no fewer than 15 % less. (The issue
// that brought the search in asked for +15 %; the dominance radius that
// holds it lost 15–20 cm where two sessions' maps meet, see CHANGES.md,
// PR 24.) The bound is on the frames of all four pooled: the matcher's
// own yield runs from ~275 a frame on MH05 to ~380 on V202 for reasons
// the scene does not explain, so one sequence may sit at twice it.
func TestStereoSearchYield(t *testing.T) {
	if testing.Short() {
		t.Skip("renders dataset frames")
	}
	mh04, mh05 := dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo)
	mh04.Seed += 20
	mh05.Seed += 21
	frames := everyNth(20, 118, 14)
	for _, coded := range []bool{false, true} {
		var matched, searched int
		for _, seq := range []*dataset.Sequence{dataset.V202(camera.Stereo), dataset.TUMfr1(camera.Stereo), mh04, mh05} {
			match, search, _ := stereoCompare(t, seq, frames, coded)
			ratio := float64(search.depths) / float64(match.depths)
			t.Logf("%s coded=%v: %d depths per frame, matcher %d: %.2f", seq.Name, coded, search.depths/len(frames), match.depths/len(frames), ratio)
			if ratio > 2 || ratio < 0.6 {
				t.Errorf("%s coded=%v: block search found %.2f times the matcher's depths, want 0.6 to 2", seq.Name, coded, ratio)
			}
			matched += match.depths
			searched += search.depths
		}
		if ratio := float64(searched) / float64(matched); ratio > 1.35 || ratio < 0.85 {
			t.Errorf("coded=%v: block search found %.2f times the matcher's depths over all four sequences, want 0.85 to 1.35", coded, ratio)
		} else {
			t.Logf("coded=%v: %.2f times the matcher's depths over all four sequences", coded, ratio)
		}
	}
}

// stereoCase is one synthetic rectified pair with keypoints to search.
type stereoCase struct {
	name        string
	left, right *img.Gray
	kps         []Keypoint
	fx, base    float64
}

// stereoCases builds pairs that make the search take every turn it
// has: random texture shifted by a few disparities in bands (one clear
// winner), the same in 3-pixel cells as the renderer draws (the
// disparities next to the winner score in between), a four-level
// texture (scores of a few units: ties, a best that improves many
// times, neighbours that beat each other), a periodic texture (an
// exact second best some periods away), a ramp (every disparity nearly
// as good as the next) and a flat image (everything scores the same);
// narrow images where the image edge, not the rig, ends the disparity
// range; keypoints on every level, at the border, off the image and at
// half-pixel positions, with scores that tie and dominate each other.
func stereoCases(rng *rand.Rand) []stereoCase {
	var out []stereoCase
	for _, dim := range [][2]int{{24, 16}, {97, 48}, {320, 96}} {
		w, h := dim[0], dim[1]
		for kind := 0; kind < 6; kind++ {
			left, right := img.New(w, h), img.New(w, h)
			src := make([]byte, (w+64)*h) // the scene, wider than either view of it
			for i := range src {
				x := i % (w + 64)
				switch kind {
				case 0:
					src[i] = byte(rng.Intn(256))
				case 1:
					src[i] = byte(100 + rng.Intn(4))
				case 2:
					src[i] = byte(40 * (x % 7))
				case 3:
					src[i] = byte(x)
				case 4:
					src[i] = 128
				case 5:
					if x%3 == 0 || i == 0 {
						src[i] = byte(rng.Intn(256))
					} else {
						src[i] = src[i-1]
					}
				}
			}
			for y := 0; y < h; y++ {
				shift := []int{1, 3, 9, 30}[y*4/h] // disparity of this band
				for x := 0; x < w; x++ {
					left.Pix[y*w+x] = src[y*(w+64)+x+32]
					right.Pix[y*w+x] = src[y*(w+64)+x+32+shift] + byte(rng.Intn(3))
				}
			}
			kps := make([]Keypoint, 300)
			for i := range kps {
				// Scores from a handful of values: ties, and most keypoints
				// have a stronger one somewhere near.
				kps[i] = Keypoint{X: rng.Float64()*float64(w+8) - 4, Y: rng.Float64()*float64(h+8) - 4,
					Score: float64(rng.Intn(12)), Right: -1}
				switch rng.Intn(8) {
				case 0:
					kps[i].Level = 1 + rng.Intn(3)
				case 1:
					kps[i].X = math.Floor(kps[i].X) + 0.5
				case 2:
					kps[i].X, kps[i].Y = 4, float64(h-4) // the last block that fits
				}
			}
			// Extract's order: level by level, rows ascending.
			sort.SliceStable(kps, func(a, b int) bool {
				if kps[a].Level != kps[b].Level {
					return kps[a].Level < kps[b].Level
				}
				return kps[a].Y < kps[b].Y
			})
			out = append(out, stereoCase{
				name: []string{"random", "four-level", "periodic", "ramp", "flat", "cells"}[kind],
				left: left, right: right, kps: kps,
				fx: []float64{40, 120, 458}[rng.Intn(3)], base: 0.11,
			})
		}
	}
	return out
}

// TestStereoSearchMatchesRef: the dominance walk, the early exit, the
// running second best and the word-wide kernel change no bit of any
// Right or Depth against the plain loops, whatever order the keypoints
// are searched in.
func TestStereoSearchMatchesRef(t *testing.T) {
	found := 0
	cases := stereoCases(rand.New(rand.NewSource(24)))
	for ci, c := range cases {
		want := append([]Keypoint(nil), c.kps...)
		ex := NewExtractor(DefaultConfig())
		wantN := stereoSearchRef(c.left, c.right, want, c.fx, c.base, ex.Cfg.ScaleFactor)
		found += wantN
		for name, par := range map[string]Parallelizer{"serial": SerialRunner{}, "goroutines": goRunner{}, "nil": nil} {
			got := append([]Keypoint(nil), c.kps...)
			ex.Par = par
			if n := ex.StereoSearch(c.left, c.right, got, c.fx, c.base); n != wantN {
				t.Errorf("case %d (%s %dx%d, %s): %d depths, reference %d", ci, c.name, c.left.W, c.left.H, name, n, wantN)
			}
			for i := range got {
				if math.Float64bits(got[i].Right) != math.Float64bits(want[i].Right) ||
					math.Float64bits(got[i].Depth) != math.Float64bits(want[i].Depth) {
					t.Fatalf("case %d (%s %dx%d, %s): keypoint %d at (%v, %v) level %d: Right %v Depth %v, reference %v %v",
						ci, c.name, c.left.W, c.left.H, name, i, got[i].X, got[i].Y, got[i].Level,
						got[i].Right, got[i].Depth, want[i].Right, want[i].Depth)
				}
			}
		}
	}
	if found < 400 {
		t.Fatalf("the cases gave only %d depths between them", found)
	}
	// A right image of another size is no pair at all.
	c := cases[0]
	if n := NewExtractor(DefaultConfig()).StereoSearch(c.left, img.New(c.left.W+1, c.left.H), c.kps, c.fx, c.base); n != 0 {
		t.Errorf("mismatched images: %d depths", n)
	}
}

// TestStereoSearchAllocs: the search keeps no table and no scratch;
// the one allocation is the work-item closure handed to the runner.
func TestStereoSearchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("renders dataset frames")
	}
	left, right, seq := benchPair(t)
	ex := NewExtractor(DefaultConfig())
	kps := ex.Extract(left)
	allocs := testing.AllocsPerRun(20, func() {
		ex.StereoSearch(left, right, kps, seq.Rig.Intr.Fx, seq.Rig.Baseline)
	})
	t.Logf("StereoSearch: %.1f allocs/op", allocs)
	if allocs > 1 {
		t.Errorf("StereoSearch allocates %.1f/op, want <= 1", allocs)
	}
}
