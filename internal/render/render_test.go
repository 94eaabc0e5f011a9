package render

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/img"
	"slamshare/internal/worldgen"
)

func testRenderer() (*Renderer, geom.SE3) {
	world := worldgen.MachineHall(11, 120)
	rig := camera.NewStereoRig(camera.EuRoCIntrinsics(), 0.11)
	r := New(world, rig, DefaultConfig())
	pose := geom.SE3{
		R: worldgen.LookRotation(geom.Vec3{X: 1}, geom.Vec3{Z: 1}),
		T: geom.Vec3{X: -4, Y: 0, Z: 2},
	}
	return r, pose
}

func TestRenderDeterministic(t *testing.T) {
	r, pose := testRenderer()
	a := r.Render(pose, 5)
	b := r.Render(pose, 5)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("rendering is not deterministic")
		}
	}
	c := r.Render(pose, 6)
	if img.AbsDiff(a, c) == 0 {
		t.Error("different frame seeds produced identical noise")
	}
}

func TestRenderHasContent(t *testing.T) {
	r, pose := testRenderer()
	f := r.Render(pose, 1)
	if f.W != r.Rig.Intr.Width || f.H != r.Rig.Intr.Height {
		t.Fatalf("frame size %dx%d", f.W, f.H)
	}
	// The frame must contain patch pixels darker and brighter than the
	// background.
	var lo, hi int
	for _, p := range f.Pix {
		if p < 50 {
			lo++
		}
		if p > 200 {
			hi++
		}
	}
	if lo < 100 || hi < 100 {
		t.Errorf("frame lacks patch contrast: lo=%d hi=%d", lo, hi)
	}
}

func TestTruthMatchesProjection(t *testing.T) {
	r, pose := testRenderer()
	truth := r.Truth(pose)
	if len(truth) < 30 {
		t.Fatalf("too few visible landmarks: %d", len(truth))
	}
	tcw := pose.Inverse()
	for _, pr := range truth {
		px, ok := r.Rig.Intr.Project(tcw.Apply(pr.Landmark.Pos))
		if !ok {
			t.Fatal("truth projection out of frustum")
		}
		if px.Sub(pr.Px).Norm() > 1e-9 {
			t.Fatal("truth pixel mismatch")
		}
	}
}

// TestDetectionCoversLandmarks is the load-bearing integration check:
// a real FAST detector must find a corner within 2 px of (almost)
// every rendered landmark.
func TestDetectionCoversLandmarks(t *testing.T) {
	r, pose := testRenderer()
	f := r.Render(pose, 3)
	truth := r.Truth(pose)
	ex := feature.NewExtractor(feature.DefaultConfig())
	kps := ex.Extract(f)
	if len(kps) == 0 {
		t.Fatal("no keypoints extracted")
	}
	covered, total := 0, 0
	for _, pr := range unoccluded(truth) {
		if !r.Rig.Intr.InBounds(pr.Px, feature.Border+2) {
			continue
		}
		total++
		for _, k := range kps {
			if math.Abs(k.X-pr.Px.X) <= 2 && math.Abs(k.Y-pr.Px.Y) <= 2 {
				covered++
				break
			}
		}
	}
	if total == 0 {
		t.Fatal("no in-bounds landmarks")
	}
	if frac := float64(covered) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of landmarks detected (%d/%d)", frac*100, covered, total)
	}
}

// unoccluded filters truth (sorted nearest-first) down to landmarks
// whose patch center was not overdrawn by a nearer landmark's patch.
func unoccluded(truth []Projection) []Projection {
	var out []Projection
	for i, pr := range truth {
		clear := true
		for j := 0; j < i; j++ {
			if math.Abs(truth[j].Px.X-pr.Px.X) < 12 && math.Abs(truth[j].Px.Y-pr.Px.Y) < 12 {
				clear = false
				break
			}
		}
		if clear {
			out = append(out, pr)
		}
	}
	return out
}

// TestDescriptorsMatchAcrossViews verifies the same landmark yields
// matchable descriptors from two different camera positions — the
// property tracking and merging depend on.
func TestDescriptorsMatchAcrossViews(t *testing.T) {
	r, pose := testRenderer()
	pose2 := geom.SE3{
		R: pose.R.Mul(geom.QuatFromAxisAngle(geom.Vec3{Y: 1}, 0.03)),
		T: pose.T.Add(geom.Vec3{X: 0.15, Y: 0.1, Z: 0.02}),
	}
	ex := feature.NewExtractor(feature.DefaultConfig())
	k1 := ex.Extract(r.Render(pose, 1))
	k2 := ex.Extract(r.Render(pose2, 2))
	matches := feature.MatchBrute(k1, k2, feature.MatchThresholdStrict, feature.RatioTest)
	if len(matches) < 30 {
		t.Fatalf("too few cross-view matches: %d (k1=%d k2=%d)", len(matches), len(k1), len(k2))
	}
	// Verify matches are geometrically consistent using ground truth:
	// keypoints near the same landmark in both views.
	t1 := r.Truth(pose)
	t2 := r.Truth(pose2)
	nearest := func(truth []Projection, x, y float64) (uint32, bool) {
		bestD := 3.0
		var id uint32
		ok := false
		for _, pr := range truth {
			d := math.Hypot(pr.Px.X-x, pr.Px.Y-y)
			if d < bestD {
				bestD = d
				id = pr.Landmark.ID
				ok = true
			}
		}
		return id, ok
	}
	good, checked := 0, 0
	for _, m := range matches {
		id1, ok1 := nearest(t1, k1[m.A].X, k1[m.A].Y)
		id2, ok2 := nearest(t2, k2[m.B].X, k2[m.B].Y)
		if !ok1 || !ok2 {
			continue
		}
		checked++
		if id1 == id2 {
			good++
		}
	}
	if checked < 20 {
		t.Fatalf("too few verifiable matches: %d", checked)
	}
	if frac := float64(good) / float64(checked); frac < 0.9 {
		t.Errorf("match purity %.0f%% (%d/%d)", frac*100, good, checked)
	}
}

func TestStereoPairDisparity(t *testing.T) {
	r, pose := testRenderer()
	left, right := r.RenderStereo(pose, 4)
	ex := feature.NewExtractor(feature.DefaultConfig())
	kl := ex.Extract(left)
	kr := ex.Extract(right)
	n := feature.StereoMatch(kl, kr, r.Rig.Intr.Fx, r.Rig.Baseline, 2)
	if n < 20 {
		t.Fatalf("too few stereo matches: %d", n)
	}
	// Triangulated depths must agree with ground truth landmark depths.
	truth := r.Truth(pose)
	good, checked := 0, 0
	for _, k := range kl {
		if k.Depth <= 0 {
			continue
		}
		for _, pr := range truth {
			if math.Hypot(pr.Px.X-k.X, pr.Px.Y-k.Y) < 2 {
				checked++
				if math.Abs(k.Depth-pr.Depth)/pr.Depth < 0.15 {
					good++
				}
				break
			}
		}
	}
	if checked < 15 {
		t.Fatalf("too few depth checks: %d", checked)
	}
	if frac := float64(good) / float64(checked); frac < 0.8 {
		t.Errorf("stereo depth accuracy %.0f%% (%d/%d)", frac*100, good, checked)
	}
}

func TestConfigDefaults(t *testing.T) {
	w := worldgen.ViconRoom(1, 50)
	rig := camera.NewMonoRig(camera.TUMIntrinsics())
	r := New(w, rig, Config{}) // zero config must be replaced by defaults
	if r.Cfg.PatchRadius <= 0 || r.Cfg.MaxDepth <= 0 {
		t.Error("defaults not applied")
	}
	if v := VehicularConfig(); v.MaxDepth <= DefaultConfig().MaxDepth {
		t.Error("vehicular config should see farther")
	}
}

func TestPatchCacheReuse(t *testing.T) {
	r, pose := testRenderer()
	r.Render(pose, 1)
	n := len(r.patches)
	r.Render(pose, 2)
	if len(r.patches) != n {
		t.Error("patch cache grew on identical view")
	}
	if n == 0 {
		t.Error("patch cache unused")
	}
}

// TestRenderConcurrent renders through one Renderer from 4 goroutines,
// as clients replaying one dataset.Sequence do (they share its cached
// Renderer). Run under -race; the frames must equal a serial render.
func TestRenderConcurrent(t *testing.T) {
	shared, pose := testRenderer()
	serial, _ := testRenderer()
	const workers, frames = 4, 3
	var wg sync.WaitGroup
	got := make([][]*img.Gray, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				p := pose
				p.T.X += 0.5 * float64(f)
				got[w] = append(got[w], shared.Render(p, uint64(f)))
			}
		}(w)
	}
	wg.Wait()
	for f := 0; f < frames; f++ {
		p := pose
		p.T.X += 0.5 * float64(f)
		want := serial.Render(p, uint64(f))
		for w := range got {
			if !bytes.Equal(got[w][f].Pix, want.Pix) {
				t.Errorf("worker %d frame %d differs from the serial render", w, f)
			}
		}
	}
}
