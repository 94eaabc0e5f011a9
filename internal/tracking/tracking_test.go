package tracking

import (
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/mapping"
	"slamshare/internal/smap"
)

// runSLAM drives tracker + mapper over the first nFrames of a
// sequence and returns per-frame position errors against ground truth.
func runSLAM(t *testing.T, seq *dataset.Sequence, nFrames, stride int, priorFrames int) (errs []float64, states []State) {
	t.Helper()
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	ex := feature.NewExtractor(feature.DefaultConfig())
	tr := New(m, seq.Rig, ex, alloc, 1, DefaultConfig())
	mp := mapping.New(m, seq.Rig, alloc, 1, mapping.DefaultConfig())
	for i := 0; i < nFrames; i += stride {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i < priorFrames {
			p := seq.GroundTruth(i).Inverse() // world-to-camera
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		states = append(states, res.State)
		if res.State == OK {
			est := res.Pose.Inverse().T
			errs = append(errs, est.Dist(seq.GroundTruth(i).T))
		}
		if res.NewKF != nil {
			mp.ProcessKeyFrame(res.NewKF)
		}
	}
	return errs, states
}

func summarize(errs []float64) (mean, max float64) {
	if len(errs) == 0 {
		return 0, 0
	}
	for _, e := range errs {
		mean += e
		if e > max {
			max = e
		}
	}
	return mean / float64(len(errs)), max
}

func TestStereoSLAMTracksMH04(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.MH04(camera.Stereo)
	errs, states := runSLAM(t, seq, 150, 1, 1)
	if len(errs) < 140 {
		t.Fatalf("only %d frames tracked OK of 150", len(errs))
	}
	lost := 0
	for _, s := range states {
		if s == Lost {
			lost++
		}
	}
	if lost > 5 {
		t.Errorf("%d lost frames", lost)
	}
	mean, max := summarize(errs)
	t.Logf("stereo MH04: mean err %.3f m, max %.3f m over %d frames", mean, max, len(errs))
	if mean > 0.10 {
		t.Errorf("mean ATE %.3f m too high", mean)
	}
	if max > 0.5 {
		t.Errorf("max error %.3f m too high", max)
	}
}

func TestMonoSLAMTracksMH04(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.MH04(camera.Mono)
	// Mono gets IMU-grade priors until the ~1 m init baseline is
	// reached (~35 frames at this drone speed), as the visual-inertial
	// client provides in the full system.
	errs, _ := runSLAM(t, seq, 150, 1, 60)
	if len(errs) < 80 {
		t.Fatalf("only %d frames tracked OK of 150", len(errs))
	}
	mean, max := summarize(errs)
	t.Logf("mono MH04: mean err %.3f m, max %.3f m over %d frames", mean, max, len(errs))
	if mean > 0.15 {
		t.Errorf("mean ATE %.3f m too high", mean)
	}
	if max > 0.8 {
		t.Errorf("max error %.3f m too high", max)
	}
}

func TestTrackerReportsStageTimings(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	tr := New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, DefaultConfig())
	var total Stages
	for i := 0; i < 10; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i == 0 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		if res.Timing.Extract <= 0 || res.Timing.Total <= 0 {
			t.Fatal("missing stage timings")
		}
		total.Add(res.Timing)
	}
	avg := total.Scale(10)
	if avg.Extract >= avg.Total {
		t.Error("extraction cannot exceed total")
	}
	// Extraction dominates CPU tracking, as Fig. 5 reports (>50%).
	if float64(avg.Extract+avg.Match) < 0.4*float64(avg.Total) {
		t.Errorf("extraction+matching = %v of total %v, expected the dominant share", avg.Extract+avg.Match, avg.Total)
	}
}

func TestTrackerLostOnBlankFrames(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	tr := New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, DefaultConfig())
	// Initialize normally.
	left, right := seq.StereoFrame(0)
	p := seq.GroundTruth(0).Inverse()
	res := tr.ProcessFrame(left, right, 0, &p)
	if res.State != OK {
		t.Fatal("failed to initialize")
	}
	// Feed a blank frame: tracking must degrade to Lost, not panic.
	blank := left.Clone()
	blank.Fill(128)
	res = tr.ProcessFrame(blank, blank, 0.033, nil)
	if res.State != Lost {
		t.Errorf("state = %v on blank frame", res.State)
	}
}

func TestStateString(t *testing.T) {
	if NotInitialized.String() != "uninitialized" || OK.String() != "ok" || Lost.String() != "lost" {
		t.Error("state strings wrong")
	}
}

func TestStagesScaleZero(t *testing.T) {
	s := Stages{Extract: 10}
	if s.Scale(0) != s {
		t.Error("Scale(0) should be identity")
	}
}

func TestGridBestMatch(t *testing.T) {
	kps := []feature.Keypoint{
		{X: 100, Y: 100, Desc: feature.Descriptor{1}},
		{X: 105, Y: 100, Desc: feature.Descriptor{0xFF}},
		{X: 400, Y: 300, Desc: feature.Descriptor{1}},
	}
	var soa feature.SoA
	soa.Gather(kps)
	var g grid
	g.reset(&soa, 640, 480)
	// Search near (102,100) for descriptor {1}: keypoint 0 wins.
	j := g.bestMatch(&soa, geom.Vec2{X: 102, Y: 100}, 10, feature.Descriptor{1}, 50)
	if j != 0 {
		t.Errorf("bestMatch = %d", j)
	}
	// Radius excludes the far keypoint.
	if j := g.bestMatch(&soa, geom.Vec2{X: 200, Y: 200}, 10, feature.Descriptor{1}, 50); j != -1 {
		t.Errorf("out-of-radius match = %d", j)
	}
	// maxDist filters poor matches.
	if j := g.bestMatch(&soa, geom.Vec2{X: 105, Y: 100}, 3, feature.Descriptor{0}, 2); j != -1 {
		t.Errorf("weak match accepted: %d", j)
	}
	// A rebuild over the same arrays reuses the bins and matches again.
	g.reset(&soa, 640, 480)
	if j := g.bestMatch(&soa, geom.Vec2{X: 102, Y: 100}, 10, feature.Descriptor{1}, 50); j != 0 {
		t.Errorf("bestMatch after reset = %d", j)
	}
}

func TestRelocalizationRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.V202(camera.Stereo)
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	tr := New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, DefaultConfig())
	mp := mapping.New(m, seq.Rig, alloc, 1, mapping.DefaultConfig())
	// Build a map over 60 frames.
	for i := 0; i < 60; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i == 0 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		if res.NewKF != nil {
			mp.ProcessKeyFrame(res.NewKF)
		}
	}
	// Lose tracking with blank frames.
	blank := seq.Frame(0).Clone()
	blank.Fill(128)
	for i := 0; i < 3; i++ {
		tr.ProcessFrame(blank, blank, seq.FrameTime(60+i), nil)
	}
	if tr.State() != Lost {
		t.Fatal("tracker not lost after blank frames")
	}
	// Resume with a real frame from a previously mapped location (no
	// prior: recovery must come from BoW relocalization).
	recovered := false
	for i := 30; i < 40; i++ {
		left, right := seq.StereoFrame(i)
		res := tr.ProcessFrame(left, right, seq.FrameTime(64+i), nil)
		if res.State == OK {
			recovered = true
			if e := res.Pose.Inverse().T.Dist(seq.GroundTruth(i).T); e > 0.3 {
				t.Errorf("relocalized %e m from truth", e)
			}
			break
		}
	}
	if !recovered {
		t.Error("tracker never relocalized")
	}
}

// TestSearchLocalPointsAllocs pins the scratch-reuse contract for the
// local-point search hot path: in steady state the bound set, the
// candidate buffer, the conflict map, and the optimization input
// slices all live in tracker scratch, so per-call allocations are a
// small constant (the pose optimizer's internals), not O(local map).
func TestSearchLocalPointsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.MH04(camera.Stereo)
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	ex := feature.NewExtractor(feature.DefaultConfig())
	tr := New(m, seq.Rig, ex, alloc, 1, DefaultConfig())
	mp := mapping.New(m, seq.Rig, alloc, 1, mapping.DefaultConfig())
	for i := 0; i < 25; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i == 0 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		if res.NewKF != nil {
			mp.ProcessKeyFrame(res.NewKF)
		}
	}
	fr := tr.last
	if len(fr.Kps) == 0 {
		t.Fatal("no keypoints on the last frame")
	}
	tr.searchLocalPoints(&fr) // warm the scratch for this frame
	allocs := testing.AllocsPerRun(20, func() {
		tr.searchLocalPoints(&fr)
	})
	t.Logf("searchLocalPoints steady state: %.1f allocs/op (%d local points)",
		allocs, len(tr.Map.LocalView(tr.refKF, maxLocalKFs).Points))
	if allocs > 8 {
		t.Errorf("searchLocalPoints allocates %.1f/op in steady state; scratch reuse regressed", allocs)
	}
}
