package mapping

import (
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
)

// buildWithMapper runs tracking+mapping over a sequence prefix and
// returns the map and mapper.
func buildWithMapper(t *testing.T, seq *dataset.Sequence, n int) (*smap.Map, *Mapper, []Stats) {
	t.Helper()
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	tr := tracking.New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, tracking.DefaultConfig())
	mp := New(m, seq.Rig, alloc, 1, DefaultConfig())
	var stats []Stats
	for i := 0; i < n; i++ {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i < 60 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		if res.NewKF != nil {
			stats = append(stats, mp.ProcessKeyFrame(res.NewKF))
		}
	}
	return m, mp, stats
}

func TestMonoMapperCreatesPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.V202(camera.Mono)
	m, _, stats := buildWithMapper(t, seq, 100)
	if len(stats) < 2 {
		t.Fatalf("only %d keyframes processed", len(stats))
	}
	created := 0
	ranBA := false
	for _, s := range stats {
		created += s.Created
		if s.RanBA {
			ranBA = true
			if s.BADur <= 0 {
				t.Error("BA ran with zero duration")
			}
		}
		if s.TotalDur <= 0 {
			t.Error("missing total duration")
		}
	}
	if created == 0 {
		t.Error("mono mapper triangulated no new points")
	}
	if !ranBA {
		t.Error("local BA never ran")
	}
	if m.NMapPoints() == 0 {
		t.Error("map has no points")
	}
}

func TestStereoMapperFusesObservations(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.V202(camera.Stereo)
	m, _, stats := buildWithMapper(t, seq, 100)
	fused := 0
	for _, s := range stats {
		fused += s.Fused
	}
	if fused == 0 {
		t.Error("no observations fused across keyframes")
	}
	// Fusion must increase multi-view support: some points should be
	// observed by 3+ keyframes.
	multi := 0
	for _, mp := range m.MapPoints() {
		if mp.NObs() >= 3 {
			multi++
		}
	}
	if multi < 20 {
		t.Errorf("only %d points with 3+ observations", multi)
	}
}

func TestLocalBAReducesError(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	// Build a map, perturb a window keyframe pose, and check localBA
	// pulls it back.
	seq := dataset.V202(camera.Stereo)
	m, mp, _ := buildWithMapper(t, seq, 80)
	kfs := m.KeyFrames()
	if len(kfs) < 3 {
		t.Skip("too few keyframes")
	}
	victim := kfs[len(kfs)-1]
	orig := victim.Tcw
	victim.Tcw = geom.SE3{
		R: geom.QuatFromAxisAngle(geom.Vec3{Y: 1}, 0.02).Mul(orig.R).Normalized(),
		T: orig.T.Add(geom.Vec3{X: 0.05, Y: -0.03}),
	}
	perturbed := victim.Tcw.T.Dist(orig.T)
	mp.localBA(victim)
	recovered := victim.Tcw.T.Dist(orig.T)
	if recovered >= perturbed {
		t.Errorf("BA did not reduce pose error: %.4f -> %.4f", perturbed, recovered)
	}
}

func TestCullRemovesWeakPoints(t *testing.T) {
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	rig := camera.NewMonoRig(camera.EuRoCIntrinsics())
	mm := New(m, rig, alloc, 1, DefaultConfig())
	// A point with one observation, aged past the cull window.
	kf := &smap.KeyFrame{ID: alloc.Next(), Keypoints: make([]feature.Keypoint, 5)}
	m.AddKeyFrame(kf)
	weak := &smap.MapPoint{ID: alloc.Next()}
	m.AddMapPoint(weak)
	if err := m.AddObservation(kf.ID, weak.ID, 0); err != nil {
		t.Fatal(err)
	}
	mm.recent[weak.ID] = 0
	mm.kfCount = DefaultConfig().CullAgeKFs + 1
	if culled := mm.cullPoints(); culled != 1 {
		t.Errorf("culled = %d", culled)
	}
	if _, ok := m.MapPoint(weak.ID); ok {
		t.Error("weak point survived culling")
	}
}

func TestDefaultConfigApplied(t *testing.T) {
	m := smap.NewMap(bow.Default())
	mm := New(m, camera.NewMonoRig(camera.TUMIntrinsics()), smap.NewIDAllocator(1), 1, Config{})
	if mm.Cfg.BAWindow == 0 || mm.Cfg.ReprojTol == 0 {
		t.Error("zero config not defaulted")
	}
}

// TestStereoMappingHoldsScale pins the map's metric scale over a long
// stereo run. Local BA used to adjust reprojection only, and every
// adjustment of the sliding window let the map shrink a little toward
// the camera: the tracked trajectory came out 3 % short, 2.2 mm further
// from ground truth at every step however good the frames, 25 cm after
// ~110 steps. With the disparity term in the window's problem the error
// stays within a few centimetres.
func TestStereoMappingHoldsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seq := dataset.MH04(camera.Stereo)
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	tr := tracking.New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, 1, tracking.DefaultConfig())
	mp := New(m, seq.Rig, alloc, 1, DefaultConfig())
	const steps, stride = 120, 2 // the benchmark's frame step
	origin := seq.GroundTruth(0).T
	for k := 0; k <= steps; k++ {
		left, right := seq.StereoFrame(k * stride)
		var prior *geom.SE3
		if k == 0 {
			p := seq.GroundTruth(0).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(k*stride), prior)
		if res.State != tracking.OK {
			t.Fatalf("step %d: tracking state %v", k, res.State)
		}
		if res.NewKF != nil {
			mp.ProcessKeyFrame(res.NewKF)
		}
		if k == steps {
			truth := seq.GroundTruth(k * stride).T
			est := res.Pose.Inverse().T
			scale := est.Sub(origin).Norm() / truth.Sub(origin).Norm()
			t.Logf("after %d steps (%.1f m travelled): centre error %.1f cm, trajectory scale %.4f",
				steps, truth.Sub(origin).Norm(), 100*est.Dist(truth), scale)
			if e := est.Dist(truth); e > 0.06 {
				t.Errorf("camera centre is %.1f cm from ground truth after %d steps, want <= 6 cm", 100*e, steps)
			}
			if scale < 0.99 || scale > 1.01 {
				t.Errorf("trajectory scale %.4f, want within 1%% of 1", scale)
			}
		}
	}
}
