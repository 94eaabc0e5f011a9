package mapping

import (
	"math"
	"reflect"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/smap"
)

// wallMap is a small hand-built stereo map: ten keyframes stepping
// 0.5 m along x past a 12 x 5 wall of points 5 m away, every visible
// point bound at its (slightly noisy) projection with its right-image
// column, covisibility edges in place. Keyframe i has ID kfs[i].
func wallMap(t *testing.T) (m *smap.Map, rig camera.Rig, kfs []smap.ID) {
	t.Helper()
	rig = camera.NewStereoRig(camera.EuRoCIntrinsics(), 0.11)
	m = smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(1)
	var pts []*smap.MapPoint
	for c := 0; c < 12; c++ {
		for r := 0; r < 5; r++ {
			n := float64(len(pts))
			mp := &smap.MapPoint{ID: alloc.Next(), Client: 1, Pos: geom.Vec3{
				X: float64(c) - 3 + 0.02*math.Sin(n),
				Y: 0.5*float64(r) - 1 + 0.02*math.Cos(2*n),
				Z: 5 + 0.05*math.Sin(3*n),
			}}
			pts = append(pts, mp)
			m.AddMapPoint(mp)
		}
	}
	bf := rig.Intr.Fx * rig.Baseline
	for i := 0; i < 10; i++ {
		tcw := geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: -0.5 * float64(i)}}
		kf := &smap.KeyFrame{ID: alloc.Next(), Client: 1, FrameIdx: i, Tcw: tcw}
		var seen []smap.ID
		for j, mp := range pts {
			pc := tcw.Apply(mp.Pos)
			px, ok := rig.Intr.Project(pc)
			if !ok || !rig.Intr.InBounds(px, 8) {
				continue
			}
			px.X += 0.3 * math.Sin(float64(7*i+j))
			px.Y += 0.3 * math.Cos(float64(5*i+3*j))
			kf.Keypoints = append(kf.Keypoints, feature.Keypoint{X: px.X, Y: px.Y, Right: px.X - bf/pc.Z, Depth: pc.Z})
			seen = append(seen, mp.ID)
		}
		m.AddKeyFrame(kf)
		for kp, id := range seen {
			if err := m.AddObservation(kf.ID, id, kp); err != nil {
				t.Fatal(err)
			}
		}
		kfs = append(kfs, kf.ID)
	}
	for _, id := range kfs {
		m.UpdateConnections(id, 15)
	}
	return m, rig, kfs
}

// TestGatherBAMatchesBothFormerAssemblies pins the one builder to the
// two hand-written assemblies it replaced. The sizes were recorded on
// the commit before (86aef19) by running that commit's localBA and
// seamBA over this same map.
func TestGatherBAMatchesBothFormerAssemblies(t *testing.T) {
	m, rig, kfs := wallMap(t)
	bf := rig.Intr.Fx * rig.Baseline
	local := func(kf int) *baWindow {
		return gatherBA(m, rig.Intr, bf, windowIDs(m, kfs[kf], DefaultConfig().BAWindow-1), nil, 8)
	}
	seam := func(client, global int) *baWindow {
		return gatherBA(m, rig.Intr, 0, windowIDs(m, kfs[client], 4), windowIDs(m, kfs[global], 4), 0)
	}
	for _, tc := range []struct {
		name                     string
		win                      *baWindow
		cams, fixed, points, obs int
	}{
		{"localBA(kf 9)", local(9), 10, 5, 50, 367},
		{"localBA(kf 4)", local(4), 10, 5, 51, 386},
		{"seamBA(client kf 2, global kf 7)", seam(2, 7), 10, 5, 60, 405},
		// Both sides resolve to the same five keyframes: fixed wins.
		{"seamBA(client kf 4, global kf 5)", seam(4, 5), 5, 5, 51, 207},
	} {
		p := &tc.win.prob
		fixed := 0
		for _, f := range p.FixedCam {
			if f {
				fixed++
			}
		}
		if len(p.Cams) != tc.cams || fixed != tc.fixed || len(p.Points) != tc.points || len(p.Obs) != tc.obs {
			t.Errorf("%s: %d cameras (%d fixed), %d points, %d observations; the former assembly had %d (%d), %d, %d",
				tc.name, len(p.Cams), fixed, len(p.Points), len(p.Obs), tc.cams, tc.fixed, tc.points, tc.obs)
		}
		if len(tc.win.camIDs) != len(p.Cams) || len(tc.win.ptIDs) != len(p.Points) || len(tc.win.refs) != len(p.Obs) {
			t.Errorf("%s: identity tables out of step with the problem", tc.name)
		}
	}
}

// TestGatherBAOrderAndCap: what the map's order used to decide is
// decided by the map's contents — which outside observers a capped
// problem keeps, and the order everything is numbered in.
func TestGatherBAOrderAndCap(t *testing.T) {
	m, rig, kfs := wallMap(t)
	window := windowIDs(m, kfs[9], 4)
	ref := gatherBA(m, rig.Intr, 0, window, nil, 2)
	if got := ref.camIDs[len(window):]; len(got) != 2 || got[0] != kfs[0] || got[1] != kfs[1] {
		// The window's first point is seen by keyframes 0 to 8, and a
		// point's observers come in ascending ID.
		t.Errorf("outside observers %v, want the first two met: %v", got, kfs[:2])
	}
	for i := range ref.prob.FixedCam {
		if want := i >= len(window); ref.prob.FixedCam[i] != want {
			t.Errorf("camera %d fixed = %t", i, !want)
		}
	}
	if w := gatherBA(m, rig.Intr, 0, window, nil, 0); !w.prob.FixedCam[0] || w.prob.FixedCam[1] {
		t.Error("with nothing held fixed the first camera, and only it, anchors the gauge")
	}
	for run := 0; run < 20; run++ {
		w := gatherBA(m, rig.Intr, 0, window, nil, 2)
		if !reflect.DeepEqual(w, ref) {
			t.Fatalf("run %d assembled a different problem from the same map", run)
		}
	}
}
