package optimize

import (
	"math"
	"math/rand"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/geom"
)

// scene builds a random set of world points in front of a camera at
// the given ground-truth world-to-camera pose, with observations
// perturbed by pixel noise.
func scene(rng *rand.Rand, in camera.Intrinsics, tcwTrue geom.SE3, n int, noisePx float64) (pts []geom.Vec3, uvs []geom.Vec2) {
	twc := tcwTrue.Inverse()
	for len(pts) < n {
		// Sample in the camera frustum, then map to world.
		pc := geom.Vec3{
			X: (rng.Float64() - 0.5) * 6,
			Y: (rng.Float64() - 0.5) * 4,
			Z: 2 + rng.Float64()*10,
		}
		px, ok := in.Project(pc)
		if !ok {
			continue
		}
		pts = append(pts, twc.Apply(pc))
		uvs = append(uvs, geom.Vec2{
			X: px.X + rng.NormFloat64()*noisePx,
			Y: px.Y + rng.NormFloat64()*noisePx,
		})
	}
	return pts, uvs
}

func randPose(rng *rand.Rand) geom.SE3 {
	axis := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	return geom.SE3{
		R: geom.QuatFromAxisAngle(axis, rng.Float64()),
		T: geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()},
	}
}

func perturbPose(p geom.SE3, rotRad, transM float64, rng *rand.Rand) geom.SE3 {
	axis := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalized()
	dt := geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Normalized().Scale(transM)
	return geom.SE3{
		R: geom.QuatFromAxisAngle(axis, rotRad).Mul(p.R).Normalized(),
		T: p.T.Add(dt),
	}
}

func TestOptimizePoseConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := camera.EuRoCIntrinsics()
	for trial := 0; trial < 10; trial++ {
		truth := randPose(rng)
		pts, uvs := scene(rng, in, truth, 80, 0.5)
		init := perturbPose(truth, 0.05, 0.15, rng)
		res := OptimizePose(in, init, pts, uvs, nil)
		// Rotation within ~0.5 deg, translation within ~2 cm.
		if a := res.Pose.R.AngleTo(truth.R); a > 0.01 {
			t.Fatalf("trial %d: rotation error %v rad", trial, a)
		}
		if d := res.Pose.T.Dist(truth.T); d > 0.03 {
			t.Fatalf("trial %d: translation error %v m", trial, d)
		}
		if res.NInliers < 70 {
			t.Fatalf("trial %d: only %d inliers", trial, res.NInliers)
		}
	}
}

func TestOptimizePoseRejectsOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := camera.EuRoCIntrinsics()
	truth := randPose(rng)
	pts, uvs := scene(rng, in, truth, 100, 0.5)
	// Corrupt 20% of the observations badly.
	for i := 0; i < 20; i++ {
		uvs[i].X += 40 + rng.Float64()*100
		uvs[i].Y -= 35
	}
	init := perturbPose(truth, 0.03, 0.1, rng)
	res := OptimizePose(in, init, pts, uvs, nil)
	if d := res.Pose.T.Dist(truth.T); d > 0.05 {
		t.Fatalf("translation error %v m with outliers", d)
	}
	bad := 0
	for i := 0; i < 20; i++ {
		if res.Inliers[i] {
			bad++
		}
	}
	if bad > 3 {
		t.Errorf("%d corrupted observations still classified inliers", bad)
	}
}

func TestOptimizePoseTooFewPoints(t *testing.T) {
	in := camera.EuRoCIntrinsics()
	pose := geom.IdentitySE3()
	pts := []geom.Vec3{{X: 0, Y: 0, Z: 5}, {X: 1, Y: 0, Z: 5}}
	uvs := []geom.Vec2{{X: 376, Y: 240}, {X: 468, Y: 240}}
	res := OptimizePose(in, pose, pts, uvs, nil)
	// Must not blow up; pose should stay finite.
	if !res.Pose.T.IsFinite() {
		t.Error("pose diverged with insufficient constraints")
	}
}

func TestTriangulateExact(t *testing.T) {
	in := camera.EuRoCIntrinsics()
	tcw1 := geom.IdentitySE3()
	tcw2 := geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: -0.5}} // camera at world x=+0.5
	p := geom.Vec3{X: 0.3, Y: -0.2, Z: 6}
	uv1, ok1 := in.Project(tcw1.Apply(p))
	uv2, ok2 := in.Project(tcw2.Apply(p))
	if !ok1 || !ok2 {
		t.Fatal("test point not visible")
	}
	got, ok := Triangulate(in, tcw1, tcw2, uv1, uv2)
	if !ok {
		t.Fatal("triangulation failed")
	}
	if got.Dist(p) > 0.02 {
		t.Errorf("triangulated %v, want %v", got, p)
	}
}

func TestTriangulateRejectsNoParallax(t *testing.T) {
	in := camera.EuRoCIntrinsics()
	tcw := geom.IdentitySE3()
	// Same camera twice: parallel rays.
	if _, ok := Triangulate(in, tcw, tcw, geom.Vec2{X: 300, Y: 200}, geom.Vec2{X: 300, Y: 200}); ok {
		t.Error("no-parallax triangulation accepted")
	}
}

func TestBAConvergesFromNoisyInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := camera.EuRoCIntrinsics()
	// Ground truth: 4 cameras viewing 60 shared points.
	var truthCams []geom.SE3
	for i := 0; i < 4; i++ {
		truthCams = append(truthCams, geom.SE3{
			R: geom.QuatFromAxisAngle(geom.Vec3{Y: 1}, 0.05*float64(i)),
			T: geom.Vec3{X: -0.3 * float64(i)},
		})
	}
	var truthPts []geom.Vec3
	for len(truthPts) < 60 {
		p := geom.Vec3{
			X: (rng.Float64() - 0.5) * 8,
			Y: (rng.Float64() - 0.5) * 5,
			Z: 4 + rng.Float64()*10,
		}
		vis := true
		for _, c := range truthCams {
			if _, ok := in.Project(c.Apply(p)); !ok {
				vis = false
				break
			}
		}
		if vis {
			truthPts = append(truthPts, p)
		}
	}
	prob := &BAProblem{Intr: in}
	prob.FixedCam = []bool{true, false, false, false}
	for i, c := range truthCams {
		if i == 0 {
			prob.Cams = append(prob.Cams, c)
		} else {
			prob.Cams = append(prob.Cams, perturbPose(c, 0.02, 0.05, rng))
		}
	}
	for _, p := range truthPts {
		prob.Points = append(prob.Points, p.Add(geom.Vec3{
			X: rng.NormFloat64() * 0.05,
			Y: rng.NormFloat64() * 0.05,
			Z: rng.NormFloat64() * 0.05,
		}))
	}
	for ci, c := range truthCams {
		for pi, p := range truthPts {
			px, _ := in.Project(c.Apply(p))
			prob.Obs = append(prob.Obs, Observation{
				Cam: ci, Pt: pi,
				UV: geom.Vec2{X: px.X + rng.NormFloat64()*0.4, Y: px.Y + rng.NormFloat64()*0.4},
			})
		}
	}
	res := prob.Solve(20)
	if res.FinalChi2 >= res.InitChi2 {
		t.Fatalf("BA did not reduce chi2: %v -> %v", res.InitChi2, res.FinalChi2)
	}
	for i := 1; i < 4; i++ {
		if d := prob.Cams[i].T.Dist(truthCams[i].T); d > 0.02 {
			t.Errorf("camera %d translation error %v m", i, d)
		}
		if a := prob.Cams[i].R.AngleTo(truthCams[i].R); a > 0.01 {
			t.Errorf("camera %d rotation error %v rad", i, a)
		}
	}
	// Points should be pulled near truth too.
	var worst float64
	for i := range truthPts {
		if d := prob.Points[i].Dist(truthPts[i]); d > worst {
			worst = d
		}
	}
	// Depth uncertainty of far points with a ~1 m camera span
	// legitimately reaches tens of cm; bound the worst case loosely.
	if worst > 1.0 {
		t.Errorf("worst point error %v m", worst)
	}
	// Fixed camera must not have moved.
	if prob.Cams[0].T.Dist(truthCams[0].T) > 0 || prob.Cams[0].R.AngleTo(truthCams[0].R) > 0 {
		t.Error("fixed camera moved")
	}
}

func TestBAEmptyProblem(t *testing.T) {
	prob := &BAProblem{Intr: camera.EuRoCIntrinsics()}
	res := prob.Solve(10)
	if res.Iterations != 0 || res.FinalChi2 != 0 {
		t.Errorf("empty problem did work: %+v", res)
	}
}

func TestBAMarksOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := camera.EuRoCIntrinsics()
	// Three cameras per point: with only two views a point can fit any
	// pixel pair exactly, so outliers need at least three observations
	// to be detectable.
	cams := []geom.SE3{
		geom.IdentitySE3(),
		{R: geom.IdentityQuat(), T: geom.Vec3{X: -0.4}},
		{R: geom.IdentityQuat(), T: geom.Vec3{X: -0.8}},
	}
	prob := &BAProblem{Intr: in, Cams: cams, FixedCam: []bool{true, false, false}}
	for i := 0; i < 40; i++ {
		p := geom.Vec3{X: (rng.Float64() - 0.5) * 4, Y: (rng.Float64() - 0.5) * 3, Z: 5 + rng.Float64()*5}
		prob.Points = append(prob.Points, p)
		for ci, c := range cams {
			px, ok := in.Project(c.Apply(p))
			if !ok {
				continue
			}
			uv := geom.Vec2{X: px.X, Y: px.Y}
			if i < 4 && ci == 1 {
				uv.X += 60 // gross outlier
			}
			prob.Obs = append(prob.Obs, Observation{Cam: ci, Pt: i, UV: uv})
		}
	}
	res := prob.Solve(15)
	nOut := 0
	for _, o := range res.Outliers {
		if o {
			nOut++
		}
	}
	if nOut < 3 {
		t.Errorf("only %d outliers flagged, want >= 3", nOut)
	}
}

func TestHuberWeight(t *testing.T) {
	if huberWeight(0.5) != 1 {
		t.Error("small residual should have unit weight")
	}
	w := huberWeight(10)
	if w >= 1 || math.Abs(w-HuberDelta/10) > 1e-12 {
		t.Errorf("large residual weight = %v", w)
	}
}

func TestApplySE3DeltaIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randPose(rng)
	q := applySE3Delta(p, [6]float64{})
	if q.T.Dist(p.T) > 1e-12 || q.R.AngleTo(p.R) > 1e-12 {
		t.Error("zero delta changed pose")
	}
}

// TestBAStereoResidualJacobian checks every row of the residual's
// analytic Jacobian — the right-image column included — against
// central differences.
func TestBAStereoResidualJacobian(t *testing.T) {
	in := camera.EuRoCIntrinsics()
	p := &BAProblem{Intr: in, Bf: in.Fx * 0.11}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		pc := geom.Vec3{X: rng.NormFloat64() * 2, Y: rng.NormFloat64(), Z: 1 + rng.Float64()*9}
		ob := &Observation{UV: geom.Vec2{X: 300, Y: 200}, Right: 290}
		if trial%5 == 0 {
			ob.Right = -1
		}
		_, j, n := p.residual(ob, pc)
		want := 3
		if ob.Right < 0 {
			want = 2
		}
		if n != want {
			t.Fatalf("rows = %d, want %d", n, want)
		}
		const h = 1e-6
		for c, d := range []geom.Vec3{{X: h}, {Y: h}, {Z: h}} {
			rp, _, _ := p.residual(ob, pc.Add(d))
			rm, _, _ := p.residual(ob, pc.Sub(d))
			for row := 0; row < n; row++ {
				num := (rp[row] - rm[row]) / (2 * h)
				if math.Abs(num-j[row][c]) > 1e-4*(1+math.Abs(num)) {
					t.Fatalf("trial %d: d r[%d] / d pc[%d] = %v, central difference %v", trial, row, c, j[row][c], num)
				}
			}
		}
	}
}

// TestBAStereoHoldsScale: shrinking every free camera and every point
// toward the one fixed camera leaves each reprojection where it was,
// so a monocular problem cannot tell — that is its gauge freedom, and
// the door a sliding local window loses scale through. The disparity
// term of a stereo problem can, and must pull the scene back to the
// metric scale the baseline defines.
func TestBAStereoHoldsScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := camera.EuRoCIntrinsics()
	const baseline, shrink = 0.11, 0.95
	var cams []geom.SE3 // truth, world-to-camera; cams[0] is the origin
	for i := 0; i < 4; i++ {
		cams = append(cams, geom.SE3{R: geom.QuatFromAxisAngle(geom.Vec3{Y: 1}, 0.03*float64(i)), T: geom.Vec3{X: -0.4 * float64(i), Z: -0.2 * float64(i)}})
	}
	var pts []geom.Vec3
	for len(pts) < 80 {
		p := geom.Vec3{X: (rng.Float64() - 0.5) * 6, Y: (rng.Float64() - 0.5) * 4, Z: 3 + rng.Float64()*6}
		vis := true
		for _, c := range cams {
			if _, ok := in.Project(c.Apply(p)); !ok {
				vis = false
			}
		}
		if vis {
			pts = append(pts, p)
		}
	}
	build := func(bf float64) *BAProblem {
		prob := &BAProblem{Intr: in, Bf: bf, FixedCam: []bool{true, false, false, false}}
		for _, c := range cams {
			// Scaling the world about camera 0 (the origin) scales
			// camera centres, i.e. T of a world-to-camera pose.
			prob.Cams = append(prob.Cams, geom.SE3{R: c.R, T: c.T.Scale(shrink)})
		}
		prob.Cams[0] = cams[0]
		for _, p := range pts {
			prob.Points = append(prob.Points, p.Scale(shrink))
		}
		for ci, c := range cams {
			for pi, p := range pts {
				pc := c.Apply(p)
				px, _ := in.Project(pc)
				u := px.X + rng.NormFloat64()*0.3
				prob.Obs = append(prob.Obs, Observation{
					Cam: ci, Pt: pi,
					UV:    geom.Vec2{X: u, Y: px.Y + rng.NormFloat64()*0.3},
					Right: px.X - in.Fx*baseline/pc.Z + rng.NormFloat64()*0.3,
				})
			}
		}
		return prob
	}
	scaleOf := func(prob *BAProblem) float64 { return prob.Cams[3].T.Norm() / cams[3].T.Norm() }

	mono := build(0)
	mono.Solve(20)
	if s := scaleOf(mono); math.Abs(s-shrink) > 0.01 {
		t.Errorf("monocular BA moved the scale to %.4f; the shrunk scene (%.2f) reprojects equally well, so this test's premise is off", s, shrink)
	}
	stereo := build(in.Fx * baseline)
	res := stereo.Solve(20)
	if s := scaleOf(stereo); math.Abs(s-1) > 0.005 {
		t.Errorf("stereo BA left the scale at %.4f, want 1 within 0.5%% (chi2 %.0f -> %.0f)", s, res.InitChi2, res.FinalChi2)
	}
	for i, out := range res.Outliers {
		if out {
			t.Fatalf("observation %d of a clean scene classified as an outlier", i)
		}
	}
}

// stereoWindow is a small stereo problem in camera-major observation
// order — the order Solve does not walk it in — from a noisy start.
func stereoWindow() *BAProblem {
	rng := rand.New(rand.NewSource(5))
	in := camera.EuRoCIntrinsics()
	prob := &BAProblem{Intr: in, Bf: in.Fx * 0.11, FixedCam: []bool{true, false, false, false, true}}
	var cams []geom.SE3
	for i := 0; i < 5; i++ {
		c := geom.SE3{R: geom.QuatFromAxisAngle(geom.Vec3{Y: 1}, 0.03*float64(i)), T: geom.Vec3{X: -0.4 * float64(i)}}
		cams = append(cams, c)
		if prob.FixedCam[i] {
			prob.Cams = append(prob.Cams, c)
		} else {
			prob.Cams = append(prob.Cams, perturbPose(c, 0.01, 0.03, rng))
		}
	}
	var pts []geom.Vec3
	for len(pts) < 40 {
		p := geom.Vec3{X: (rng.Float64() - 0.5) * 6, Y: (rng.Float64() - 0.5) * 4, Z: 3 + rng.Float64()*5}
		if _, ok := in.Project(cams[0].Apply(p)); !ok {
			continue
		}
		if _, ok := in.Project(cams[4].Apply(p)); !ok {
			continue
		}
		pts = append(pts, p)
		prob.Points = append(prob.Points, p.Add(geom.Vec3{X: rng.NormFloat64() * 0.03, Y: rng.NormFloat64() * 0.03, Z: rng.NormFloat64() * 0.03}))
	}
	for ci, c := range cams {
		for pi, p := range pts {
			pc := c.Apply(p)
			px, ok := in.Project(pc)
			if !ok {
				continue
			}
			prob.Obs = append(prob.Obs, Observation{
				Cam: ci, Pt: pi,
				UV:    geom.Vec2{X: px.X + rng.NormFloat64()*0.3, Y: px.Y + rng.NormFloat64()*0.3},
				Right: px.X - prob.Bf/pc.Z + rng.NormFloat64()*0.3,
			})
		}
	}
	return prob
}

// TestBASolveRepeatsBitForBit: Solve sums in an order the problem alone
// decides (DESIGN §4). Walking a Go map into the Schur complement made
// the last bits of every pose differ from run to run.
func TestBASolveRepeatsBitForBit(t *testing.T) {
	ref := stereoWindow()
	ref.Solve(10)
	for run := 0; run < 20; run++ {
		prob := stereoWindow()
		prob.Solve(10)
		for i := range prob.Cams {
			a, b := prob.Cams[i], ref.Cams[i]
			if a != b {
				t.Fatalf("run %d camera %d: %v, first run %v", run, i, a, b)
			}
		}
		for i := range prob.Points {
			if prob.Points[i] != ref.Points[i] {
				t.Fatalf("run %d point %d: %v, first run %v", run, i, prob.Points[i], ref.Points[i])
			}
		}
	}
}

// TestBASolveObservationOrder: listing the observations in another
// order changes the rounding of the sums, never the optimum. The
// optimum is only defined to about the square root of float precision:
// once converged, LM keeps accepting or rejecting steps on chi2
// differences in the last bits, and chi2 is flat to first order there —
// shuffles were measured 5e-15 to 2e-9 m apart, hence 1e-7.
func TestBASolveObservationOrder(t *testing.T) {
	ref := stereoWindow()
	ref.Solve(10)
	prob := stereoWindow()
	rand.New(rand.NewSource(6)).Shuffle(len(prob.Obs), func(i, j int) {
		prob.Obs[i], prob.Obs[j] = prob.Obs[j], prob.Obs[i]
	})
	prob.Solve(10)
	for i := range prob.Cams {
		if d := prob.Cams[i].T.Dist(ref.Cams[i].T); d > 1e-7 {
			t.Errorf("camera %d moved %g m with the observations shuffled", i, d)
		}
		if a := prob.Cams[i].R.AngleTo(ref.Cams[i].R); a > 1e-7 {
			t.Errorf("camera %d turned %g rad with the observations shuffled", i, a)
		}
	}
	for i := range prob.Points {
		if d := prob.Points[i].Dist(ref.Points[i]); d > 1e-7 {
			t.Errorf("point %d moved %g m with the observations shuffled", i, d)
		}
	}
}
