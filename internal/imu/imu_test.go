package imu

import (
	"math"
	"math/rand"
	"testing"

	"slamshare/internal/geom"
)

// circleTraj is a body moving on a horizontal circle of radius r at
// angular rate w, yawing to face the direction of travel.
type circleTraj struct {
	r, w float64
}

func (c circleTraj) PoseAt(t float64) geom.SE3 {
	a := c.w * t
	pos := geom.Vec3{X: c.r * math.Cos(a), Y: c.r * math.Sin(a), Z: 1.5}
	yaw := geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, a+math.Pi/2)
	return geom.SE3{R: yaw, T: pos}
}

// staticTraj stays put (hover).
type staticTraj struct{}

func (staticTraj) PoseAt(t float64) geom.SE3 {
	return geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 1, Y: 2, Z: 3}}
}

func TestSimulateSampleCountAndTiming(t *testing.T) {
	s := Simulate(circleTraj{2, 0.5}, 0, 2, 200, NoiseConfig{}, 1)
	if len(s) != 400 {
		t.Fatalf("got %d samples, want 400", len(s))
	}
	for i := 1; i < len(s); i++ {
		dt := s[i].T - s[i-1].T
		if math.Abs(dt-0.005) > 1e-9 {
			t.Fatalf("irregular dt %v at %d", dt, i)
		}
	}
	if Simulate(circleTraj{2, 0.5}, 0, 2, 0, NoiseConfig{}, 1) != nil {
		t.Error("zero rate should return nil")
	}
	if Simulate(circleTraj{2, 0.5}, 2, 1, 100, NoiseConfig{}, 1) != nil {
		t.Error("inverted interval should return nil")
	}
}

func TestStaticBodyMeasuresGravity(t *testing.T) {
	s := Simulate(staticTraj{}, 0, 1, 100, NoiseConfig{}, 1)
	for _, smp := range s {
		// A static, level body measures +g upward as specific force.
		if smp.Accel.Sub(geom.Vec3{Z: 9.81}).Norm() > 1e-3 {
			t.Fatalf("static accel = %v", smp.Accel)
		}
		if smp.Gyro.Norm() > 1e-6 {
			t.Fatalf("static gyro = %v", smp.Gyro)
		}
	}
}

// deadReckonRMS runs the motion model with no fixes — Alg. 1 dead
// reckoning, what a shadow-mode device relies on — over samples in
// frames of per samples, seeded from the true pose and velocity, and
// returns the RMS position error against the trajectory.
func deadReckonRMS(traj circleTraj, samples []Sample, per int) float64 {
	mm := NewMotionModel(traj.PoseAt(0), traj.vel(0))
	var sum float64
	n := len(samples) / per
	for f := 1; f < n; f++ {
		p := mm.ApproxPoseUpdateMM(FrameDeltaFrom(Preintegrate(samples[(f-1)*per : f*per])))
		d := p.T.Dist(traj.PoseAt(samples[f*per].T).T)
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// vel is the circle's world-frame velocity at time t.
func (c circleTraj) vel(t float64) geom.Vec3 {
	a := c.w * t
	return geom.Vec3{X: -c.r * c.w * math.Sin(a), Y: c.r * c.w * math.Cos(a)}
}

func TestNoisyIMUDrifts(t *testing.T) {
	traj := circleTraj{r: 2, w: 0.5}
	noisy := Simulate(traj, 0, 10, 200, ConsumerGradeNoise(), 7)
	clean := Simulate(traj, 0, 10, 200, NoiseConfig{}, 7)
	driftNoisy := deadReckonRMS(traj, noisy, 10)
	driftClean := deadReckonRMS(traj, clean, 10)
	if driftNoisy < driftClean {
		t.Errorf("noise should not reduce drift: %v vs %v", driftNoisy, driftClean)
	}
	// The paper cites ~3 m error after 10 s of IMU-only tracking [42];
	// consumer-grade noise must produce at least tens of cm.
	if driftNoisy < 0.1 {
		t.Errorf("consumer-grade drift unrealistically low: %v m", driftNoisy)
	}
}

func TestPreintegrateIdentityOnEmpty(t *testing.T) {
	p := Preintegrate(nil)
	if p.DT != 0 || p.DPos.Norm() != 0 || p.DVel.Norm() != 0 {
		t.Errorf("empty preintegration = %+v", p)
	}
	if p.DRot.AngleTo(geom.IdentityQuat()) > 1e-12 {
		t.Error("empty preintegration rotated")
	}
}

func TestMotionModelPredictsCircle(t *testing.T) {
	traj := circleTraj{r: 2, w: 0.8}
	const fps = 30.0
	const imuRate = 390.0
	samples := Simulate(traj, 0, 2, imuRate, NoiseConfig{}, 3)
	v0 := geom.Vec3{X: 0, Y: 2 * 0.8, Z: 0}
	mm := NewMotionModel(traj.PoseAt(0), v0)
	per := int(imuRate) / int(fps)
	nFrames := len(samples) / per
	for f := 1; f < nFrames; f++ {
		span := samples[(f-1)*per : f*per]
		mm.ApproxPoseUpdateMM(FrameDeltaFrom(Preintegrate(span)))
	}
	// Without any server correction the model should still follow a
	// noise-free IMU closely over 2 seconds.
	last := mm.Latest()
	tEnd := float64(nFrames-1) / fps
	if e := last.T.Dist(traj.PoseAt(tEnd).T); e > 0.1 {
		t.Errorf("motion model error after 2 s = %v m", e)
	}
}

func TestMotionModelRecvSLAMPoseCorrects(t *testing.T) {
	traj := circleTraj{r: 2, w: 0.8}
	const fps = 30.0
	const imuRate = 390.0
	samples := Simulate(traj, 0, 3, imuRate, ConsumerGradeNoise(), 5)
	v0 := geom.Vec3{X: 0, Y: 2 * 0.8, Z: 0}

	run := func(correct bool) float64 {
		mm := NewMotionModel(traj.PoseAt(0), v0)
		per := int(imuRate) / int(fps)
		nFrames := len(samples) / per
		for f := 1; f < nFrames; f++ {
			span := samples[(f-1)*per : f*per]
			mm.ApproxPoseUpdateMM(FrameDeltaFrom(Preintegrate(span)))
			if correct && f >= 3 {
				// Server pose for frame f-3 arrives (simulated RTT of
				// 3 frame times).
				idx := f - 3
				mm.RecvSLAMPose(traj.PoseAt(float64(idx)/fps), idx)
			}
		}
		last := mm.Latest()
		return last.T.Dist(traj.PoseAt(float64(nFrames-1) / fps).T)
	}

	errFree := run(false)
	errCorrected := run(true)
	if errCorrected >= errFree {
		t.Errorf("server corrections should reduce drift: corrected %v vs free %v", errCorrected, errFree)
	}
	if errCorrected > 0.5 {
		t.Errorf("corrected error too high: %v m", errCorrected)
	}
}

func TestMotionModelIgnoresBadIndex(t *testing.T) {
	mm := NewMotionModel(geom.IdentitySE3(), geom.Vec3{})
	before := mm.Latest()
	mm.RecvSLAMPose(geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 100}}, 42)
	mm.RecvSLAMPose(geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 100}}, -1)
	if mm.Latest() != before {
		t.Error("out-of-range SLAM index modified state")
	}
}

func TestMotionModelPoseOf(t *testing.T) {
	mm := NewMotionModel(geom.IdentitySE3(), geom.Vec3{})
	if _, ok := mm.PoseOf(1); ok {
		t.Error("PoseOf(1) should not exist yet")
	}
	mm.ApproxPoseUpdateMM(FrameDelta{RotDelta: geom.IdentityQuat(), DT: 1.0 / 30})
	if _, ok := mm.PoseOf(1); !ok {
		t.Error("PoseOf(1) should exist after one update")
	}
	if mm.Len() != 2 {
		t.Errorf("Len = %d", mm.Len())
	}
}

func TestMotionModelConcurrentAccess(t *testing.T) {
	mm := NewMotionModel(geom.IdentitySE3(), geom.Vec3{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			mm.ApproxPoseUpdateMM(FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.03})
		}
	}()
	for i := 0; i < 1000; i++ {
		mm.RecvSLAMPose(geom.IdentitySE3(), i%10)
		mm.Latest()
	}
	<-done
}

func TestFrameDeltaFrom(t *testing.T) {
	p := Preintegrated{DT: 0.033, DPos: geom.Vec3{X: 1}, DVel: geom.Vec3{Y: 2}, DRot: geom.IdentityQuat()}
	d := FrameDeltaFrom(p)
	if d.DT != p.DT || d.PosDelta != p.DPos || d.VelDelta != p.DVel {
		t.Errorf("FrameDeltaFrom mismatch: %+v", d)
	}
}

// TestVelocityFitBoundsNoisyFixes feeds a fix for every frame of a
// 30 FPS camera at stride 2, each off the true pose by 1 mm of seeded
// noise, and bounds the error of the velocity each fix leaves behind,
// read off the next prediction: what it adds to the fix beyond the true
// displacement, per second. A two-fix difference over one 66.7 ms step
// reads 5.7 cm/s here; the windowed fit, over twelve steps, 1.6 cm/s.
func TestVelocityFitBoundsNoisyFixes(t *testing.T) {
	traj := circleTraj{r: 2, w: 0.8}
	const dt = 2.0 / 30
	const per = 26 // 390 Hz IMU samples per frame
	samples := Simulate(traj, 0, 6, per/dt, ConsumerGradeNoise(), 11)
	rng := rand.New(rand.NewSource(3))
	mm := NewMotionModel(traj.PoseAt(0), traj.vel(0))
	var fix geom.SE3
	var sum float64
	var n int
	for f := 1; f*per <= len(samples); f++ {
		prior := mm.ApproxPoseUpdateMM(FrameDeltaFrom(Preintegrate(samples[(f-1)*per : f*per])))
		truth, prev := traj.PoseAt(float64(f)*dt), traj.PoseAt(float64(f-1)*dt)
		if f > 12 {
			e := prior.T.Sub(fix.T).Sub(truth.T.Sub(prev.T)).Norm() / dt
			sum += e * e
			n++
		}
		fix = truth
		fix.T = fix.T.Add(geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Scale(1e-3))
		mm.RecvSLAMPose(fix, f)
	}
	if rms := math.Sqrt(sum / float64(n)); rms > 0.025 {
		t.Errorf("velocity RMS error %.4f m/s over %d noisy fixes, want ≤ 0.025", rms, n)
	}
}

// TestMotionModelBounded runs a day-long session's worth of frames
// through one model: the kept entries stay within twice the window,
// Len still counts every frame, and a fix older than the window is
// ignored while one inside it lands.
func TestMotionModelBounded(t *testing.T) {
	mm := NewMotionModel(geom.IdentitySE3(), geom.Vec3{})
	d := FrameDelta{RotDelta: geom.IdentityQuat(), VelDelta: geom.Vec3{Z: 9.81 / 30}, DT: 1.0 / 30}
	const n = 100000
	for i := 0; i < n; i++ {
		mm.ApproxPoseUpdateMM(d)
	}
	if kept := len(mm.poses); kept > 2*Window || len(mm.deltas) != kept || len(mm.vel) != kept {
		t.Errorf("kept %d poses, %d deltas, %d velocities; want equal and ≤ %d", kept, len(mm.deltas), len(mm.vel), 2*Window)
	}
	if mm.Len() != n+1 {
		t.Errorf("Len = %d, want %d", mm.Len(), n+1)
	}
	before := mm.Latest()
	far := geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 100}}
	if mm.RecvSLAMPose(far, mm.Len()-2*Window-1) != before {
		t.Error("a fix older than the window moved the model")
	}
	if _, ok := mm.PoseOf(mm.Len() - Window); !ok {
		t.Error("a frame inside the window is no longer kept")
	}
	if got := mm.RecvSLAMPose(far, mm.Len()-Window); got.T.X < 50 {
		t.Errorf("a fix inside the window did not land: latest %v", got.T)
	}
}

// TestTransformMovesWholeModel checks that moving the model into
// another frame and then fixing it there gives the moved result of
// fixing it in the old one: poses and velocities are all carried, so
// the fit never spans the frame change.
func TestTransformMovesWholeModel(t *testing.T) {
	traj := circleTraj{r: 2, w: 0.8}
	const per = 13
	samples := Simulate(traj, 0, 1, 390, NoiseConfig{}, 2)
	tf := geom.Sim3{S: 1, R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.7), T: geom.Vec3{X: 3, Y: -1, Z: 0.5}}
	a := NewMotionModel(traj.PoseAt(0), traj.vel(0))
	b := NewMotionModel(traj.PoseAt(0), traj.vel(0))
	var last int
	for f := 1; f*per <= len(samples); f++ {
		d := FrameDeltaFrom(Preintegrate(samples[(f-1)*per : f*per]))
		a.ApproxPoseUpdateMM(d)
		b.ApproxPoseUpdateMM(d)
		last = f
	}
	b.Transform(tf)
	fix := traj.PoseAt(float64(last) / 30)
	fix.T = fix.T.Add(geom.Vec3{X: 0.01})
	a.RecvSLAMPose(fix, last)
	b.RecvSLAMPose(tf.ApplyPose(fix), last)
	for i := range a.poses {
		if e := tf.ApplyPose(a.poses[i]).T.Dist(b.poses[i].T); e > 1e-9 {
			t.Fatalf("entry %d: transformed poses differ by %v m", i, e)
		}
		if e := tf.R.Rotate(a.vel[i]).Dist(b.vel[i]); e > 1e-9 {
			t.Fatalf("entry %d: transformed velocities differ by %v m/s", i, e)
		}
	}
}
