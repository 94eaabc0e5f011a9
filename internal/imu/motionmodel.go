package imu

import (
	"sync"

	"slamshare/internal/geom"
)

// FrameDelta is the IMU-derived relative motion between two consecutive
// camera frames (the C_IMU argument of the paper's Algorithm 1): the
// body rotation, position and velocity increments integrated from the
// raw samples captured between the frames.
type FrameDelta struct {
	RotDelta geom.Quat // body-frame rotation between frames
	PosDelta geom.Vec3 // body-frame position increment (gravity-free)
	VelDelta geom.Vec3 // body-frame velocity increment (gravity-free)
	DT       float64   // elapsed time, seconds
}

// FrameDeltaFrom converts a preintegrated sample span into a frame
// delta.
func FrameDeltaFrom(p Preintegrated) FrameDelta {
	return FrameDelta{RotDelta: p.DRot, PosDelta: p.DPos, VelDelta: p.DVel, DT: p.DT}
}

// velFitSpan is how many entries back RecvSLAMPose's velocity fit
// reaches (k). One entry is the two-fix difference, which turns a 1 mm
// pose error into a 1.5 cm/s velocity error at 15 Hz; twelve spread it
// over 0.8 s there. Longer spans let accelerometer bias in. Chosen on
// Table 2 and Fig. 12 (EXPERIMENTS.md).
const velFitSpan = 12

// Window is how many of the most recent frames a MotionModel keeps: a
// fix for an older frame is ignored. It covers a full uplink window of
// frames in flight (protocol.UplinkWindow, 64) plus the velocity fit's
// span behind the oldest of them.
const Window = 64 + velFitSpan

// MotionModel implements the paper's Algorithm 1 ("Pose Computation
// with IMU Model"). The client calls ApproxPoseUpdateMM for every
// captured frame to predict its pose from the previous frame's motion
// model and the IMU increments; when the server's SLAM pose for an
// older frame arrives, RecvSLAMPose rewinds to that frame and replays
// the stored IMU increments forward, correcting every later pose —
// exactly lines 10–15 of Alg. 1.
//
// Frames are numbered from 0 (the anchor) for the life of the model,
// but only the last Window of them are sure to be kept: when the
// slices reach twice that, the oldest half goes.
//
// MotionModel is safe for concurrent use: the client's camera loop and
// the network receive loop touch it from different goroutines.
type MotionModel struct {
	mu     sync.Mutex
	base   int          // frame number of poses[0]
	poses  []geom.SE3   // poses[i]: best known body-to-world pose of frame base+i
	deltas []FrameDelta // deltas[i]: IMU motion from frame base+i-1 to frame base+i
	vel    []geom.Vec3  // world-frame velocity estimate per frame
}

// NewMotionModel returns a motion model anchored at the initial pose
// (frame 0) with the given initial world-frame velocity.
func NewMotionModel(initial geom.SE3, vel0 geom.Vec3) *MotionModel {
	return &MotionModel{
		poses:  []geom.SE3{initial},
		deltas: []FrameDelta{{RotDelta: geom.IdentityQuat()}},
		vel:    []geom.Vec3{vel0},
	}
}

// Len returns the number of frames the model has seen, kept or not.
func (m *MotionModel) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base + len(m.poses)
}

// ApproxPoseUpdateMM predicts and stores the pose of the next frame
// from the previous frame's motion model and the IMU increments
// captured since (Alg. 1, lines 1–9). It returns the predicted pose.
func (m *MotionModel) ApproxPoseUpdateMM(d FrameDelta) geom.SE3 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := len(m.poses) - 1
	pose := advance(m.poses[i], m.vel[i], d)
	m.poses = append(m.poses, pose)
	m.deltas = append(m.deltas, d)
	m.vel = append(m.vel, nextVel(m.poses[i], m.vel[i], d))
	if len(m.poses) >= 2*Window {
		m.poses = append(m.poses[:0], m.poses[Window:]...)
		m.deltas = append(m.deltas[:0], m.deltas[Window:]...)
		m.vel = append(m.vel[:0], m.vel[Window:]...)
		m.base += Window
	}
	return pose
}

// advance composes the previous pose with the IMU increments: rotation
// via the gyro delta, translation via the velocity + accel increments
// plus gravity (Alg. 1 lines 3–7).
func advance(prev geom.SE3, vel geom.Vec3, d FrameDelta) geom.SE3 {
	r := prev.R.Mul(d.RotDelta).Normalized()
	t := prev.T.
		Add(vel.Scale(d.DT)).
		Add(prev.R.Rotate(d.PosDelta)).
		Add(Gravity.Scale(d.DT * d.DT / 2))
	return geom.SE3{R: r, T: t}
}

func nextVel(prev geom.SE3, vel geom.Vec3, d FrameDelta) geom.Vec3 {
	return vel.Add(prev.R.Rotate(d.VelDelta)).Add(Gravity.Scale(d.DT))
}

// RecvSLAMPose installs the authoritative SLAM pose computed by the
// edge server for frame slamIndex and replays the stored IMU deltas
// forward so every subsequent pose is corrected (Alg. 1, lines 10–15).
// Indices out of range or no longer kept are ignored. Returns the
// corrected latest pose.
func (m *MotionModel) RecvSLAMPose(pose geom.SE3, slamIndex int) geom.SE3 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slamIndex - m.base
	if i < 0 || i >= len(m.poses) {
		return m.poses[len(m.poses)-1]
	}
	// The paper solves a small optimization minimizing the residual
	// between the IMU pose and the SLAM pose; for the pose itself the
	// SLAM estimate dominates (vision beats integrated inertial data),
	// so the closed form is to adopt it, fit the velocity, and
	// re-propagate.
	m.poses[i] = pose
	m.fitVelocity(i)
	for j := i + 1; j < len(m.poses); j++ {
		m.vel[j] = nextVel(m.poses[j-1], m.vel[j-1], m.deltas[j])
		m.poses[j] = advance(m.poses[j-1], m.vel[j-1], m.deltas[j])
	}
	return m.poses[len(m.poses)-1]
}

// fitVelocity sets the velocity at entry i to the one the IMU deltas
// agree with between entry i and the entry velFitSpan back (or the
// oldest kept): integrated from there with zero start velocity, the
// deltas leave a residual displacement, which over the elapsed time is
// the velocity at the older entry; the integrated velocity increment
// carries it to i. IMU integration alone accumulates accelerometer-bias
// drift in the velocity; this is the vision constraint that removes it.
func (m *MotionModel) fitVelocity(i int) {
	a := max(i-velFitSpan, 0)
	p, v := m.poses[a], geom.Vec3{}
	var elapsed float64
	for j := a + 1; j <= i; j++ {
		p, v = advance(p, v, m.deltas[j]), nextVel(p, v, m.deltas[j])
		elapsed += m.deltas[j].DT
	}
	if elapsed > 0 {
		m.vel[i] = m.poses[i].T.Sub(p.T).Scale(1 / elapsed).Add(v)
	}
}

// Transform moves the model into another coordinate frame — a map
// merge's alignment, or a client's displaced origin: every kept pose
// is mapped through s, and every velocity rotated and scaled with it.
// The IMU deltas are body-frame and stay as they are.
func (m *MotionModel) Transform(s geom.Sim3) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.poses {
		m.poses[i] = s.ApplyPose(m.poses[i])
		m.vel[i] = s.R.Rotate(m.vel[i]).Scale(s.S)
	}
}

// PoseOf returns the best known pose for frame i, if it is still kept.
func (m *MotionModel) PoseOf(i int) (geom.SE3, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i -= m.base
	if i < 0 || i >= len(m.poses) {
		return geom.SE3{}, false
	}
	return m.poses[i], true
}

// Latest returns the most recent pose estimate.
func (m *MotionModel) Latest() geom.SE3 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.poses[len(m.poses)-1]
}
