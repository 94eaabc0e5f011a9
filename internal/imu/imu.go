// Package imu models the inertial measurement unit carried by AR
// devices: a gyroscope/accelerometer sensor model with noise and bias,
// preintegration of a frame's samples, and the motion model of the
// paper's Algorithm 1 (ApproxPose_UpdateMM / Recv_SLAMPose), which
// bridges the gap between camera frames while the client waits for
// SLAM poses from the edge server. The motion model is the only dead
// reckoning: with no fixes it is pure IMU integration.
package imu

import (
	"math/rand"

	"slamshare/internal/geom"
)

// Gravity is the world-frame gravity vector (Z up).
var Gravity = geom.Vec3{X: 0, Y: 0, Z: -9.81}

// Sample is a single IMU reading in the body frame.
type Sample struct {
	T     float64   // timestamp, seconds
	Gyro  geom.Vec3 // angular rate, rad/s
	Accel geom.Vec3 // specific force, m/s^2 (includes gravity reaction)
}

// NoiseConfig parameterizes the sensor error model. Zero value means a
// perfect IMU.
type NoiseConfig struct {
	GyroNoise  float64 // white noise stddev per sample, rad/s
	AccelNoise float64 // white noise stddev per sample, m/s^2
	GyroBias   float64 // constant bias magnitude, rad/s
	AccelBias  float64 // constant bias magnitude, m/s^2
	BiasWalk   float64 // random-walk stddev per sample on both biases
}

// ConsumerGradeNoise mirrors a smartphone-class MEMS IMU, the device
// class the paper targets (drift of metres after tens of seconds when
// integrated alone, per [42] in the paper).
func ConsumerGradeNoise() NoiseConfig {
	return NoiseConfig{
		GyroNoise:  2e-3,
		AccelNoise: 2e-2,
		GyroBias:   4e-3,
		AccelBias:  3e-2,
		BiasWalk:   1e-5,
	}
}

// PoseSampler yields the ground-truth body-to-world pose at time t.
// Dataset trajectories implement it.
type PoseSampler interface {
	PoseAt(t float64) geom.SE3
}

// Simulate produces IMU samples at the given rate (Hz) over [t0, t1)
// from a ground-truth trajectory, applying the noise model. The
// derivative estimates use central differences on the trajectory.
func Simulate(traj PoseSampler, t0, t1, rateHz float64, cfg NoiseConfig, seed int64) []Sample {
	if rateHz <= 0 || t1 <= t0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	dt := 1 / rateHz
	n := int((t1 - t0) / dt)
	gBias := randomDir(rng).Scale(cfg.GyroBias)
	aBias := randomDir(rng).Scale(cfg.AccelBias)
	out := make([]Sample, 0, n)
	const h = 1e-3 // differentiation step, seconds
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*dt
		// Differentiate strictly inside [t0, t1]: trajectories may
		// clamp outside their domain, and a central difference across
		// the clamp boundary fabricates an enormous acceleration spike.
		ts := geom.Clamp(t, t0+h, t1-h)
		pose := traj.PoseAt(ts)
		// Angular velocity in the body frame from quaternion finite
		// differences: omega = log(q(t)^-1 q(t+h)) / h.
		qNext := traj.PoseAt(ts + h).R
		omega := pose.R.Conj().Mul(qNext).RotVec().Scale(1 / h)
		// World-frame linear acceleration from central differences.
		pPrev := traj.PoseAt(ts - h).T
		pNext := traj.PoseAt(ts + h).T
		aWorld := pNext.Add(pPrev).Sub(pose.T.Scale(2)).Scale(1 / (h * h))
		// Specific force measured in the body frame.
		f := pose.R.Conj().Rotate(aWorld.Sub(Gravity))

		gBias = gBias.Add(randomVec(rng).Scale(cfg.BiasWalk))
		aBias = aBias.Add(randomVec(rng).Scale(cfg.BiasWalk))
		out = append(out, Sample{
			T:     t,
			Gyro:  omega.Add(gBias).Add(randomVec(rng).Scale(cfg.GyroNoise)),
			Accel: f.Add(aBias).Add(randomVec(rng).Scale(cfg.AccelNoise)),
		})
	}
	return out
}

func randomVec(rng *rand.Rand) geom.Vec3 {
	return geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
}

func randomDir(rng *rand.Rand) geom.Vec3 {
	for {
		v := randomVec(rng)
		if n := v.Norm(); n > 1e-6 {
			return v.Scale(1 / n)
		}
	}
}

// Preintegrate accumulates the rotation, velocity and position deltas
// of a sample span in the frame of the first sample — the quantity the
// client ships alongside frames so the server-side tracker can fuse
// vision with inertial constraints.
type Preintegrated struct {
	DT   float64
	DRot geom.Quat // body rotation over the span
	DVel geom.Vec3 // velocity change in the initial body frame (gravity-free)
	DPos geom.Vec3 // position change in the initial body frame (gravity-free)
}

// Preintegrate integrates samples[i..j) into a relative motion packet.
func Preintegrate(samples []Sample) Preintegrated {
	p := Preintegrated{DRot: geom.IdentityQuat()}
	for i := 0; i < len(samples); i++ {
		var dt float64
		if i+1 < len(samples) {
			dt = samples[i+1].T - samples[i].T
		} else if i > 0 {
			dt = samples[i].T - samples[i-1].T
		}
		if dt <= 0 {
			continue
		}
		a := p.DRot.Rotate(samples[i].Accel)
		p.DPos = p.DPos.Add(p.DVel.Scale(dt)).Add(a.Scale(dt * dt / 2))
		p.DVel = p.DVel.Add(a.Scale(dt))
		p.DRot = p.DRot.Mul(geom.QuatFromRotVec(samples[i].Gyro.Scale(dt))).Normalized()
		p.DT += dt
	}
	return p
}
