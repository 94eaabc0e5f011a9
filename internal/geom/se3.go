package geom

import "fmt"

// SE3 is a rigid-body transform (rotation followed by translation):
// p' = R*p + T. In SLAM it represents both camera poses (world-to-
// camera) and their inverses (camera-to-world), depending on context.
type SE3 struct {
	R Quat
	T Vec3
}

// IdentitySE3 returns the identity transform.
func IdentitySE3() SE3 { return SE3{R: IdentityQuat()} }

// Apply transforms point p.
func (s SE3) Apply(p Vec3) Vec3 { return s.R.Rotate(p).Add(s.T) }

// Compose returns the transform equivalent to applying t first,
// then s: (s*t)(p) = s(t(p)).
func (s SE3) Compose(t SE3) SE3 {
	return SE3{
		R: s.R.Mul(t.R).Normalized(),
		T: s.R.Rotate(t.T).Add(s.T),
	}
}

// Inverse returns the inverse transform.
func (s SE3) Inverse() SE3 {
	ri := s.R.Conj()
	return SE3{R: ri, T: ri.Rotate(s.T).Neg()}
}

// Mat4 returns the homogeneous 4x4 matrix of the transform — the
// representation the paper's server returns to clients.
func (s SE3) Mat4() Mat4 {
	r := s.R.Mat()
	return Mat4{
		r[0], r[1], r[2], s.T.X,
		r[3], r[4], r[5], s.T.Y,
		r[6], r[7], r[8], s.T.Z,
		0, 0, 0, 1,
	}
}

// SE3FromMat4 extracts the rigid transform from a homogeneous matrix.
// The upper-left 3x3 block must be a rotation.
func SE3FromMat4(m Mat4) SE3 {
	r := Mat3{
		m[0], m[1], m[2],
		m[4], m[5], m[6],
		m[8], m[9], m[10],
	}
	return SE3{R: QuatFromMat(r), T: Vec3{m[3], m[7], m[11]}}
}

// Delta returns the transform d such that d.Compose(s) == t, i.e. the
// relative motion from s to t expressed in the common outer frame.
func (s SE3) Delta(t SE3) SE3 { return t.Compose(s.Inverse()) }

func (s SE3) String() string {
	return fmt.Sprintf("SE3{R:(%.4f,%.4f,%.4f,%.4f) T:(%.4f,%.4f,%.4f)}",
		s.R.W, s.R.X, s.R.Y, s.R.Z, s.T.X, s.T.Y, s.T.Z)
}

// Sim3 is a similarity transform p' = s*R*p + T. Map merging between
// monocular clients aligns maps up to scale, which Sim3 captures.
type Sim3 struct {
	S float64
	R Quat
	T Vec3
}

// IdentitySim3 returns the identity similarity.
func IdentitySim3() Sim3 { return Sim3{S: 1, R: IdentityQuat()} }

// Apply transforms point p.
func (s Sim3) Apply(p Vec3) Vec3 { return s.R.Rotate(p).Scale(s.S).Add(s.T) }

// Compose returns the similarity equivalent to applying t first, then s.
func (s Sim3) Compose(t Sim3) Sim3 {
	return Sim3{
		S: s.S * t.S,
		R: s.R.Mul(t.R).Normalized(),
		T: s.R.Rotate(t.T).Scale(s.S).Add(s.T),
	}
}

// Inverse returns the inverse similarity.
func (s Sim3) Inverse() Sim3 {
	ri := s.R.Conj()
	si := 1 / s.S
	return Sim3{S: si, R: ri, T: ri.Rotate(s.T).Scale(-si)}
}

// SE3 drops the scale component (valid when S is approximately 1, the
// stereo / inertial case where scale is observable).
func (s Sim3) SE3() SE3 { return SE3{R: s.R, T: s.T} }

// Sim3FromSE3 lifts a rigid transform into a similarity with unit scale.
func Sim3FromSE3(t SE3) Sim3 { return Sim3{S: 1, R: t.R, T: t.T} }

// ApplyPose maps a camera-to-world pose through the similarity: the
// rotated/translated/scaled pose a keyframe assumes after its map is
// merged into another map's coordinate frame.
func (s Sim3) ApplyPose(p SE3) SE3 {
	return SE3{
		R: s.R.Mul(p.R).Normalized(),
		T: s.R.Rotate(p.T).Scale(s.S).Add(s.T),
	}
}
