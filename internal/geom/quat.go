package geom

import "math"

// Quat is a unit quaternion representing a 3D rotation, stored as
// (W, X, Y, Z) with W the scalar part.
type Quat struct {
	W, X, Y, Z float64
}

// IdentityQuat returns the identity rotation.
func IdentityQuat() Quat { return Quat{W: 1} }

// QuatFromAxisAngle returns the rotation of angle radians about the
// given axis. The axis need not be normalized; a zero axis yields the
// identity rotation.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	n := axis.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	s := math.Sin(angle/2) / n
	return Quat{
		W: math.Cos(angle / 2),
		X: axis.X * s,
		Y: axis.Y * s,
		Z: axis.Z * s,
	}
}

// QuatFromRotVec returns the rotation encoded by the rotation vector
// w (axis * angle), i.e. the exponential map of so(3).
func QuatFromRotVec(w Vec3) Quat {
	angle := w.Norm()
	if angle < 1e-12 {
		// First-order expansion keeps the map smooth near zero.
		q := Quat{W: 1, X: w.X / 2, Y: w.Y / 2, Z: w.Z / 2}
		return q.Normalized()
	}
	return QuatFromAxisAngle(w, angle)
}

// RotVec returns the rotation vector (axis * angle) of q, the
// logarithmic map into so(3).
func (q Quat) RotVec() Vec3 {
	qq := q
	if qq.W < 0 { // keep the short rotation
		qq = Quat{-qq.W, -qq.X, -qq.Y, -qq.Z}
	}
	vn := math.Sqrt(qq.X*qq.X + qq.Y*qq.Y + qq.Z*qq.Z)
	if vn < 1e-12 {
		return Vec3{2 * qq.X, 2 * qq.Y, 2 * qq.Z}
	}
	angle := 2 * math.Atan2(vn, qq.W)
	s := angle / vn
	return Vec3{qq.X * s, qq.Y * s, qq.Z * s}
}

// Mul returns the Hamilton product q*r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Norm returns the quaternion norm.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit norm. A zero quaternion becomes
// the identity.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation to v.
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = v + 2*u x (u x v + w*v), u = (X,Y,Z)
	u := Vec3{q.X, q.Y, q.Z}
	t := u.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(u.Cross(t))
}

// Mat returns the 3x3 rotation matrix of q.
func (q Quat) Mat() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y),
		2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x),
		2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y),
	}
}

// QuatFromMat converts a rotation matrix to a unit quaternion using
// Shepperd's method (numerically stable branch selection).
func QuatFromMat(m Mat3) Quat {
	tr := m.Trace()
	var q Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = Quat{
			W: s / 4,
			X: (m.At(2, 1) - m.At(1, 2)) / s,
			Y: (m.At(0, 2) - m.At(2, 0)) / s,
			Z: (m.At(1, 0) - m.At(0, 1)) / s,
		}
	case m.At(0, 0) > m.At(1, 1) && m.At(0, 0) > m.At(2, 2):
		s := math.Sqrt(1+m.At(0, 0)-m.At(1, 1)-m.At(2, 2)) * 2
		q = Quat{
			W: (m.At(2, 1) - m.At(1, 2)) / s,
			X: s / 4,
			Y: (m.At(0, 1) + m.At(1, 0)) / s,
			Z: (m.At(0, 2) + m.At(2, 0)) / s,
		}
	case m.At(1, 1) > m.At(2, 2):
		s := math.Sqrt(1+m.At(1, 1)-m.At(0, 0)-m.At(2, 2)) * 2
		q = Quat{
			W: (m.At(0, 2) - m.At(2, 0)) / s,
			X: (m.At(0, 1) + m.At(1, 0)) / s,
			Y: s / 4,
			Z: (m.At(1, 2) + m.At(2, 1)) / s,
		}
	default:
		s := math.Sqrt(1+m.At(2, 2)-m.At(0, 0)-m.At(1, 1)) * 2
		q = Quat{
			W: (m.At(1, 0) - m.At(0, 1)) / s,
			X: (m.At(0, 2) + m.At(2, 0)) / s,
			Y: (m.At(1, 2) + m.At(2, 1)) / s,
			Z: s / 4,
		}
	}
	return q.Normalized()
}

// AngleTo returns the absolute rotation angle in radians between q and r.
func (q Quat) AngleTo(r Quat) float64 {
	d := q.Conj().Mul(r)
	return d.RotVec().Norm()
}
