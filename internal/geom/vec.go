// Package geom provides the small fixed-size linear algebra used
// throughout the SLAM pipeline: 2- and 3-vectors, 3x3 and 4x4 matrices,
// quaternions, rigid-body transforms (SE3), similarity transforms
// (Sim3), and the dense solvers (Cholesky, Jacobi eigendecomposition)
// needed by pose optimization, bundle adjustment and Horn alignment.
//
// All types are plain value types with no hidden allocation so they can
// be copied freely between the goroutines that share the global map.
package geom

import "math"

// Vec2 is a 2D vector, used for pixel coordinates and image-plane
// measurements.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the inner product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// NormSq returns the squared Euclidean length of v.
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Vec3 is a 3D vector, used for positions, velocities, angular rates
// and translation components.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v x w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.NormSq()) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.X*v.X + v.Y*v.Y + v.Z*v.Z }

// Normalized returns v scaled to unit length. The zero vector is
// returned unchanged.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Hat returns the skew-symmetric matrix [v]_x such that
// Hat(v)*w == v.Cross(w).
func (v Vec3) Hat() Mat3 {
	return Mat3{
		0, -v.Z, v.Y,
		v.Z, 0, -v.X,
		-v.Y, v.X, 0,
	}
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return v.Add(w.Sub(v).Scale(t))
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}
