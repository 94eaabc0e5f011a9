package geom

import "math"

// Mat3 is a row-major 3x3 matrix.
type Mat3 [9]float64

// At returns element (r, c).
func (m Mat3) At(r, c int) float64 { return m[3*r+c] }

// Mul returns the matrix product m*n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var out Mat3
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[3*r+k] * n[3*k+c]
			}
			out[3*r+c] = s
		}
	}
	return out
}

// Add returns m + n elementwise.
func (m Mat3) Add(n Mat3) Mat3 {
	var out Mat3
	for i := range m {
		out[i] = m[i] + n[i]
	}
	return out
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0]*(m[4]*m[8]-m[5]*m[7]) -
		m[1]*(m[3]*m[8]-m[5]*m[6]) +
		m[2]*(m[3]*m[7]-m[4]*m[6])
}

// Trace returns the sum of the diagonal elements.
func (m Mat3) Trace() float64 { return m[0] + m[4] + m[8] }

// Inverse returns the matrix inverse and whether it exists (the
// determinant is not numerically zero).
func (m Mat3) Inverse() (Mat3, bool) {
	d := m.Det()
	if math.Abs(d) < 1e-300 {
		return Mat3{}, false
	}
	inv := 1 / d
	return Mat3{
		(m[4]*m[8] - m[5]*m[7]) * inv,
		(m[2]*m[7] - m[1]*m[8]) * inv,
		(m[1]*m[5] - m[2]*m[4]) * inv,
		(m[5]*m[6] - m[3]*m[8]) * inv,
		(m[0]*m[8] - m[2]*m[6]) * inv,
		(m[2]*m[3] - m[0]*m[5]) * inv,
		(m[3]*m[7] - m[4]*m[6]) * inv,
		(m[1]*m[6] - m[0]*m[7]) * inv,
		(m[0]*m[4] - m[1]*m[3]) * inv,
	}, true
}

// OuterProduct returns the 3x3 matrix v*w^T.
func OuterProduct(v, w Vec3) Mat3 {
	return Mat3{
		v.X * w.X, v.X * w.Y, v.X * w.Z,
		v.Y * w.X, v.Y * w.Y, v.Y * w.Z,
		v.Z * w.X, v.Z * w.Y, v.Z * w.Z,
	}
}

// Mat4 is a row-major 4x4 matrix, used for homogeneous transforms
// (the "small 4x4 matrix" poses the paper ships from server to client).
type Mat4 [16]float64
