package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecAlmostEq(a, b Vec3, tol float64) bool {
	return a.Sub(b).Norm() <= tol
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{-4, 5, 0.5}
	if got := a.Add(b); got != (Vec3{-3, 7, 3.5}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{5, -3, 2.5}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); !almostEq(got, -4+10+1.5, eps) {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Norm(); !almostEq(got, math.Sqrt(14), eps) {
		t.Errorf("Norm = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampf(ax), clampf(ay), clampf(az)}
		b := Vec3{clampf(bx), clampf(by), clampf(bz)}
		c := a.Cross(b)
		return math.Abs(c.Dot(a)) < 1e-6*(1+a.NormSq()*b.NormSq()) &&
			math.Abs(c.Dot(b)) < 1e-6*(1+a.NormSq()*b.NormSq())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampf maps arbitrary float64 inputs from testing/quick into a
// well-conditioned range.
func clampf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 100)
}

func TestHatMatchesCross(t *testing.T) {
	a := Vec3{0.3, -1.2, 2.5}
	b := Vec3{-0.7, 0.1, 0.9}
	if got, want := mulVec(a.Hat(), b), a.Cross(b); !vecAlmostEq(got, want, eps) {
		t.Errorf("Hat*b = %v, want %v", got, want)
	}
}

var identity3 = Mat3{1, 0, 0, 0, 1, 0, 0, 0, 1}

// mulVec is the matrix-vector product m*v.
func mulVec(m Mat3, v Vec3) Vec3 {
	return Vec3{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z,
		m[3]*v.X + m[4]*v.Y + m[5]*v.Z,
		m[6]*v.X + m[7]*v.Y + m[8]*v.Z,
	}
}

func TestMat3MulIdentity(t *testing.T) {
	m := Mat3{1, 2, 3, 4, 5, 6, 7, 8, 10}
	if got := m.Mul(identity3); got != m {
		t.Errorf("m*I = %v", got)
	}
	if got := identity3.Mul(m); got != m {
		t.Errorf("I*m = %v", got)
	}
}

func TestMat3Inverse(t *testing.T) {
	m := Mat3{2, 0, 1, 0, 3, 0, 1, 0, 2}
	inv, ok := m.Inverse()
	if !ok {
		t.Fatal("matrix should be invertible")
	}
	p := m.Mul(inv)
	for i := range p {
		if !almostEq(p[i], identity3[i], 1e-12) {
			t.Fatalf("m*inv = %v", p)
		}
	}
	if _, ok := (Mat3{}).Inverse(); ok {
		t.Error("zero matrix must not invert")
	}
}

func TestQuatRotateMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		q := randomQuat(rng)
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if got, want := q.Rotate(v), mulVec(q.Mat(), v); !vecAlmostEq(got, want, 1e-9) {
			t.Fatalf("Rotate %v vs Mat %v", got, want)
		}
	}
}

func randomQuat(rng *rand.Rand) Quat {
	axis := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	return QuatFromAxisAngle(axis, rng.Float64()*2*math.Pi)
}

func TestQuatMatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		q := randomQuat(rng)
		r := QuatFromMat(q.Mat())
		// q and -q encode the same rotation.
		if !almostEq(math.Abs(q.W*r.W+q.X*r.X+q.Y*r.Y+q.Z*r.Z), 1, 1e-9) {
			t.Fatalf("round trip %v -> %v", q, r)
		}
	}
}

func TestQuatExpLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		w := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.5)
		got := QuatFromRotVec(w).RotVec()
		if !vecAlmostEq(got, w, 1e-9) {
			t.Fatalf("exp/log %v -> %v", w, got)
		}
	}
	// Near-zero branch.
	w := Vec3{1e-14, -1e-14, 1e-15}
	if got := QuatFromRotVec(w).RotVec(); got.Norm() > 1e-12 {
		t.Errorf("near-zero log = %v", got)
	}
}

func TestQuatRotationPreservesNorm(t *testing.T) {
	f := func(ax, ay, az, angle, vx, vy, vz float64) bool {
		q := QuatFromAxisAngle(Vec3{clampf(ax), clampf(ay), clampf(az)}, clampf(angle))
		v := Vec3{clampf(vx), clampf(vy), clampf(vz)}
		return almostEq(q.Rotate(v).Norm(), v.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSE3ComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := randomSE3(rng)
		b := randomSE3(rng)
		p := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		// Composition applies b first.
		if got, want := a.Compose(b).Apply(p), a.Apply(b.Apply(p)); !vecAlmostEq(got, want, 1e-9) {
			t.Fatalf("compose: %v vs %v", got, want)
		}
		// Inverse round-trips points.
		if got := a.Inverse().Apply(a.Apply(p)); !vecAlmostEq(got, p, 1e-9) {
			t.Fatalf("inverse round trip: %v vs %v", got, p)
		}
	}
}

func randomSE3(rng *rand.Rand) SE3 {
	return SE3{
		R: randomQuat(rng),
		T: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(3),
	}
}

func TestSE3Mat4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		s := randomSE3(rng)
		r := SE3FromMat4(s.Mat4())
		p := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if !vecAlmostEq(s.Apply(p), r.Apply(p), 1e-9) {
			t.Fatalf("Mat4 round trip mismatch: %v vs %v", s, r)
		}
	}
}

func TestSE3Delta(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSE3(rng)
	b := randomSE3(rng)
	d := a.Delta(b)
	p := Vec3{1, -2, 0.5}
	if got, want := d.Compose(a).Apply(p), b.Apply(p); !vecAlmostEq(got, want, 1e-9) {
		t.Errorf("delta: %v vs %v", got, want)
	}
}

func TestSim3ComposeInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		a := randomSim3(rng)
		b := randomSim3(rng)
		p := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if got, want := a.Compose(b).Apply(p), a.Apply(b.Apply(p)); !vecAlmostEq(got, want, 1e-6) {
			t.Fatalf("sim3 compose: %v vs %v", got, want)
		}
		if got := a.Inverse().Apply(a.Apply(p)); !vecAlmostEq(got, p, 1e-6) {
			t.Fatalf("sim3 inverse: %v vs %v", got, p)
		}
	}
}

func randomSim3(rng *rand.Rand) Sim3 {
	return Sim3{
		S: 0.5 + rng.Float64()*2,
		R: randomQuat(rng),
		T: Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()},
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = M^T*M + I is SPD for any M.
	rng := rand.New(rand.NewSource(9))
	n := 12
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += m[k*n+i] * m[k*n+j]
			}
			if i == j {
				s++
			}
			a[i*n+j] = s
		}
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += a[i*n+j] * want[j]
		}
	}
	aCopy := make([]float64, len(a))
	copy(aCopy, a)
	if err := CholeskySolve(aCopy, b, n); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(b[i], want[i], 1e-8) {
			t.Fatalf("x[%d] = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := []float64{1, 0, 0, -1} // eigenvalues 1, -1
	b := []float64{1, 1}
	if err := CholeskySolve(a, b, 2); err == nil {
		t.Error("expected failure for indefinite matrix")
	}
	if err := CholeskySolve([]float64{1}, []float64{1, 2}, 2); err == nil {
		t.Error("expected dimension error")
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := []float64{
		3, 0, 0,
		0, -1, 0,
		0, 0, 7,
	}
	vals, _ := SymmetricEigen(a, 3)
	want := []float64{7, 3, -1}
	for i := range want {
		if !almostEq(vals[i], want[i], 1e-9) {
			t.Fatalf("vals = %v", vals)
		}
	}
}

func TestSymmetricEigenReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 5
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j] = v
			a[j*n+i] = v
		}
	}
	vals, vecs := SymmetricEigen(a, n)
	// Check A*v_j = lambda_j*v_j for each eigenpair.
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			av := 0.0
			for k := 0; k < n; k++ {
				av += a[i*n+k] * vecs[k*n+j]
			}
			if !almostEq(av, vals[j]*vecs[i*n+j], 1e-8) {
				t.Fatalf("eigenpair %d violated: %v vs %v", j, av, vals[j]*vecs[i*n+j])
			}
		}
	}
}

func TestAlignHornExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		truth := randomSim3(rng)
		src := make([]Vec3, 20)
		dst := make([]Vec3, 20)
		for i := range src {
			src[i] = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(5)
			dst[i] = truth.Apply(src[i])
		}
		got, err := AlignHorn(src, dst, true)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got.S, truth.S, 1e-6) {
			t.Fatalf("scale %v want %v", got.S, truth.S)
		}
		if rmse := AlignmentRMSE(got, src, dst); rmse > 1e-6 {
			t.Fatalf("rmse = %v", rmse)
		}
	}
}

func TestAlignHornRigid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	truth := Sim3FromSE3(randomSE3(rng))
	src := make([]Vec3, 30)
	dst := make([]Vec3, 30)
	for i := range src {
		src[i] = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(4)
		// Small noise keeps the problem realistic.
		noise := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.001)
		dst[i] = truth.Apply(src[i]).Add(noise)
	}
	got, err := AlignHorn(src, dst, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.S != 1 {
		t.Errorf("rigid alignment changed scale: %v", got.S)
	}
	if rmse := AlignmentRMSE(got, src, dst); rmse > 0.01 {
		t.Errorf("rmse = %v", rmse)
	}
}

func TestAlignHornDegenerate(t *testing.T) {
	if _, err := AlignHorn([]Vec3{{1, 0, 0}}, []Vec3{{0, 1, 0}}, true); err == nil {
		t.Error("expected error for too few points")
	}
	same := []Vec3{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	if _, err := AlignHorn(same, same, true); err == nil {
		t.Error("expected error for coincident points")
	}
}

func TestSim3ApplyPoseConsistent(t *testing.T) {
	// Transforming a camera-to-world pose through a Sim3 must move the
	// camera center the same way it moves ordinary points.
	rng := rand.New(rand.NewSource(13))
	tf := randomSim3(rng)
	pose := randomSE3(rng) // camera-to-world: center = pose.T
	moved := tf.ApplyPose(pose)
	if !vecAlmostEq(moved.T, tf.Apply(pose.T), 1e-9) {
		t.Errorf("pose center %v, expected %v", moved.T, tf.Apply(pose.T))
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestVec2(t *testing.T) {
	a := Vec2{3, 4}
	if a.Norm() != 5 {
		t.Errorf("Norm = %v", a.Norm())
	}
	if a.NormSq() != 25 {
		t.Errorf("NormSq = %v", a.NormSq())
	}
	if got := a.Add(Vec2{1, 1}).Sub(Vec2{1, 1}); got != a {
		t.Errorf("Add/Sub = %v", got)
	}
	if got := a.Scale(2).Dot(a); got != 50 {
		t.Errorf("Dot = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec3{1, 2, 3}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec3{math.NaN(), 0, 0}).IsFinite() {
		t.Error("NaN not caught")
	}
	if (Vec3{0, math.Inf(1), 0}).IsFinite() {
		t.Error("Inf not caught")
	}
}
