package camera

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"slamshare/internal/geom"
)

func TestProjectBackprojectRoundTrip(t *testing.T) {
	in := EuRoCIntrinsics()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		z := 0.5 + rng.Float64()*20
		px := geom.Vec2{
			X: rng.Float64() * float64(in.Width),
			Y: rng.Float64() * float64(in.Height),
		}
		p := in.Backproject(px, z)
		got, ok := in.Project(p)
		if !ok {
			t.Fatalf("backprojected point did not project: %v", p)
		}
		if got.Sub(px).Norm() > 1e-9 {
			t.Fatalf("round trip %v -> %v", px, got)
		}
	}
}

func TestProjectRejectsBehindCamera(t *testing.T) {
	in := EuRoCIntrinsics()
	if _, ok := in.Project(geom.Vec3{X: 0, Y: 0, Z: -1}); ok {
		t.Error("point behind camera projected")
	}
	if _, ok := in.Project(geom.Vec3{X: 0, Y: 0, Z: 0.001}); ok {
		t.Error("point at near plane projected")
	}
}

func TestProjectRejectsOutOfBounds(t *testing.T) {
	in := EuRoCIntrinsics()
	// A point far to the side at shallow depth lands outside the image.
	if _, ok := in.Project(geom.Vec3{X: 10, Y: 0, Z: 1}); ok {
		t.Error("out-of-bounds point accepted")
	}
}

func TestRayUnitLength(t *testing.T) {
	in := KITTIIntrinsics()
	f := func(u, v float64) bool {
		px := geom.Vec2{X: math.Mod(math.Abs(u), float64(in.Width)), Y: math.Mod(math.Abs(v), float64(in.Height))}
		r := in.Ray(px)
		return math.Abs(r.Norm()-1) < 1e-12 && r.Z > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorldToPixel(t *testing.T) {
	rig := NewMonoRig(EuRoCIntrinsics())
	// Camera at origin looking down +Z; point straight ahead lands on
	// the principal point.
	tcw := geom.IdentitySE3()
	px, ok := rig.WorldToPixel(tcw, geom.Vec3{X: 0, Y: 0, Z: 5})
	if !ok {
		t.Fatal("center point not visible")
	}
	if math.Abs(px.X-rig.Intr.Cx) > 1e-9 || math.Abs(px.Y-rig.Intr.Cy) > 1e-9 {
		t.Errorf("center projected to %v", px)
	}
}

func TestFrustumCheck(t *testing.T) {
	rig := NewMonoRig(EuRoCIntrinsics())
	tcw := geom.IdentitySE3()
	if !rig.FrustumCheck(tcw, geom.Vec3{X: 0, Y: 0, Z: 5}, 0.1, 100) {
		t.Error("visible point rejected")
	}
	if rig.FrustumCheck(tcw, geom.Vec3{X: 0, Y: 0, Z: 500}, 0.1, 100) {
		t.Error("too-far point accepted")
	}
	if rig.FrustumCheck(tcw, geom.Vec3{X: 0, Y: 0, Z: 0.01}, 0.1, 100) {
		t.Error("too-near point accepted")
	}
	if rig.FrustumCheck(tcw, geom.Vec3{X: 0, Y: 0, Z: -5}, 0.1, 100) {
		t.Error("behind-camera point accepted")
	}
}

func TestInBounds(t *testing.T) {
	in := TUMIntrinsics()
	if !in.InBounds(geom.Vec2{X: 320, Y: 240}, 16) {
		t.Error("center rejected")
	}
	if in.InBounds(geom.Vec2{X: 5, Y: 240}, 16) {
		t.Error("border point accepted with margin")
	}
	if in.InBounds(geom.Vec2{X: -1, Y: -1}, 0) {
		t.Error("negative coordinates accepted")
	}
}

func TestIntrinsicsPresets(t *testing.T) {
	for _, in := range []Intrinsics{EuRoCIntrinsics(), KITTIIntrinsics(), TUMIntrinsics()} {
		if in.Width <= 0 || in.Height <= 0 || in.Fx <= 0 || in.Fy <= 0 {
			t.Errorf("bad preset %+v", in)
		}
	}
}

func TestModeString(t *testing.T) {
	if Mono.String() != "mono" || Stereo.String() != "stereo" {
		t.Error("mode strings wrong")
	}
}
