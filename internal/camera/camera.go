// Package camera models the pinhole cameras carried by AR devices:
// intrinsics, monocular and stereo projection, and visibility checks
// used by tracking and mapping to decide which map points a frame can
// observe.
package camera

import (
	"fmt"

	"slamshare/internal/geom"
)

// Intrinsics holds the pinhole camera parameters. Distortion is
// assumed rectified, as in the stereo-rectified EuRoC/KITTI setups the
// paper evaluates on.
type Intrinsics struct {
	Fx, Fy float64 // focal lengths in pixels
	Cx, Cy float64 // principal point in pixels
	Width  int     // image width in pixels
	Height int     // image height in pixels
}

// EuRoCIntrinsics mirrors the rectified EuRoC MAV camera
// (752x480, ~458 px focal length).
func EuRoCIntrinsics() Intrinsics {
	return Intrinsics{Fx: 458.0, Fy: 458.0, Cx: 376.0, Cy: 240.0, Width: 752, Height: 480}
}

// KITTIIntrinsics mirrors the rectified KITTI grayscale camera
// (1241x376, ~718 px focal length).
func KITTIIntrinsics() Intrinsics {
	return Intrinsics{Fx: 718.0, Fy: 718.0, Cx: 620.0, Cy: 188.0, Width: 1241, Height: 376}
}

// TUMIntrinsics mirrors the TUM RGB-D fr1 camera (640x480).
func TUMIntrinsics() Intrinsics {
	return Intrinsics{Fx: 517.3, Fy: 516.5, Cx: 318.6, Cy: 255.3, Width: 640, Height: 480}
}

// Project maps a point in camera coordinates (Z forward) to pixel
// coordinates. ok is false when the point is behind the camera or
// outside the image bounds.
func (in Intrinsics) Project(pc geom.Vec3) (px geom.Vec2, ok bool) {
	const minDepth = 0.05
	if pc.Z < minDepth {
		return geom.Vec2{}, false
	}
	u := in.Fx*pc.X/pc.Z + in.Cx
	v := in.Fy*pc.Y/pc.Z + in.Cy
	if u < 0 || v < 0 || u >= float64(in.Width) || v >= float64(in.Height) {
		return geom.Vec2{X: u, Y: v}, false
	}
	return geom.Vec2{X: u, Y: v}, true
}

// ProjectUnchecked maps a camera-frame point to pixel coordinates
// without bounds checking; the caller must ensure pc.Z > 0.
func (in Intrinsics) ProjectUnchecked(pc geom.Vec3) geom.Vec2 {
	return geom.Vec2{
		X: in.Fx*pc.X/pc.Z + in.Cx,
		Y: in.Fy*pc.Y/pc.Z + in.Cy,
	}
}

// Backproject returns the camera-frame point at pixel px with depth z.
func (in Intrinsics) Backproject(px geom.Vec2, z float64) geom.Vec3 {
	return geom.Vec3{
		X: (px.X - in.Cx) / in.Fx * z,
		Y: (px.Y - in.Cy) / in.Fy * z,
		Z: z,
	}
}

// Ray returns the unit ray through pixel px in camera coordinates.
func (in Intrinsics) Ray(px geom.Vec2) geom.Vec3 {
	return geom.Vec3{
		X: (px.X - in.Cx) / in.Fx,
		Y: (px.Y - in.Cy) / in.Fy,
		Z: 1,
	}.Normalized()
}

// InBounds reports whether pixel coordinates fall inside the image
// with the given border margin.
func (in Intrinsics) InBounds(px geom.Vec2, margin float64) bool {
	return px.X >= margin && px.Y >= margin &&
		px.X < float64(in.Width)-margin && px.Y < float64(in.Height)-margin
}

func (in Intrinsics) String() string {
	return fmt.Sprintf("camera(%dx%d f=%.1f)", in.Width, in.Height, in.Fx)
}

// Mode distinguishes monocular from stereo operation; the paper
// evaluates both (Figs. 5 and 8 have mono and stereo variants).
type Mode int

const (
	// Mono uses a single camera; absolute scale comes from the IMU.
	Mono Mode = iota
	// Stereo uses a horizontal stereo pair with known baseline, making
	// depth directly observable per frame.
	Stereo
)

func (m Mode) String() string {
	if m == Stereo {
		return "stereo"
	}
	return "mono"
}

// Rig is a camera rig: intrinsics shared by both eyes plus the stereo
// baseline (0 for monocular rigs).
type Rig struct {
	Intr     Intrinsics
	Mode     Mode
	Baseline float64 // metres between left and right camera centers
}

// NewMonoRig returns a monocular rig.
func NewMonoRig(in Intrinsics) Rig { return Rig{Intr: in, Mode: Mono} }

// NewStereoRig returns a stereo rig with the given baseline in metres.
func NewStereoRig(in Intrinsics, baseline float64) Rig {
	return Rig{Intr: in, Mode: Stereo, Baseline: baseline}
}

// WorldToPixel projects world point pw through world-to-camera pose
// tcw into pixel coordinates.
func (r Rig) WorldToPixel(tcw geom.SE3, pw geom.Vec3) (geom.Vec2, bool) {
	return r.Intr.Project(tcw.Apply(pw))
}

// FrustumCheck reports whether world point pw is inside the viewing
// frustum of a camera at world-to-camera pose tcw, between minDepth
// and maxDepth.
func (r Rig) FrustumCheck(tcw geom.SE3, pw geom.Vec3, minDepth, maxDepth float64) bool {
	pc := tcw.Apply(pw)
	if pc.Z < minDepth || pc.Z > maxDepth {
		return false
	}
	_, ok := r.Intr.Project(pc)
	return ok
}
