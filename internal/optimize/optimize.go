// Package optimize implements the nonlinear least-squares machinery of
// the SLAM back end: robust pose-only optimization used by tracking
// (the "pose prediction" step the paper times in Figs. 5 and 8) and
// local bundle adjustment over keyframe windows used by mapping and
// merging (Alg. 2's post-merge refinement). Both minimize Huber-robust
// reprojection error with Gauss-Newton / Levenberg-Marquardt; bundle
// adjustment eliminates the point blocks with a Schur complement, as
// real SLAM solvers do.
package optimize

import (
	"math"

	"slamshare/internal/camera"
	"slamshare/internal/geom"
)

// Chi2Inlier95 is the 95% chi-square threshold with 2 degrees of
// freedom, used to classify monocular reprojection residuals.
const Chi2Inlier95 = 5.991

// HuberDelta is the robust-kernel width in normalized pixels.
const HuberDelta = math.Sqrt2 * 1.2

// Chi2Stereo95 is the 95% chi-square threshold with 3 degrees of
// freedom, used to classify stereo (pixel + right-image column)
// residuals.
const Chi2Stereo95 = 7.815

// Observation links a camera and a point with a pixel measurement.
type Observation struct {
	Cam   int       // index into the problem's camera array
	Pt    int       // index into the problem's point array
	UV    geom.Vec2 // measured pixel position
	Sigma float64   // measurement stddev in pixels (>= 1)
	// Right is the measured column of the point in the rectified right
	// image, negative if it was not matched there. It is consulted only
	// by a problem with a stereo baseline (BAProblem.Bf > 0).
	Right float64
}

// applySE3Delta perturbs a world-to-camera pose on the left by the
// 6-vector (translation, rotation) delta.
func applySE3Delta(tcw geom.SE3, d [6]float64) geom.SE3 {
	dr := geom.QuatFromRotVec(geom.Vec3{X: d[3], Y: d[4], Z: d[5]})
	return geom.SE3{
		R: dr.Mul(tcw.R).Normalized(),
		T: dr.Rotate(tcw.T).Add(geom.Vec3{X: d[0], Y: d[1], Z: d[2]}),
	}
}

// projJacobian returns the 2x3 Jacobian of pixel coordinates with
// respect to the camera-frame point, given intrinsics.
func projJacobian(in camera.Intrinsics, pc geom.Vec3) (j [2][3]float64) {
	iz := 1 / pc.Z
	iz2 := iz * iz
	j[0] = [3]float64{in.Fx * iz, 0, -in.Fx * pc.X * iz2}
	j[1] = [3]float64{0, in.Fy * iz, -in.Fy * pc.Y * iz2}
	return j
}

// huberWeight returns the IRLS weight for a residual of normalized
// magnitude e (already divided by sigma).
func huberWeight(e float64) float64 {
	if e <= HuberDelta {
		return 1
	}
	return HuberDelta / e
}

// PoseResult reports the outcome of pose-only optimization.
type PoseResult struct {
	Pose     geom.SE3 // optimized world-to-camera pose
	Inliers  []bool   // per-observation inlier classification
	NInliers int
	Chi2     float64 // final sum of squared normalized inlier residuals
}

// OptimizePose refines a world-to-camera pose against fixed 3D points
// by Gauss-Newton on Huber-robust reprojection error, re-classifying
// outliers between rounds as ORB-SLAM3's tracking does. points[i]
// corresponds to uvs[i]; sigmas may be nil (all 1 px).
func OptimizePose(in camera.Intrinsics, tcw geom.SE3, points []geom.Vec3, uvs []geom.Vec2, sigmas []float64) PoseResult {
	n := len(points)
	inlier := make([]bool, n)
	for i := range inlier {
		inlier[i] = true
	}
	sigma := func(i int) float64 {
		if sigmas == nil || sigmas[i] <= 0 {
			return 1
		}
		return sigmas[i]
	}
	const rounds = 4
	const itersPerRound = 6
	for round := 0; round < rounds; round++ {
		for iter := 0; iter < itersPerRound; iter++ {
			var h [36]float64
			var b [6]float64
			used := 0
			for i := 0; i < n; i++ {
				if !inlier[i] {
					continue
				}
				pc := tcw.Apply(points[i])
				if pc.Z < 0.05 {
					continue
				}
				px := in.ProjectUnchecked(pc)
				s := sigma(i)
				r := px.Sub(uvs[i])
				rn := r.Norm() / s
				w := huberWeight(rn) / (s * s)
				jp := projJacobian(in, pc)
				// Chain rule: d pc / d delta = [I | -[pc]x].
				var jrow [2][6]float64
				hat := pc.Hat()
				for rr := 0; rr < 2; rr++ {
					jrow[rr][0] = jp[rr][0]
					jrow[rr][1] = jp[rr][1]
					jrow[rr][2] = jp[rr][2]
					for c := 0; c < 3; c++ {
						jrow[rr][3+c] = -(jp[rr][0]*hat[0*3+c] + jp[rr][1]*hat[1*3+c] + jp[rr][2]*hat[2*3+c])
					}
				}
				res := [2]float64{r.X, r.Y}
				for rr := 0; rr < 2; rr++ {
					for a := 0; a < 6; a++ {
						b[a] -= w * jrow[rr][a] * res[rr]
						for c := a; c < 6; c++ {
							h[a*6+c] += w * jrow[rr][a] * jrow[rr][c]
						}
					}
				}
				used++
			}
			if used < 6 {
				break
			}
			// Mirror the upper triangle and add light damping.
			for a := 0; a < 6; a++ {
				h[a*6+a] += 1e-6
				for c := a + 1; c < 6; c++ {
					h[c*6+a] = h[a*6+c]
				}
			}
			hb := b
			if err := geom.CholeskySolve(h[:], hb[:], 6); err != nil {
				break
			}
			step := math.Sqrt(hb[0]*hb[0] + hb[1]*hb[1] + hb[2]*hb[2] + hb[3]*hb[3] + hb[4]*hb[4] + hb[5]*hb[5])
			tcw = applySE3Delta(tcw, hb)
			if step < 1e-8 {
				break
			}
		}
		// Re-classify inliers for the next round.
		for i := 0; i < n; i++ {
			pc := tcw.Apply(points[i])
			if pc.Z < 0.05 {
				inlier[i] = false
				continue
			}
			px := in.ProjectUnchecked(pc)
			s := sigma(i)
			r := px.Sub(uvs[i]).NormSq() / (s * s)
			inlier[i] = r <= Chi2Inlier95
		}
	}
	res := PoseResult{Pose: tcw, Inliers: inlier}
	for i := 0; i < n; i++ {
		if !inlier[i] {
			continue
		}
		res.NInliers++
		pc := tcw.Apply(points[i])
		if pc.Z < 0.05 {
			continue
		}
		px := in.ProjectUnchecked(pc)
		s := sigma(i)
		res.Chi2 += px.Sub(uvs[i]).NormSq() / (s * s)
	}
	return res
}
