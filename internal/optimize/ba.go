package optimize

import (
	"math"
	"sort"

	"slamshare/internal/camera"
	"slamshare/internal/geom"
)

// BAProblem is a bundle-adjustment problem: a set of world-to-camera
// poses and world points connected by pixel observations. Fixed
// cameras anchor the gauge (at least one camera should be fixed).
type BAProblem struct {
	Intr camera.Intrinsics
	// Bf is fx times the stereo baseline, 0 for a monocular problem.
	// When positive, an observation matched in the right image also
	// constrains that column, u - Bf/Z: reprojection alone leaves the
	// window's scale to the fixed cameras, and a window that slides
	// with the camera then loses a little scale at every adjustment;
	// the disparity term ties each point's depth to the metric baseline
	// and averages its noise over every keyframe that saw the point.
	Bf       float64
	Cams     []geom.SE3 // world-to-camera
	FixedCam []bool
	Points   []geom.Vec3
	Obs      []Observation
}

// residual returns the residual rows of ob for its point at pc in the
// camera frame, their Jacobian with respect to pc, and how many rows
// there are: the two pixel rows, plus the right-image column for a
// stereo observation of a stereo problem.
func (p *BAProblem) residual(ob *Observation, pc geom.Vec3) (r [3]float64, j [3][3]float64, n int) {
	px := p.Intr.ProjectUnchecked(pc)
	r[0], r[1] = px.X-ob.UV.X, px.Y-ob.UV.Y
	jp := projJacobian(p.Intr, pc)
	j[0], j[1] = jp[0], jp[1]
	if p.Bf <= 0 || ob.Right < 0 {
		return r, j, 2
	}
	iz := 1 / pc.Z
	r[2] = px.X - p.Bf*iz - ob.Right
	j[2] = [3]float64{jp[0][0], 0, jp[0][2] + p.Bf*iz*iz}
	return r, j, 3
}

// chi2Of returns an observation's squared normalized residual and the
// 95% inlier threshold for its row count.
func (p *BAProblem) chi2Of(ob *Observation, pc geom.Vec3) (chi2, threshold float64) {
	r, _, n := p.residual(ob, pc)
	s := ob.Sigma
	if s <= 0 {
		s = 1
	}
	threshold = Chi2Inlier95
	if n == 3 {
		threshold = Chi2Stereo95
	}
	return (r[0]*r[0] + r[1]*r[1] + r[2]*r[2]) / (s * s), threshold
}

// BAResult reports the outcome of bundle adjustment.
type BAResult struct {
	Iterations int
	InitChi2   float64
	FinalChi2  float64
	Outliers   []bool // per-observation classification after the solve
}

// chi2 returns the total squared normalized residual over
// observations, skipping entries marked as outliers.
func (p *BAProblem) chi2(outlier []bool) float64 {
	var sum float64
	for i := range p.Obs {
		if outlier != nil && outlier[i] {
			continue
		}
		ob := &p.Obs[i]
		pc := p.Cams[ob.Cam].Apply(p.Points[ob.Pt])
		if pc.Z < 0.05 {
			sum += 1e4
			continue
		}
		c, _ := p.chi2Of(ob, pc)
		sum += c
	}
	return sum
}

// Solve runs Levenberg-Marquardt with Schur elimination of the point
// blocks for at most maxIters iterations. Cameras and points are
// updated in place.
//
// Every buffer is allocated once per call, not per iteration: the
// trial cameras and points double-buffer across accepted and rejected
// steps, and the reduced camera system is formed and solved in place
// in hcc and bc. The floating-point operations are solveRef's, in its
// order, so the two agree bit for bit (FuzzSolveMatchesRef).
func (p *BAProblem) Solve(maxIters int) BAResult {
	nc := len(p.Cams)
	np := len(p.Points)
	res := BAResult{Outliers: make([]bool, len(p.Obs))}
	if nc == 0 || np == 0 || len(p.Obs) == 0 {
		return res
	}
	// Map cameras to variable slots (-1 = fixed).
	camVar := make([]int, nc)
	nv := 0
	for i := 0; i < nc; i++ {
		if i < len(p.FixedCam) && p.FixedCam[i] {
			camVar[i] = -1
		} else {
			camVar[i] = nv
			nv++
		}
	}
	// Observations are visited point by point (stably: a problem listed
	// that way already is walked as listed), so the camera-point blocks
	// below come out grouped by point, and every sum is taken in an
	// order the problem alone decides — the same problem solves to the
	// same bits.
	order := make([]int, len(p.Obs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.Obs[order[a]].Pt < p.Obs[order[b]].Pt })
	// cpBlock is the 6x3 block of one observation by a free camera. The
	// Schur product is bilinear in the blocks, so a camera observing a
	// point twice needs no merged block.
	type cpBlock struct {
		cv, pt int
		blk    [18]float64
	}
	hcp := make([]cpBlock, 0, len(p.Obs))
	// run returns the end of the run of blocks that share hcp[lo]'s point.
	run := func(lo int) int {
		hi := lo + 1
		for hi < len(hcp) && hcp[hi].pt == hcp[lo].pt {
			hi++
		}
		return hi
	}
	n := nv * 6
	hcc := make([]float64, n*n) // dense camera block (local windows are small)
	bc := make([]float64, n)
	hpp := make([][9]float64, np) // 3x3 per point
	hppInv := make([][9]float64, np)
	bp := make([][3]float64, np) // rhs per point
	rots := make([]geom.Mat3, nc)
	// A step is written into the buffer p does not hold; accepting it
	// hands that buffer to p and frees the other for the next step.
	camBuf := make([]geom.SE3, 2*nc)
	ptBuf := make([]geom.Vec3, 2*np)
	newCams, spareCams := camBuf[:nc:nc], camBuf[nc:]
	newPts, sparePts := ptBuf[:np:np], ptBuf[np:]
	res.InitChi2 = p.chi2(nil)
	lambda := 1e-4
	cur := res.InitChi2
	for iter := 0; iter < maxIters; iter++ {
		res.Iterations = iter + 1
		// Assemble the normal equations in block form.
		clear(hcc)
		clear(bc)
		clear(hpp)
		clear(bp)
		hcp = hcp[:0]
		for i := range rots {
			rots[i] = p.Cams[i].R.Mat()
		}

		for _, oi := range order {
			if res.Outliers[oi] {
				continue
			}
			ob := &p.Obs[oi]
			cv := camVar[ob.Cam]
			pc := p.Cams[ob.Cam].Apply(p.Points[ob.Pt])
			if pc.Z < 0.05 {
				continue
			}
			s := ob.Sigma
			if s <= 0 {
				s = 1
			}
			resv, jp, rows := p.residual(ob, pc)
			rn := math.Sqrt(resv[0]*resv[0]+resv[1]*resv[1]+resv[2]*resv[2]) / s
			w := huberWeight(rn) / (s * s)
			// Point Jacobian rows (rows x 3): J_proj * R.
			rot := &rots[ob.Cam]
			var jpt [3][3]float64
			for rr := 0; rr < rows; rr++ {
				for c := 0; c < 3; c++ {
					jpt[rr][c] = jp[rr][0]*rot[0*3+c] + jp[rr][1]*rot[1*3+c] + jp[rr][2]*rot[2*3+c]
				}
			}
			// Point-point block and rhs.
			pp, bpt := &hpp[ob.Pt], &bp[ob.Pt]
			for rr := 0; rr < rows; rr++ {
				jr, er := &jpt[rr], resv[rr]
				for a := 0; a < 3; a++ {
					wa := w * jr[a]
					bpt[a] -= wa * er
					for c := 0; c < 3; c++ {
						pp[a*3+c] += wa * jr[c]
					}
				}
			}
			if cv < 0 {
				continue
			}
			// Camera Jacobian rows (rows x 6).
			var jc [3][6]float64
			hat := pc.Hat()
			for rr := 0; rr < rows; rr++ {
				jc[rr][0] = jp[rr][0]
				jc[rr][1] = jp[rr][1]
				jc[rr][2] = jp[rr][2]
				for c := 0; c < 3; c++ {
					jc[rr][3+c] = -(jp[rr][0]*hat[0*3+c] + jp[rr][1]*hat[1*3+c] + jp[rr][2]*hat[2*3+c])
				}
			}
			// Camera-camera block, its rhs and the camera-point block.
			hcp = append(hcp, cpBlock{cv: cv, pt: ob.Pt})
			blk := &hcp[len(hcp)-1].blk
			base := cv * 6
			for rr := 0; rr < rows; rr++ {
				jr, jq, er := &jc[rr], &jpt[rr], resv[rr]
				for a := 0; a < 6; a++ {
					wa := w * jr[a]
					bc[base+a] -= wa * er
					row := hcc[(base+a)*n+base:][:6]
					for c := range row {
						row[c] += wa * jr[c]
					}
					for c := 0; c < 3; c++ {
						blk[a*3+c] += wa * jq[c]
					}
				}
			}
		}
		// LM damping.
		for i := 0; i < n; i++ {
			hcc[i*n+i] *= 1 + lambda
			hcc[i*n+i] += 1e-9
		}
		for i := 0; i < np; i++ {
			m := hpp[i]
			for d := 0; d < 3; d++ {
				m[d*3+d] *= 1 + lambda
				m[d*3+d] += 1e-9
			}
			// An unconstrained point gets a zero inverse, which freezes it.
			hppInv[i], _ = invert3(m)
		}
		// Schur complement, in place: Hcc -= Hcp Hpp^-1 Hcp^T,
		// bc -= Hcp Hpp^-1 bp.
		for lo, hi := 0, 0; lo < len(hcp); lo = hi {
			hi = run(lo)
			pt, ents := hcp[lo].pt, hcp[lo:hi]
			inv, bpv := &hppInv[pt], &bp[pt]
			// y = Hpp^-1 bp
			var y [3]float64
			for a := 0; a < 3; a++ {
				for c := 0; c < 3; c++ {
					y[a] += inv[a*3+c] * bpv[c]
				}
			}
			for i1 := range ents {
				cv1 := ents[i1].cv
				b1 := &ents[i1].blk
				// bc -= Hcp * y
				rhs := bc[cv1*6:][:6]
				for a := range rhs {
					for c := 0; c < 3; c++ {
						rhs[a] -= b1[a*3+c] * y[c]
					}
				}
				// W = Hcp * Hpp^-1 (6x3). The three-term sums are
				// solveRef's loops unrolled, starting from its zero.
				var wblk [18]float64
				for a := 0; a < 6; a++ {
					br := b1[a*3:][:3]
					for c := 0; c < 3; c++ {
						wblk[a*3+c] = 0 + br[0]*inv[c] + br[1]*inv[3+c] + br[2]*inv[6+c]
					}
				}
				for i2 := range ents {
					cv2 := ents[i2].cv
					b2 := &ents[i2].blk
					// Hcc[cv1, cv2] -= W * Hcp2^T
					for a := 0; a < 6; a++ {
						row := hcc[(cv1*6+a)*n+cv2*6:][:6]
						w0, w1, w2 := wblk[a*3], wblk[a*3+1], wblk[a*3+2]
						for c := range row {
							bc2 := b2[c*3:][:3]
							row[c] -= 0 + w0*bc2[0] + w1*bc2[1] + w2*bc2[2]
						}
					}
				}
			}
		}
		// Solve the reduced camera system; bc becomes the camera step.
		camOK := nv > 0 && geom.CholeskySolve(hcc, bc, n) == nil
		delta := bc
		// Back-substitute points: dp = Hpp^-1 (bp - Hcp^T dc).
		copy(newCams, p.Cams)
		if camOK {
			for i := 0; i < nc; i++ {
				if camVar[i] < 0 {
					continue
				}
				var d [6]float64
				copy(d[:], delta[camVar[i]*6:camVar[i]*6+6])
				newCams[i] = applySE3Delta(p.Cams[i], d)
			}
		}
		copy(newPts, p.Points)
		for lo, hi := 0, 0; lo < len(hcp); lo = hi {
			hi = run(lo)
			pt, ents := hcp[lo].pt, hcp[lo:hi]
			bpv := bp[pt]
			if camOK {
				for i := range ents {
					cv := ents[i].cv
					b := &ents[i].blk
					dc := delta[cv*6:][:6]
					for c := 0; c < 3; c++ {
						for a := range dc {
							bpv[c] -= b[a*3+c] * dc[a]
						}
					}
				}
			}
			inv := &hppInv[pt]
			var dp [3]float64
			for a := 0; a < 3; a++ {
				for c := 0; c < 3; c++ {
					dp[a] += inv[a*3+c] * bpv[c]
				}
			}
			newPts[pt] = p.Points[pt].Add(geom.Vec3{X: dp[0], Y: dp[1], Z: dp[2]})
		}
		// Accept or reject the step (LM).
		oldCams, oldPts := p.Cams, p.Points
		p.Cams, p.Points = newCams, newPts
		newChi := p.chi2(res.Outliers)
		if newChi < cur {
			newCams, spareCams = spareCams, newCams
			newPts, sparePts = sparePts, newPts
			cur = newChi
			lambda = math.Max(lambda*0.5, 1e-9)
			if (res.InitChi2 - newChi) < 1e-9*res.InitChi2 {
				break
			}
		} else {
			p.Cams, p.Points = oldCams, oldPts
			lambda *= 4
			if lambda > 1e6 {
				break
			}
		}
	}
	// Final outlier classification.
	for i := range p.Obs {
		ob := &p.Obs[i]
		pc := p.Cams[ob.Cam].Apply(p.Points[ob.Pt])
		if pc.Z < 0.05 {
			res.Outliers[i] = true
			continue
		}
		c, threshold := p.chi2Of(ob, pc)
		res.Outliers[i] = c > threshold
	}
	res.FinalChi2 = p.chi2(res.Outliers)
	return res
}

// invert3 inverts a 3x3 matrix stored row-major.
func invert3(m [9]float64) ([9]float64, bool) {
	det := m[0]*(m[4]*m[8]-m[5]*m[7]) - m[1]*(m[3]*m[8]-m[5]*m[6]) + m[2]*(m[3]*m[7]-m[4]*m[6])
	if math.Abs(det) < 1e-18 {
		return [9]float64{}, false
	}
	inv := 1 / det
	return [9]float64{
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

// Triangulate computes the world point minimizing reprojection from
// two views by the midpoint of the closest approach of the two rays.
// Returns false when the rays are near-parallel (insufficient
// parallax).
func Triangulate(in camera.Intrinsics, tcw1, tcw2 geom.SE3, uv1, uv2 geom.Vec2) (geom.Vec3, bool) {
	// Camera centers and ray directions in world frame.
	twc1 := tcw1.Inverse()
	twc2 := tcw2.Inverse()
	o1 := twc1.T
	o2 := twc2.T
	d1 := twc1.R.Rotate(in.Ray(uv1))
	d2 := twc2.R.Rotate(in.Ray(uv2))
	// Solve for s, t minimizing |o1 + s d1 - o2 - t d2|^2.
	w0 := o1.Sub(o2)
	a := d1.Dot(d1)
	b := d1.Dot(d2)
	c := d2.Dot(d2)
	d := d1.Dot(w0)
	e := d2.Dot(w0)
	den := a*c - b*b
	if den < 1e-9 { // near-parallel rays: no parallax
		return geom.Vec3{}, false
	}
	s := (b*e - c*d) / den
	t := (a*e - b*d) / den
	if s <= 0.05 || t <= 0.05 { // behind either camera
		return geom.Vec3{}, false
	}
	p1 := o1.Add(d1.Scale(s))
	p2 := o2.Add(d2.Scale(t))
	return p1.Add(p2).Scale(0.5), true
}
