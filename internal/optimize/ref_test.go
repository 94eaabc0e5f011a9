package optimize

import (
	"math"
	"sort"

	"slamshare/internal/geom"
)

// solveRef is Solve as it stood before its buffers were hoisted out of
// the iteration loop and the Schur complement was formed in place: the
// same algorithm with every floating-point operation in the same order,
// kept verbatim as the oracle FuzzSolveMatchesRef holds Solve to, bit
// for bit.
func (p *BAProblem) solveRef(maxIters int) BAResult {
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
	res.InitChi2 = p.chi2(nil)
	lambda := 1e-4
	cur := res.InitChi2
	for iter := 0; iter < maxIters; iter++ {
		res.Iterations = iter + 1
		// Assemble the normal equations in block form.
		hcc := make([]float64, (nv*6)*(nv*6)) // dense camera block (local windows are small)
		bc := make([]float64, nv*6)
		hpp := make([][9]float64, np) // 3x3 per point
		bp := make([]geom.Vec3, np)   // rhs per point
		hcp = hcp[:0]

		for _, oi := range order {
			if res.Outliers[oi] {
				continue
			}
			ob := &p.Obs[oi]
			cv := camVar[ob.Cam]
			tcw := p.Cams[ob.Cam]
			pc := tcw.Apply(p.Points[ob.Pt])
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
			// Camera Jacobian rows (rows x 6).
			var jc [3][6]float64
			if cv >= 0 {
				hat := pc.Hat()
				for rr := 0; rr < rows; rr++ {
					jc[rr][0] = jp[rr][0]
					jc[rr][1] = jp[rr][1]
					jc[rr][2] = jp[rr][2]
					for c := 0; c < 3; c++ {
						jc[rr][3+c] = -(jp[rr][0]*hat[0*3+c] + jp[rr][1]*hat[1*3+c] + jp[rr][2]*hat[2*3+c])
					}
				}
			}
			// Point Jacobian rows (rows x 3): J_proj * R.
			rot := tcw.R.Mat()
			var jpt [3][3]float64
			for rr := 0; rr < rows; rr++ {
				for c := 0; c < 3; c++ {
					jpt[rr][c] = jp[rr][0]*rot[0*3+c] + jp[rr][1]*rot[1*3+c] + jp[rr][2]*rot[2*3+c]
				}
			}
			// Accumulate camera-camera block.
			if cv >= 0 {
				base := cv * 6
				for rr := 0; rr < rows; rr++ {
					for a := 0; a < 6; a++ {
						bc[base+a] -= w * jc[rr][a] * resv[rr]
						for c := 0; c < 6; c++ {
							hcc[(base+a)*(nv*6)+base+c] += w * jc[rr][a] * jc[rr][c]
						}
					}
				}
			}
			// Point-point block and rhs.
			pp := &hpp[ob.Pt]
			for rr := 0; rr < rows; rr++ {
				for a := 0; a < 3; a++ {
					switch a {
					case 0:
						bp[ob.Pt].X -= w * jpt[rr][a] * resv[rr]
					case 1:
						bp[ob.Pt].Y -= w * jpt[rr][a] * resv[rr]
					default:
						bp[ob.Pt].Z -= w * jpt[rr][a] * resv[rr]
					}
					for c := 0; c < 3; c++ {
						pp[a*3+c] += w * jpt[rr][a] * jpt[rr][c]
					}
				}
			}
			// Camera-point block.
			if cv >= 0 {
				hcp = append(hcp, cpBlock{cv: cv, pt: ob.Pt})
				blk := &hcp[len(hcp)-1].blk
				for rr := 0; rr < rows; rr++ {
					for a := 0; a < 6; a++ {
						for c := 0; c < 3; c++ {
							blk[a*3+c] += w * jc[rr][a] * jpt[rr][c]
						}
					}
				}
			}
		}
		// LM damping.
		for i := 0; i < nv*6; i++ {
			hcc[i*(nv*6)+i] *= 1 + lambda
			hcc[i*(nv*6)+i] += 1e-9
		}
		hppInv := make([][9]float64, np)
		for i := 0; i < np; i++ {
			m := hpp[i]
			for d := 0; d < 3; d++ {
				m[d*3+d] *= 1 + lambda
				m[d*3+d] += 1e-9
			}
			inv, ok := invert3(m)
			if !ok {
				// Unconstrained point: zero inverse freezes it.
				inv = [9]float64{}
			}
			hppInv[i] = inv
		}
		// Schur complement: S = Hcc - Hcp Hpp^-1 Hcp^T,
		// rhs = bc - Hcp Hpp^-1 bp.
		s := make([]float64, len(hcc))
		copy(s, hcc)
		rhs := make([]float64, len(bc))
		copy(rhs, bc)
		for lo, hi := 0, 0; lo < len(hcp); lo = hi {
			hi = run(lo)
			pt, ents := hcp[lo].pt, hcp[lo:hi]
			inv := hppInv[pt]
			bpv := [3]float64{bp[pt].X, bp[pt].Y, bp[pt].Z}
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
				// rhs -= Hcp * y
				for a := 0; a < 6; a++ {
					for c := 0; c < 3; c++ {
						rhs[cv1*6+a] -= b1[a*3+c] * y[c]
					}
				}
				// W = Hcp * Hpp^-1 (6x3)
				var wblk [18]float64
				for a := 0; a < 6; a++ {
					for c := 0; c < 3; c++ {
						for k := 0; k < 3; k++ {
							wblk[a*3+c] += b1[a*3+k] * inv[k*3+c]
						}
					}
				}
				for i2 := range ents {
					cv2 := ents[i2].cv
					b2 := &ents[i2].blk
					// S[cv1, cv2] -= W * Hcp2^T
					for a := 0; a < 6; a++ {
						for c := 0; c < 6; c++ {
							var acc float64
							for k := 0; k < 3; k++ {
								acc += wblk[a*3+k] * b2[c*3+k]
							}
							s[(cv1*6+a)*(nv*6)+cv2*6+c] -= acc
						}
					}
				}
			}
		}
		// Solve the reduced camera system.
		delta := make([]float64, len(rhs))
		copy(delta, rhs)
		sC := make([]float64, len(s))
		copy(sC, s)
		camOK := nv > 0 && geom.CholeskySolve(sC, delta, nv*6) == nil
		// Back-substitute points: dp = Hpp^-1 (bp - Hcp^T dc).
		newCams := make([]geom.SE3, nc)
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
		newPts := make([]geom.Vec3, np)
		copy(newPts, p.Points)
		for lo, hi := 0, 0; lo < len(hcp); lo = hi {
			hi = run(lo)
			pt, ents := hcp[lo].pt, hcp[lo:hi]
			bpv := [3]float64{bp[pt].X, bp[pt].Y, bp[pt].Z}
			if camOK {
				for i := range ents {
					cv := ents[i].cv
					b := &ents[i].blk
					for c := 0; c < 3; c++ {
						for a := 0; a < 6; a++ {
							bpv[c] -= b[a*3+c] * delta[cv*6+a]
						}
					}
				}
			}
			inv := hppInv[pt]
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
