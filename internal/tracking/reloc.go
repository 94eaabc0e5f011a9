package tracking

import (
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/optimize"
	"slamshare/internal/smap"
)

// relocalize attempts to recover a lost tracker by bag-of-words place
// recognition: the frame is matched against candidate keyframes from
// the map's BoW index, their map points are matched to the frame's
// keypoints, and a pose is solved from the 2D-3D correspondences
// (ORB-SLAM3's relocalization, which the paper inherits). The pose
// solve is seeded from the client's dead-reckoned prior when one is
// available — the paper's Alg. 1 keeps the device extrapolating
// through tracking gaps, so the prior is usually within a metre of
// truth, while in a self-similar environment (a street grid) the BoW
// candidate's own pose can be tens of metres away, outside the
// optimizer's convergence basin. The candidate pose remains the
// fallback seed for priorless recovery. Returns true and fills
// fr.Tcw / fr.MPs on success.
func (t *Tracker) relocalize(fr *Frame, prior *geom.SE3) bool {
	voc := t.Map.Vocabulary()
	if voc == nil || len(fr.Kps) == 0 {
		return false
	}
	descs := make([]feature.Descriptor, len(fr.Kps))
	for i, kp := range fr.Kps {
		descs[i] = kp.Desc
	}
	bv := voc.BowOf(descs)
	if t.Reload != nil {
		t.Reload(bv)
	}
	cands := t.Map.QueryBow(bv, 5, nil)
	for _, cand := range cands {
		if t.tryRelocAgainst(fr, cand.ID, prior) {
			return true
		}
	}
	return false
}

// tryRelocAgainst matches the frame against one candidate keyframe's
// map points (smap.ObservedPoints) and solves the pose.
func (t *Tracker) tryRelocAgainst(fr *Frame, kfID smap.ID, prior *geom.SE3) bool {
	seedTcw, mpKps, mpIDs, mpPos := t.Map.ObservedPoints(kfID)
	if len(mpKps) < t.Cfg.MinInliers {
		return false
	}
	matches := feature.MatchBrute(fr.Kps, mpKps, feature.MatchThresholdLoose, 0.9)
	if len(matches) < t.Cfg.MinInliers {
		return false
	}
	var pts []geom.Vec3
	var uvs []geom.Vec2
	var kpIdx []int
	var ids []smap.ID
	for _, m := range matches {
		pts = append(pts, mpPos[m.B])
		uvs = append(uvs, fr.Kps[m.A].Pt())
		kpIdx = append(kpIdx, m.A)
		ids = append(ids, mpIDs[m.B])
	}
	if len(pts) < t.Cfg.MinInliers {
		return false
	}
	// Two attempts, ORB-SLAM-style. First, guided: gate the brute
	// matches by reprojection at the client's dead-reckoned prior and
	// solve from the prior. Descriptor-only matching in a self-similar
	// environment (repeated facades down a street grid) is mostly
	// outliers, which swamps the Huber kernel; the prior is usually
	// within a metre of truth (the paper's Alg. 1 keeps devices
	// extrapolating through gaps), so the gate leaves a clean set.
	// Second, the classic fallback for priorless recovery: all matches
	// seeded at the candidate keyframe's pose.
	var res optimize.PoseResult
	solved := false
	var sKp []int
	var sIDs []smap.ID
	if prior != nil {
		const gatePx2 = 20 * 20
		var fPts []geom.Vec3
		var fUvs []geom.Vec2
		var fKp []int
		var fIDs []smap.ID
		for i := range pts {
			pc := prior.Apply(pts[i])
			if pc.Z < 0.05 {
				continue
			}
			px := t.Rig.Intr.ProjectUnchecked(pc)
			if px.Sub(uvs[i]).NormSq() > gatePx2 {
				continue
			}
			fPts = append(fPts, pts[i])
			fUvs = append(fUvs, uvs[i])
			fKp = append(fKp, kpIdx[i])
			fIDs = append(fIDs, ids[i])
		}
		if len(fPts) >= t.Cfg.MinInliers {
			res = optimize.OptimizePose(t.Rig.Intr, *prior, fPts, fUvs, nil)
			if res.NInliers >= t.Cfg.MinInliers {
				solved = true
				sKp, sIDs = fKp, fIDs
			}
		}
	}
	if !solved {
		res = optimize.OptimizePose(t.Rig.Intr, seedTcw, pts, uvs, nil)
		if res.NInliers >= t.Cfg.MinInliers {
			solved = true
			sKp, sIDs = kpIdx, ids
		}
	}
	if !solved {
		return false
	}
	fr.Tcw = res.Pose
	for i := range fr.MPs {
		fr.MPs[i] = 0
	}
	for k, inl := range res.Inliers {
		if inl {
			fr.MPs[sKp[k]] = sIDs[k]
		}
	}
	// Re-anchor the reference keyframe at the relocalization site so
	// search-local-points pulls the right neighbourhood.
	t.refKF = kfID
	return true
}
