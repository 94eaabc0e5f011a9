package mapping

import (
	"slices"

	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/optimize"
	"slamshare/internal/smap"
)

// obsRef names one keypoint-to-map-point binding of the shared map.
type obsRef struct {
	kf, mp smap.ID
	idx    int
}

// baWindow is a bundle-adjustment problem over the shared map together
// with the map identity of every camera, point and observation in it.
type baWindow struct {
	prob   optimize.BAProblem
	camIDs []smap.ID // prob.Cams[i] is keyframe camIDs[i]
	ptIDs  []smap.ID // prob.Points[i] is map point ptIDs[i]
	refs   []obsRef  // prob.Obs[i] is binding refs[i]
}

// gatherBA assembles the problem: the free keyframes, then the fixed
// ones (a keyframe in both lists is fixed), every map point either
// list observes, up to maxOutside further observers of those points
// held fixed, and every observation of those points by those cameras.
// With no fixed camera at all the first one anchors the gauge. bf > 0
// adds the stereo disparity term.
//
// Everything is numbered in an order the map's contents decide and
// nothing else does — cameras as listed, points as first met walking
// the cameras' keypoints, each point's observers by ascending keyframe
// ID, outside observers as first met walking the points — so the same
// map gives the same problem, bit for bit (DESIGN §4). Poses,
// bindings, positions and observer lists are stripe-locked snapshots:
// the keyframes are shared with other sessions' trackers and mappers.
// Keypoints are immutable and read off the live pointer.
func gatherBA(m *smap.Map, intr camera.Intrinsics, bf float64, free, fixed []smap.ID, maxOutside int) *baWindow {
	w := &baWindow{prob: optimize.BAProblem{Intr: intr, Bf: bf}}
	camIdx := make(map[smap.ID]int)
	var camKps [][]feature.Keypoint
	var bindings [][]smap.ID
	addCam := func(id smap.ID, isFixed bool) bool {
		if _, dup := camIdx[id]; dup {
			return false
		}
		kf, ok := m.KeyFrame(id)
		if !ok {
			return false
		}
		tcw, bound, ok := m.KeyFrameState(id)
		if !ok {
			return false
		}
		camIdx[id] = len(w.camIDs)
		w.camIDs = append(w.camIDs, id)
		w.prob.Cams = append(w.prob.Cams, tcw)
		w.prob.FixedCam = append(w.prob.FixedCam, isFixed)
		camKps = append(camKps, kf.Keypoints)
		bindings = append(bindings, bound)
		return true
	}
	isFixed := make(map[smap.ID]bool, len(fixed))
	for _, id := range fixed {
		isFixed[id] = true
	}
	for _, id := range free {
		if !isFixed[id] {
			addCam(id, false)
		}
	}
	for _, id := range fixed {
		addCam(id, true)
	}
	var ptObs [][]smap.ObsEntry
	seen := make(map[smap.ID]bool)
	for _, bound := range bindings {
		for _, mpID := range bound {
			if mpID == 0 || seen[mpID] {
				continue
			}
			seen[mpID] = true
			if pos, obs, ok := m.PointObs(mpID); ok {
				w.ptIDs = append(w.ptIDs, mpID)
				w.prob.Points = append(w.prob.Points, pos)
				ptObs = append(ptObs, obs)
			}
		}
	}
	for _, obs := range ptObs {
		for _, o := range obs {
			if maxOutside > 0 && addCam(o.KF, true) {
				maxOutside--
			}
		}
	}
	if len(w.prob.FixedCam) > 0 && !slices.Contains(w.prob.FixedCam, true) {
		w.prob.FixedCam[0] = true
	}
	for pi, obs := range ptObs {
		for _, o := range obs {
			ci, ok := camIdx[o.KF]
			if !ok || o.Idx >= len(camKps[ci]) {
				continue
			}
			kp := &camKps[ci][o.Idx]
			w.prob.Obs = append(w.prob.Obs, optimize.Observation{Cam: ci, Pt: pi, UV: kp.Pt(), Right: kp.Right})
			w.refs = append(w.refs, obsRef{kf: o.KF, mp: w.ptIDs[pi], idx: o.Idx})
		}
	}
	return w
}

// windowIDs lists one side of a problem: the anchor's n strongest
// covisible neighbours, then the anchor.
func windowIDs(m *smap.Map, anchor smap.ID, n int) []smap.ID {
	var ids []smap.ID
	for _, kf := range m.Covisible(anchor, n) {
		ids = append(ids, kf.ID)
	}
	return append(ids, anchor)
}

// BundleAdjust is the one place a bundle-adjustment problem is built
// over the shared map (see gatherBA for what goes into it): local
// mapping adjusts a covisibility window with it, the merger the seam
// between two maps. A problem with fewer than minObs observations is
// left alone. Otherwise it is solved for at most iters iterations and
// the result written back through w — the map's own stripe-locked
// setters, which bump versions so concurrent snapshot readers never see
// a torn pose and stale views invalidate, or a merge transaction's
// recording ones. It returns the keyframes and map points it rewrote
// and the observations the solve classed as outliers.
func BundleAdjust(m *smap.Map, w interface {
	SetKeyFramePose(smap.ID, geom.SE3)
	SetMapPointPos(smap.ID, geom.Vec3)
}, intr camera.Intrinsics, bf float64, free, fixed []smap.ID, maxOutside, minObs, iters int) (kfs, mps []smap.ID, outliers []obsRef) {
	win := gatherBA(m, intr, bf, free, fixed, maxOutside)
	if len(win.prob.Obs) < minObs {
		return nil, nil, nil
	}
	res := win.prob.Solve(iters)
	for ci, id := range win.camIDs {
		if !win.prob.FixedCam[ci] {
			w.SetKeyFramePose(id, win.prob.Cams[ci])
			kfs = append(kfs, id)
		}
	}
	for pi, id := range win.ptIDs {
		w.SetMapPointPos(id, win.prob.Points[pi])
	}
	for i, out := range res.Outliers {
		if out {
			outliers = append(outliers, win.refs[i])
		}
	}
	return kfs, win.ptIDs, outliers
}
