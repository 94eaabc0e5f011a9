package feature

import (
	"math"

	"slamshare/internal/img"
)

// Acceptance of the stereo block search. A disparity is taken when its
// block's sum of absolute differences is at most stereoMaxSAD (a mean
// of 3 grey levels a pixel: sensor noise and codec loss, not another
// surface) and every disparity not next to it scores more than
// stereoMargin times that. Neither decides how many keypoints get a
// depth: a true match scores ~70 on the synthetic sequences and the
// next best ~3500, so from a margin of 1.25 to one of 10 and a ceiling
// of 128 to 256 the yield moves by 4 %.
//
// What decides it is stereoDominance. The search is sound on 78–88 %
// of a frame's keypoints, ~2.5 times as many as the descriptor matcher
// (StereoMatchPar) gave a depth, every stereo keypoint of a keyframe
// becomes a map point, and the mapper, the merger and the journal cost
// in proportion: that is twice the server's CPU per split-mode frame.
// The matcher's depths were the keypoints both eyes' extractions kept,
// and a map made of those is re-observed. So a keypoint is searched
// only if no keypoint of its level within stereoDominance radians of
// view (times the level's scale) has a higher FAST score: the
// quadtree keeps the best corner of a cell, so a corner with a stronger
// neighbour is kept only while a cell boundary falls between the two,
// and from the next viewpoint it does not. At 0.03 (14 px on EuRoC's
// level 0) that is 1.25 times the matcher's depths over V202, TUM-fr1
// and unseen seeds of MH04/MH05 (TestStereoSearchYield), its tracked
// inliers per frame, and its server CPU per split-mode frame. A wider
// radius is cheaper and holds the matcher's yield to +15 %, but at
// 0.035–0.04 two sessions' maps meet 15–20 cm apart where they had met
// 5 cm apart (the benchmark's duo_split allows 25).
const (
	stereoBlock     = 8 // block edge, the width of one img.SAD8
	stereoMaxSAD    = 3 * stereoBlock * stereoBlock
	stereoMargin    = 2
	stereoDominance = 0.03
)

// StereoSearch assigns Right and Depth to kps, the keypoints e.Extract
// returned for left (in that order: level by level, rows ascending),
// from the right image of the rectified pair, without extracting it.
// For each locally dominant keypoint (see stereoDominance) it compares
// the 8×8 level-0 block around the rounded keypoint with the right
// image's block on the same rows at every whole disparity in
// (0.1, fx·baseline/0.3] — nothing behind the camera, nothing closer
// than 0.3 m — and puts a parabola through the best score and its two
// neighbours for the sub-pixel part. The right image is read as pixels
// only: no pyramid, no keypoints, no descriptors. The search runs
// through e.Par; each work item writes only its own keypoint's Right
// and Depth, so any execution order produces identical results.
// Returns the number of keypoints that carry a depth.
func (e *Extractor) StereoSearch(left, right *img.Gray, kps []Keypoint, fx, baseline float64) int {
	if baseline <= 0 || right.W != left.W || right.H != left.H {
		return 0
	}
	par := e.Par
	if par == nil {
		par = SerialRunner{}
	}
	w, h := left.W, left.H
	maxDisp := fx * baseline / 0.3
	par.Run(len(kps), func(i int) {
		k := &kps[i]
		x, y := int(k.X+0.5)-stereoBlock/2, int(k.Y+0.5)-stereoBlock/2
		if x < 0 || y < 0 || x > w-stereoBlock || y > h-stereoBlock ||
			!dominant(kps, i, stereoDominance*fx*math.Pow(e.Cfg.ScaleFactor, float64(k.Level))) {
			return
		}
		// The right block starts at x-d: it leaves the image past d = x.
		dMax := x
		if maxDisp < float64(dMax) {
			dMax = int(maxDisp)
		}
		o := y*w + x
		var rows [stereoBlock]uint64
		for r := range rows {
			rows[r] = img.Load8(left.Pix, o+r*w)
		}
		sad := func(d, limit int) int {
			s, q := 0, o-d
			for _, l := range rows {
				if s += img.SAD8(l, img.Load8(right.Pix, q)); s > limit {
					break
				}
				q += w
			}
			return s
		}
		// best is the lowest score so far and bestD the first disparity
		// to reach it; second is the lowest among the disparities not next
		// to bestD. older is the lowest up to d-2: when d becomes the best
		// those are the disparities before it that are not next to it, the
		// one it took over from among them unless that was d-1. Past limit
		// a candidate is neither a new best nor close enough to spoil one,
		// now or after the best improves, so its sum stops there and
		// stands for "more than the limit it was cut at".
		const none = math.MaxInt
		best, bestD := stereoMaxSAD+1, -1
		limit := stereoMargin * best
		second, older, last := none, none, none
		for d := 1; d <= dMax; d++ {
			s := sad(d, limit)
			if s < best {
				best, bestD, second = s, d, older
				limit = stereoMargin * best
			} else if d > bestD+1 {
				second = min(second, s)
			}
			older, last = min(older, last), s
		}
		if bestD < 0 || second <= limit {
			return
		}
		disp := float64(bestD)
		if bestD < x {
			// Both neighbours in full: the search may have cut them short,
			// and the one outside its range it never saw. A best that is
			// not a minimum among them keeps its whole disparity.
			sm, sp := sad(bestD-1, none), sad(bestD+1, none)
			if sm >= best && sp >= best && sm+sp > 2*best {
				disp += float64(sm-sp) / float64(2*(sm+sp-2*best))
			}
		}
		if disp > maxDisp {
			return
		}
		k.Right = k.X - disp
		k.Depth = fx * baseline / disp
	})
	n := 0
	for i := range kps {
		if kps[i].Right >= 0 {
			n++
		}
	}
	return n
}

// dominant reports whether no keypoint of kps[i]'s level within r
// level-0 pixels of it on both axes has a higher score. It walks
// outwards from i while the level and the rows stay in range, which
// finds every such keypoint when kps is in Extract's order.
func dominant(kps []Keypoint, i int, r float64) bool {
	k := &kps[i]
	for _, step := range [2]int{-1, 1} {
		for j := i + step; j >= 0 && j < len(kps) && kps[j].Level == k.Level && math.Abs(kps[j].Y-k.Y) <= r; j += step {
			if kps[j].Score > k.Score && math.Abs(kps[j].X-k.X) <= r {
				return false
			}
		}
	}
	return true
}
