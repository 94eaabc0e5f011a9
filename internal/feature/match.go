package feature

import (
	"math"
	"sync"
)

// Matching thresholds, in Hamming distance over 256-bit descriptors,
// mirroring ORB-SLAM3's TH_LOW/TH_HIGH.
const (
	MatchThresholdStrict = 60
	MatchThresholdLoose  = 90
	// RatioTest is Lowe's ratio: the best match must beat the second
	// best by this factor to be accepted.
	RatioTest = 0.8
)

// Match is a correspondence between two keypoint sets.
type Match struct {
	A, B int // indices into the two keypoint slices
	Dist int // Hamming distance
}

// MatchBrute matches descriptors of a against b by exhaustive search
// with a distance threshold and Lowe's ratio test. It is the
// bag-of-words-free fallback used for small sets.
func MatchBrute(a, b []Keypoint, maxDist int, ratio float64) []Match {
	var out []Match
	for i := range a {
		best, second := math.MaxInt32, math.MaxInt32
		bestJ := -1
		for j := range b {
			d := Distance(a[i].Desc, b[j].Desc)
			if d < best {
				second = best
				best = d
				bestJ = j
			} else if d < second {
				second = d
			}
		}
		if bestJ < 0 || best > maxDist {
			continue
		}
		if second < math.MaxInt32 && float64(best) >= ratio*float64(second) {
			continue
		}
		out = append(out, Match{A: i, B: bestJ, Dist: best})
	}
	return out
}

// StereoMatch assigns Right and Depth to the left keypoints by
// searching the right keypoints along the same image row (rectified
// epipolar constraint). fx and baseline convert disparity to depth.
// rowTol is the vertical matching tolerance in pixels. Returns the
// number of stereo matches found.
//
// It needs the right image extracted, which cost the tracker as much
// as the left: the serving path calls Extractor.StereoSearch instead.
// The matcher stays as the oracle StereoSearch's depth and yield tests
// compare against, and for bench/'s feature.stereo_match kernel.
func StereoMatch(left, right []Keypoint, fx, baseline float64, rowTol float64) int {
	return StereoMatchPar(left, right, fx, baseline, rowTol, nil)
}

// rowIndex buckets keypoint indices by image row: the indices of row
// lo+r are order[start[r]:start[r+1]], ascending — a counting sort, so
// a row's candidates come out in the order they were put in. start
// carries one spare trailing cell the sort counts through.
type rowIndex struct {
	lo    int
	start []int32
	order []int32
}

// maxStereoRow bounds the rows a rowIndex spans, and with it the size
// of its table; keypoint rows are image rows, give or take.
const maxStereoRow = 1 << 16

var rowIndexPool = sync.Pool{New: func() any { return new(rowIndex) }}

// stereoRow is the row a keypoint is bucketed under, and whether it is
// indexed at all: one that is not within maxStereoRow of row 0 is in no
// image this pipeline handles and is left out.
func stereoRow(k *Keypoint) (int, bool) {
	r := int(k.Y + 0.5)
	return r, r > -maxStereoRow && r < maxStereoRow
}

// build indexes kps by stereoRow.
func (ix *rowIndex) build(kps []Keypoint) {
	lo, hi := maxStereoRow, -maxStereoRow
	for j := range kps {
		if r, ok := stereoRow(&kps[j]); ok {
			lo, hi = min(lo, r), max(hi, r)
		}
	}
	ix.lo = lo
	// Count row r at start[r+2]: after the prefix sum start[r+1] is
	// where row r begins, and filling forward through it leaves start[r]
	// there and start[r+1] at its end.
	n := max(hi-lo+1, 0)
	if cap(ix.start) < n+2 {
		ix.start = make([]int32, n+2)
	}
	ix.start = ix.start[:n+2]
	clear(ix.start)
	for j := range kps {
		if r, ok := stereoRow(&kps[j]); ok {
			ix.start[r-lo+2]++
		}
	}
	for r := 2; r < n+2; r++ {
		ix.start[r] += ix.start[r-1]
	}
	if cap(ix.order) < len(kps) {
		ix.order = make([]int32, len(kps))
	}
	ix.order = ix.order[:len(kps)]
	for j := range kps {
		if r, ok := stereoRow(&kps[j]); ok {
			ix.order[ix.start[r-lo+1]] = int32(j)
			ix.start[r-lo+1]++
		}
	}
}

// row returns the indices of the keypoints on image row r.
func (ix *rowIndex) row(r int) []int32 {
	r -= ix.lo
	if r < 0 || r >= len(ix.start)-2 {
		return nil
	}
	return ix.order[ix.start[r]:ix.start[r+1]]
}

// StereoMatchPar is StereoMatch with the per-left-keypoint search run
// through par. Each work item writes only its own left[i], so any
// execution order produces identical matches; nil par runs serially.
func StereoMatchPar(left, right []Keypoint, fx, baseline float64, rowTol float64, par Parallelizer) int {
	if baseline <= 0 || len(right) == 0 {
		return 0
	}
	// Bucket right keypoints by row for fast lookup.
	byRow := rowIndexPool.Get().(*rowIndex)
	defer rowIndexPool.Put(byRow)
	byRow.build(right)
	tol := int(rowTol + 0.5)
	if tol < 1 {
		tol = 1
	}
	if par == nil {
		par = SerialRunner{}
	}
	maxDisp := fx * baseline / 0.3 // closer than 0.3 m
	par.Run(len(left), func(i int) {
		lk := &left[i]
		r0 := int(lk.Y + 0.5)
		best, second := math.MaxInt32, math.MaxInt32
		bestJ := -1
		for dr := -tol; dr <= tol; dr++ {
			for _, j := range byRow.row(r0 + dr) {
				rk := &right[j]
				disp := lk.X - rk.X
				if disp <= 0.1 || disp > maxDisp {
					continue // behind camera or too close
				}
				d := Distance(lk.Desc, rk.Desc)
				if d < best {
					second = best
					best = d
					bestJ = int(j)
				} else if d < second {
					second = d
				}
			}
		}
		if bestJ < 0 || best > MatchThresholdStrict {
			return
		}
		if second < math.MaxInt32 && float64(best) >= RatioTest*float64(second) {
			return
		}
		disp := lk.X - right[bestJ].X
		lk.Right = right[bestJ].X
		lk.Depth = fx * baseline / disp
	})
	n := 0
	for i := range left {
		if left[i].Right >= 0 {
			n++
		}
	}
	return n
}
