package feature

// The extraction loops as they stood before the fast kernels replaced
// them, kept verbatim (names suffixed Ref, scratch unpooled) as the
// oracles the equivalence tests, fuzzers and the golden test's
// first-difference report compare against.

import (
	"math"
	"sort"

	"slamshare/internal/img"
)

// briefPatternRef is the pattern as describeRef knew it, int8 pairs
// (filled after brief.go's init has generated briefPattern: init
// functions run in file-name order).
var briefPatternRef [256][4]int8

func init() {
	for i, p := range briefPattern {
		briefPatternRef[i] = [4]int8{int8(p[0]), int8(p[1]), int8(p[2]), int8(p[3])}
	}
}

// refCorner is rawCorner as the reference loops knew it, int fields
// and all; toRef and fromRef convert at the comparison boundary.
type refCorner struct {
	x, y  int
	score int
}

func toRef(cs []rawCorner) []refCorner {
	out := make([]refCorner, len(cs))
	for i, c := range cs {
		out[i] = refCorner{int(c.x), int(c.y), int(c.score)}
	}
	return out
}

func fromRef(cs []refCorner) []rawCorner {
	if cs == nil {
		return nil
	}
	out := make([]rawCorner, len(cs))
	for i, c := range cs {
		out[i] = rawCorner{int32(c.x), int32(c.y), int32(c.score)}
	}
	return out
}

// fastScoreRef returns the FAST-9 corner score of pixel (x, y): the
// largest sum over a 9-contiguous arc of intensity differences beyond
// the threshold, or 0 if the pixel is not a corner. offsets must be
// the precomputed circle16 offsets into the pixel buffer for this
// image width.
func fastScoreRef(pix []byte, w int, x, y int, t int, offsets *[16]int) int {
	c := int(pix[y*w+x])
	idx := y*w + x
	var diff [16]int
	brighter, darker := 0, 0
	for i := 0; i < 16; i++ {
		v := int(pix[idx+offsets[i]])
		diff[i] = v - c
		if diff[i] > t {
			brighter++
		} else if diff[i] < -t {
			darker++
		}
	}
	if brighter < 9 && darker < 9 {
		return 0
	}
	best := 0
	// Check both polarities for a 9-long contiguous arc, accumulating
	// the margin beyond the threshold as the score.
	for _, sign := range [2]int{1, -1} {
		run, sum := 0, 0
		// Walk the circle twice to handle wraparound arcs.
		for i := 0; i < 32; i++ {
			d := sign * diff[i&15]
			if d > t {
				run++
				sum += d - t
				if run >= 9 && sum > best {
					best = sum
				}
			} else {
				run, sum = 0, 0
			}
			if i >= 16 && run >= 16 {
				break
			}
		}
	}
	return best
}

// appendFASTRef is the strip detector around fastScoreRef: weak
// 4-point pre-test, full score, strip-local 3x3 non-max suppression.
func appendFASTRef(dst []refCorner, im *img.Gray, t int, border int, y0, y1 int) []refCorner {
	if border < 3 {
		border = 3
	}
	if y0 < border {
		y0 = border
	}
	if y1 > im.H-border {
		y1 = im.H - border
	}
	if y0 >= y1 {
		return dst
	}
	var offsets [16]int
	for i, o := range circle16 {
		offsets[i] = o[1]*im.W + o[0]
	}
	pix := im.Pix
	w := im.W
	// First pass: score every corner candidate in the strip.
	rows := make([][]int32, y1-y0)
	var cands []refCorner
	for y := y0; y < y1; y++ {
		rowScores := rows[y-y0]
		for x := border; x < w-border; x++ {
			// High-speed test on pixels 0, 4, 8, 12 of the circle.
			c := int(pix[y*w+x])
			idx := y*w + x
			p0 := int(pix[idx+offsets[0]])
			p8 := int(pix[idx+offsets[8]])
			d0 := p0 - c
			d8 := p8 - c
			if (d0 <= t && d0 >= -t) && (d8 <= t && d8 >= -t) {
				continue
			}
			p4 := int(pix[idx+offsets[4]])
			p12 := int(pix[idx+offsets[12]])
			bright, dark := 0, 0
			for _, d := range [4]int{d0, p4 - c, d8, p12 - c} {
				if d > t {
					bright++
				} else if d < -t {
					dark++
				}
			}
			if bright < 3 && dark < 3 {
				continue
			}
			s := fastScoreRef(pix, w, x, y, t, &offsets)
			if s > 0 {
				if rowScores == nil {
					rowScores = make([]int32, w)
				}
				rowScores[x] = int32(s)
				cands = append(cands, refCorner{x: x, y: y, score: s})
			}
		}
		rows[y-y0] = rowScores
	}
	// Non-max suppression within the strip (3x3 neighbourhood).
	at := func(x, y int) int32 {
		if y < y0 || y >= y1 {
			return 0
		}
		r := rows[y-y0]
		if r == nil {
			return 0
		}
		return r[x]
	}
	// A corner survives if it is strictly greater than the neighbours
	// later in scan order and not smaller than the earlier ones — the
	// standard tie-break that keeps exactly one of two equal adjacent
	// scores.
	for _, c := range cands {
		s := int32(c.score)
		if at(c.x-1, c.y-1) >= s || at(c.x, c.y-1) >= s || at(c.x+1, c.y-1) >= s ||
			at(c.x-1, c.y) >= s ||
			at(c.x+1, c.y) > s ||
			at(c.x-1, c.y+1) > s || at(c.x, c.y+1) > s || at(c.x+1, c.y+1) > s {
			continue
		}
		dst = append(dst, c)
	}
	return dst
}

// orientationRef computes the intensity-centroid orientation of the patch
// around (x, y): the angle of the vector from the patch center to its
// intensity centroid, as in ORB.
func orientationRef(im *img.Gray, x, y int) float64 {
	var m10, m01 int
	for dy := -PatchRadius; dy <= PatchRadius; dy++ {
		yy := y + dy
		if yy < 0 || yy >= im.H {
			continue
		}
		row := im.Row(yy)
		for dx := -PatchRadius; dx <= PatchRadius; dx++ {
			xx := x + dx
			if xx < 0 || xx >= im.W {
				continue
			}
			if dx*dx+dy*dy > PatchRadius*PatchRadius {
				continue
			}
			v := int(row[xx])
			m10 += dx * v
			m01 += dy * v
		}
	}
	return math.Atan2(float64(m01), float64(m10))
}

// describeRef computes the 256-bit rotated-BRIEF descriptor of the patch
// around (x, y) with the given orientation (radians). The point pairs
// of the pattern are steered by the orientation, making the descriptor
// rotation-invariant as in ORB.
func describeRef(im *img.Gray, x, y int, angle float64) Descriptor {
	sin, cos := math.Sincos(angle)
	var d Descriptor
	for i := 0; i < 256; i++ {
		p := briefPatternRef[i]
		// Rotate both sample points by the keypoint orientation.
		ax := int(math.Round(cos*float64(p[0]) - sin*float64(p[1])))
		ay := int(math.Round(sin*float64(p[0]) + cos*float64(p[1])))
		bx := int(math.Round(cos*float64(p[2]) - sin*float64(p[3])))
		by := int(math.Round(sin*float64(p[2]) + cos*float64(p[3])))
		va := im.At(x+ax, y+ay)
		vb := im.At(x+bx, y+by)
		if va < vb {
			d[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return d
}

// distributeQuadtreeRef selects up to n corners spread evenly over the
// image using recursive quadtree subdivision, as ORB-SLAM does: nodes
// containing more than one corner split until the node count reaches
// n (or nodes are unsplittable), then the best corner per node is
// kept.
func distributeQuadtreeRef(corners []refCorner, w, h, n int) []refCorner {
	if n <= 0 || len(corners) == 0 {
		return nil
	}
	if len(corners) <= n {
		out := make([]refCorner, len(corners))
		copy(out, corners)
		return out
	}
	type node struct {
		x0, y0, x1, y1 int
		pts            []refCorner
	}
	nodes := []node{{0, 0, w, h, corners}}
	for len(nodes) < n {
		// Find the node with the most points that can still split.
		best := -1
		for i := range nodes {
			if len(nodes[i].pts) > 1 &&
				nodes[i].x1-nodes[i].x0 > 4 && nodes[i].y1-nodes[i].y0 > 4 {
				if best == -1 || len(nodes[i].pts) > len(nodes[best].pts) {
					best = i
				}
			}
		}
		if best == -1 {
			break
		}
		nd := nodes[best]
		mx := (nd.x0 + nd.x1) / 2
		my := (nd.y0 + nd.y1) / 2
		var quads [4][]refCorner
		for _, p := range nd.pts {
			qi := 0
			if p.x >= mx {
				qi |= 1
			}
			if p.y >= my {
				qi |= 2
			}
			quads[qi] = append(quads[qi], p)
		}
		// Replace the split node with its non-empty children.
		nodes[best] = nodes[len(nodes)-1]
		nodes = nodes[:len(nodes)-1]
		bounds := [4][4]int{
			{nd.x0, nd.y0, mx, my},
			{mx, nd.y0, nd.x1, my},
			{nd.x0, my, mx, nd.y1},
			{mx, my, nd.x1, nd.y1},
		}
		for qi := 0; qi < 4; qi++ {
			if len(quads[qi]) == 0 {
				continue
			}
			b := bounds[qi]
			nodes = append(nodes, node{b[0], b[1], b[2], b[3], quads[qi]})
		}
	}
	// Best corner per node. The node count can overshoot n by up to 3
	// (the last split); keep the overshoot rather than truncating by
	// score, which would defeat the spatial spreading.
	out := make([]refCorner, 0, len(nodes))
	for _, nd := range nodes {
		best := nd.pts[0]
		for _, p := range nd.pts[1:] {
			if p.score > best.score {
				best = p
			}
		}
		out = append(out, best)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].y != out[j].y {
			return out[i].y < out[j].y
		}
		return out[i].x < out[j].x
	})
	return out
}

// stereoMatchParRef is StereoMatch with the per-left-keypoint search run
// through par. Each work item writes only its own left[i], so any
// execution order produces identical matches; nil par runs serially.
func stereoMatchParRef(left, right []Keypoint, fx, baseline float64, rowTol float64, par Parallelizer) int {
	if baseline <= 0 || len(right) == 0 {
		return 0
	}
	// Bucket right keypoints by row for fast lookup.
	byRow := make(map[int][]int)
	for j := range right {
		r := int(right[j].Y + 0.5)
		byRow[r] = append(byRow[r], j)
	}
	tol := int(rowTol + 0.5)
	if tol < 1 {
		tol = 1
	}
	if par == nil {
		par = SerialRunner{}
	}
	par.Run(len(left), func(i int) {
		lk := &left[i]
		r0 := int(lk.Y + 0.5)
		best, second := math.MaxInt32, math.MaxInt32
		bestJ := -1
		for dr := -tol; dr <= tol; dr++ {
			for _, j := range byRow[r0+dr] {
				rk := &right[j]
				disp := lk.X - rk.X
				if disp <= 0.1 || disp > fx*baseline/0.3 {
					continue // behind camera or closer than 0.3 m
				}
				d := Distance(lk.Desc, rk.Desc)
				if d < best {
					second = best
					best = d
					bestJ = j
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

// stereoSearchRef is StereoSearch the plain way: dominance asked of
// every other keypoint, every disparity's block difference summed
// pixel by pixel to the end and kept, the best and the best away from
// it read off the finished table. No walk along the keypoint order, no
// early exit, no running second, no word-wide kernel.
func stereoSearchRef(left, right *img.Gray, kps []Keypoint, fx, baseline, scaleFactor float64) int {
	if baseline <= 0 || right.W != left.W || right.H != left.H {
		return 0
	}
	maxDisp := fx * baseline / 0.3
	for i := range kps {
		k := &kps[i]
		x, y := int(k.X+0.5)-4, int(k.Y+0.5)-4
		if x < 0 || y < 0 || x+8 > left.W || y+8 > left.H {
			continue
		}
		r := stereoDominance * fx * math.Pow(scaleFactor, float64(k.Level))
		dominated := false
		for j := range kps {
			o := &kps[j]
			if o.Level == k.Level && math.Abs(o.X-k.X) <= r && math.Abs(o.Y-k.Y) <= r && o.Score > k.Score {
				dominated = true
			}
		}
		if dominated {
			continue
		}
		sads := make([]int, x+1) // sads[d], every d whose right block is inside the image
		for d := range sads {
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					v := int(left.Pix[(y+r)*left.W+x+c]) - int(right.Pix[(y+r)*right.W+x+c-d])
					if v < 0 {
						v = -v
					}
					sads[d] += v
				}
			}
		}
		bestD := -1
		for d := 1; d <= x && float64(d) <= maxDisp; d++ {
			if bestD < 0 || sads[d] < sads[bestD] {
				bestD = d
			}
		}
		if bestD < 0 || sads[bestD] > stereoMaxSAD {
			continue
		}
		unique := true
		for d := 1; d <= x && float64(d) <= maxDisp; d++ {
			if (d < bestD-1 || d > bestD+1) && sads[d] <= stereoMargin*sads[bestD] {
				unique = false
			}
		}
		if !unique {
			continue
		}
		disp := float64(bestD)
		if bestD+1 <= x {
			s0, sm, sp := sads[bestD], sads[bestD-1], sads[bestD+1]
			if sm >= s0 && sp >= s0 && sm+sp > 2*s0 {
				disp += float64(sm-sp) / float64(2*(sm+sp-2*s0))
			}
		}
		if disp > maxDisp {
			continue
		}
		k.Right = k.X - disp
		k.Depth = fx * baseline / disp
	}
	n := 0
	for i := range kps {
		if kps[i].Right >= 0 {
			n++
		}
	}
	return n
}

// resizeRef is the pre-table bilinear resample (img.Gray.Resize as it
// stood), so the reference pipeline does not share the pyramid kernel
// with the code under test.
func resizeRef(g *img.Gray, w, h int) *img.Gray {
	out := img.New(w, h)
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		fy := (float64(y)+0.5)*sy - 0.5
		y0 := int(fy)
		if y0 < 0 {
			y0 = 0
		}
		y1 := y0 + 1
		if y1 >= g.H {
			y1 = g.H - 1
		}
		wy := fy - float64(y0)
		if wy < 0 {
			wy = 0
		}
		for x := 0; x < w; x++ {
			fx := (float64(x)+0.5)*sx - 0.5
			x0 := int(fx)
			if x0 < 0 {
				x0 = 0
			}
			x1 := x0 + 1
			if x1 >= g.W {
				x1 = g.W - 1
			}
			wx := fx - float64(x0)
			if wx < 0 {
				wx = 0
			}
			v := (1-wy)*((1-wx)*float64(g.At(x0, y0))+wx*float64(g.At(x1, y0))) +
				wy*((1-wx)*float64(g.At(x0, y1))+wx*float64(g.At(x1, y1)))
			out.Set(x, y, byte(v+0.5))
		}
	}
	return out
}

// extractRef is Extractor.Extract as it stood, serial and unpooled,
// over the reference kernels.
func extractRef(cfg Config, im *img.Gray) []Keypoint {
	levels := []*img.Gray{im}
	scales := []float64{1}
	for i := 1; i < cfg.Levels; i++ {
		s := scales[i-1] * cfg.ScaleFactor
		w := int(float64(im.W)/s + 0.5)
		h := int(float64(im.H)/s + 0.5)
		if w < 32 || h < 32 {
			break
		}
		levels = append(levels, resizeRef(levels[i-1], w, h))
		scales = append(scales, s)
	}
	nLevels := len(levels)
	quotas := make([]int, nLevels)
	total := 0.0
	for i := 0; i < nLevels; i++ {
		total += 1 / scales[i]
	}
	for i := 0; i < nLevels; i++ {
		quotas[i] = int(float64(cfg.NFeatures) / scales[i] / total)
	}
	strip := cfg.StripRows
	if strip <= 0 {
		strip = 40
	}
	var kps []Keypoint
	for l := 0; l < nLevels; l++ {
		lv := levels[l]
		var corners []refCorner
		for y := 0; y < lv.H; y += strip {
			y1 := y + strip
			if y1 > lv.H {
				y1 = lv.H
			}
			c := appendFASTRef(nil, lv, cfg.Threshold, Border, y, y1)
			if len(c) == 0 && cfg.MinThreshold < cfg.Threshold {
				c = appendFASTRef(nil, lv, cfg.MinThreshold, Border, y, y1)
			}
			corners = append(corners, c...)
		}
		for _, c := range distributeQuadtreeRef(corners, lv.W, lv.H, quotas[l]) {
			kps = append(kps, Keypoint{
				X: float64(c.x) * scales[l], Y: float64(c.y) * scales[l], Level: l,
				Score: float64(c.score),
				Right: -1,
			})
		}
	}
	for i := range kps {
		k := &kps[i]
		s := scales[k.Level]
		x := int(k.X/s + 0.5)
		y := int(k.Y/s + 0.5)
		k.Angle = orientationRef(levels[k.Level], x, y)
		k.Desc = describeRef(levels[k.Level], x, y, k.Angle)
	}
	return kps
}

// goldenRunRef is goldenRun through the reference pipeline.
func goldenRunRef(c goldenCase) [][]Keypoint {
	left := extractRef(c.cfg, c.left)
	if c.right == nil {
		return [][]Keypoint{left}
	}
	right := extractRef(c.cfg, c.right)
	stereoMatchParRef(left, right, c.fx, c.bl, 2, nil)
	return [][]Keypoint{left, right}
}
