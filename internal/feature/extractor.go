package feature

import (
	"slices"
	"sync"

	"slamshare/internal/img"
)

// Config parameterizes ORB extraction. The defaults mirror the
// ORB-SLAM3 settings the paper uses (~1000 features over a scale
// pyramid) scaled for the synthetic scenes.
type Config struct {
	NFeatures    int     // target keypoints per image
	Levels       int     // pyramid levels
	ScaleFactor  float64 // pyramid scale step
	Threshold    int     // initial FAST threshold
	MinThreshold int     // fallback threshold in feature-poor cells
	StripRows    int     // rows per detection work item (parallel grain)
}

// DefaultConfig returns the extraction settings used by the
// experiments.
func DefaultConfig() Config {
	return Config{
		NFeatures:    1000,
		Levels:       4,
		ScaleFactor:  1.2,
		Threshold:    40,
		MinThreshold: 12,
		StripRows:    40,
	}
}

// Extractor detects and describes ORB keypoints. Par controls how the
// data-parallel stages (per-strip FAST, per-keypoint description) are
// executed: SerialRunner reproduces the paper's CPU path, a GPU device
// the accelerated one.
type Extractor struct {
	Cfg Config
	Par Parallelizer
}

// NewExtractor returns a sequential extractor with the given config.
func NewExtractor(cfg Config) *Extractor {
	if cfg.NFeatures <= 0 {
		cfg = DefaultConfig()
	}
	return &Extractor{Cfg: cfg, Par: SerialRunner{}}
}

// workItem is one FAST detection strip: a row range of one pyramid
// level.
type workItem struct{ level, y0, y1 int }

// extractScratch holds everything Extract builds on the way to its
// result. Extraction runs once per frame per client, so all of it is
// pooled across calls — the pyramid's level images, the per-item strip
// result buffers (AppendFAST into results[i][:0]), the per-level
// corner lists the quadtree partitions in place, the quadtree's own
// storage and the level's selection, and soa, which stages the describe
// kernel's inputs and outputs in struct-of-arrays form. Only the returned keypoints are
// freshly allocated.
type extractScratch struct {
	pyr      img.Pyramid
	quotas   []int
	items    []workItem
	results  [][]rawCorner
	perLevel [][]rawCorner
	quad     quadScratch
	sel      []rawCorner
	soa      SoA
}

var extractPool = sync.Pool{New: func() any { return new(extractScratch) }}

// Extract runs the full ORB pipeline on an image and returns
// distributed, oriented, described keypoints in level-0 coordinates.
//
// The scratch goes back to its pool when Extract returns, while the
// caller still holds the result: nothing returned may alias scratch.
// The keypoint slice is allocated per call and Keypoint holds no
// pointers, so that is true by construction; keep it so.
func (e *Extractor) Extract(im *img.Gray) []Keypoint {
	par := e.Par
	if par == nil {
		par = SerialRunner{}
	}
	sc := extractPool.Get().(*extractScratch)
	defer extractPool.Put(sc)
	// The pyramid resample batches through the same Parallelizer as the
	// detection kernels: on a pool-backed Stream even this prologue runs
	// under the server-wide run queue instead of on the session's own
	// goroutine, keeping the whole frame's compute run-to-completion.
	pyr := &sc.pyr
	pyr.Build(im, e.Cfg.Levels, e.Cfg.ScaleFactor, par.Run)
	defer func() { pyr.Levels[0] = nil }() // the pool must not pin the caller's image
	nLevels := len(pyr.Levels)

	// Per-level feature quotas proportional to inverse scale (finer
	// levels carry more features), normalized to NFeatures total.
	quotas := sc.quotas
	if cap(quotas) < nLevels {
		quotas = make([]int, nLevels)
		sc.quotas = quotas
	}
	quotas = quotas[:nLevels]
	total := 0.0
	for i := 0; i < nLevels; i++ {
		total += 1 / pyr.Scales[i]
	}
	for i := 0; i < nLevels; i++ {
		quotas[i] = int(float64(e.Cfg.NFeatures) / pyr.Scales[i] / total)
	}

	// Stage 1: FAST detection, parallel over (level, strip) work items.
	strip := e.Cfg.StripRows
	if strip <= 0 {
		strip = 40
	}
	items := sc.items[:0]
	for l := 0; l < nLevels; l++ {
		h := pyr.Levels[l].H
		for y := 0; y < h; y += strip {
			items = append(items, workItem{l, y, min(y+strip, h)})
		}
	}
	sc.items = items
	results := sc.results
	if cap(results) < len(items) {
		results = make([][]rawCorner, len(items))
		sc.results = results
	}
	results = results[:len(items)]
	par.Run(len(items), func(i int) {
		it := items[i]
		c := AppendFAST(results[i][:0], pyr.Levels[it.level], e.Cfg.Threshold, Border, it.y0, it.y1)
		if len(c) == 0 && e.Cfg.MinThreshold < e.Cfg.Threshold {
			c = AppendFAST(c[:0], pyr.Levels[it.level], e.Cfg.MinThreshold, Border, it.y0, it.y1)
		}
		results[i] = c
	})
	perLevel := sc.perLevel
	if cap(perLevel) < nLevels {
		perLevel = make([][]rawCorner, nLevels)
		sc.perLevel = perLevel
	}
	perLevel = perLevel[:nLevels]
	for l := range perLevel {
		perLevel[l] = perLevel[l][:0]
	}
	for i, it := range items {
		perLevel[it.level] = append(perLevel[it.level], results[i]...)
	}

	// Stage 2: quadtree distribution per level. A level yields at most
	// its quota plus the last split's overshoot of 3, which sizes the
	// result in one allocation.
	bound := 0
	for l := 0; l < nLevels; l++ {
		if quotas[l] > 0 {
			bound += min(len(perLevel[l]), quotas[l]+3)
		}
	}
	var kps []Keypoint
	if bound > 0 {
		kps = make([]Keypoint, 0, bound)
	}
	for l := 0; l < nLevels; l++ {
		lv := pyr.Levels[l]
		sc.sel = sc.quad.distribute(sc.sel[:0], perLevel[l], lv.W, lv.H, quotas[l])
		s := pyr.Scales[l]
		for _, c := range sc.sel {
			kps = append(kps, Keypoint{
				X: FromGrid(int(c.x), s), Y: FromGrid(int(c.y), s), Level: l,
				Score: float64(c.score),
				Right: -1,
			})
		}
	}

	// Stage 3: orientation + description, parallel over keypoints. The
	// kernel reads and writes struct-of-arrays staging: each work item
	// touches 8-byte X/Y/angle and 32-byte descriptor cells instead of
	// striding whole ~112-byte Keypoints, so batched workers walking
	// adjacent indices stay cache-dense and don't false-share lines.
	soa := &sc.soa
	soa.Resize(len(kps))
	for i := range kps {
		soa.X[i] = kps[i].X
		soa.Y[i] = kps[i].Y
		soa.Level[i] = int32(kps[i].Level)
	}
	par.Run(len(kps), func(i int) {
		l := soa.Level[i]
		lv := pyr.Levels[l]
		s := pyr.Scales[l]
		x := int(soa.X[i]/s + 0.5)
		y := int(soa.Y[i]/s + 0.5)
		soa.Angle[i] = Orientation(lv, x, y)
		soa.Desc[i] = Describe(lv, x, y, soa.Angle[i])
	})
	for i := range kps {
		kps[i].Angle = soa.Angle[i]
		kps[i].Desc = soa.Desc[i]
	}
	return kps
}

// quadNode is one cell of the distribution quadtree: its bounds and
// the range [lo, hi) of the corner list holding the corners inside it.
type quadNode struct {
	x0, y0, x1, y1 int
	lo, hi         int
}

// quadScratch is the quadtree's reusable storage: the node list and
// the buffer a split partitions through.
type quadScratch struct {
	nodes []quadNode
	tmp   []rawCorner
}

// DistributeQuadtree selects up to n corners spread evenly over the
// image using recursive quadtree subdivision, as ORB-SLAM does: nodes
// containing more than one corner split until the node count reaches
// n (or nodes are unsplittable), then the best corner per node is
// kept. corners is left untouched.
func DistributeQuadtree(corners []rawCorner, w, h, n int) []rawCorner {
	var q quadScratch
	return q.distribute(nil, append([]rawCorner(nil), corners...), w, h, n)
}

// distribute is DistributeQuadtree appending the selection to dst and
// reordering corners in place: a node is a range of corners, and a
// split partitions that range stably into its four quadrants' ranges
// through q.tmp, so corners keep their input order within every node
// — the order the best-per-node tie-break depends on — without a list
// being grown per quadrant per split.
func (q *quadScratch) distribute(dst, corners []rawCorner, w, h, n int) []rawCorner {
	if n <= 0 || len(corners) == 0 {
		return dst
	}
	if len(corners) <= n {
		return append(dst, corners...)
	}
	if cap(q.tmp) < len(corners) {
		q.tmp = make([]rawCorner, len(corners))
	}
	nodes := append(q.nodes[:0], quadNode{0, 0, w, h, 0, len(corners)})
	for len(nodes) < n {
		// Find the node with the most points that can still split.
		best := -1
		for i := range nodes {
			nd := &nodes[i]
			if nd.hi-nd.lo > 1 && nd.x1-nd.x0 > 4 && nd.y1-nd.y0 > 4 {
				if best == -1 || nd.hi-nd.lo > nodes[best].hi-nodes[best].lo {
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
		quadrant := func(p rawCorner) int {
			qi := 0
			if int(p.x) >= mx {
				qi |= 1
			}
			if int(p.y) >= my {
				qi |= 2
			}
			return qi
		}
		pts := corners[nd.lo:nd.hi]
		var end [4]int // end[qi]: where quadrant qi's range ends, from nd.lo
		for _, p := range pts {
			end[quadrant(p)]++
		}
		end[1] += end[0]
		end[2] += end[1]
		end[3] += end[2]
		next := [4]int{0, end[0], end[1], end[2]}
		tmp := q.tmp[:len(pts)]
		for _, p := range pts {
			qi := quadrant(p)
			tmp[next[qi]] = p
			next[qi]++
		}
		copy(pts, tmp)
		// Replace the split node with its non-empty children.
		nodes[best] = nodes[len(nodes)-1]
		nodes = nodes[:len(nodes)-1]
		bounds := [4][4]int{
			{nd.x0, nd.y0, mx, my},
			{mx, nd.y0, nd.x1, my},
			{nd.x0, my, mx, nd.y1},
			{mx, my, nd.x1, nd.y1},
		}
		lo := 0
		for qi := 0; qi < 4; qi++ {
			if end[qi] > lo {
				b := bounds[qi]
				nodes = append(nodes, quadNode{b[0], b[1], b[2], b[3], nd.lo + lo, nd.lo + end[qi]})
			}
			lo = end[qi]
		}
	}
	q.nodes = nodes
	// Best corner per node. The node count can overshoot n by up to 3
	// (the last split); keep the overshoot rather than truncating by
	// score, which would defeat the spatial spreading.
	first := len(dst)
	for _, nd := range nodes {
		best := corners[nd.lo]
		for _, p := range corners[nd.lo+1 : nd.hi] {
			if p.score > best.score {
				best = p
			}
		}
		dst = append(dst, best)
	}
	slices.SortFunc(dst[first:], func(a, b rawCorner) int {
		if a.y != b.y {
			return int(a.y - b.y)
		}
		return int(a.x - b.x)
	})
	return dst
}
