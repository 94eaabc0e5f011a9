// Package mapping implements the local-mapping half of SLAM (the
// paper's "Local Mapping" in Process A of Fig. 3): when tracking
// promotes a frame to a keyframe, the mapper triangulates new map
// points against covisible keyframes, fuses duplicate observations,
// culls weakly supported points, and refines the local window with
// bundle adjustment.
package mapping

import (
	"math"
	"slices"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/obs"
	"slamshare/internal/optimize"
	"slamshare/internal/smap"
)

// Config tunes the local mapper.
type Config struct {
	// TriangulateNeighbors is how many covisible keyframes to
	// triangulate new points against (monocular).
	TriangulateNeighbors int
	// ReprojTol is the reprojection acceptance tolerance in pixels.
	ReprojTol float64
	// BAWindow is the number of covisible keyframes adjusted together.
	BAWindow int
	// BAEvery runs local BA once per this many keyframes (1 = always).
	BAEvery int
	// BAIters caps LM iterations per local adjustment.
	BAIters int
	// CullMinObs: points observed by fewer keyframes than this, and
	// older than CullAgeKFs keyframes, are removed.
	CullMinObs int
	CullAgeKFs int
}

// DefaultConfig returns the mapper settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		TriangulateNeighbors: 3,
		ReprojTol:            2.5,
		BAWindow:             5,
		BAEvery:              2,
		BAIters:              8,
		CullMinObs:           2,
		CullAgeKFs:           3,
	}
}

// Stats reports what one ProcessKeyFrame call did.
type Stats struct {
	Created   int
	Fused     int
	Culled    int
	KFsCulled int
	RanBA     bool
	BADur     time.Duration
	TotalDur  time.Duration
}

// Mapper maintains one client's contribution to a map.
type Mapper struct {
	Map    *smap.Map
	Rig    camera.Rig
	Alloc  *smap.IDAllocator
	Client int
	Cfg    Config
	// Obs, when non-nil, records local-mapping spans (whole keyframe
	// integration and the local BA share) keyed by (client, keyframe
	// ordinal).
	Obs *obs.Tracer
	// AfterBA, when non-nil, runs after each local bundle adjustment —
	// the quiet moment the server hangs map-lifecycle maintenance
	// (keyframe culling, cold-region eviction) on, off the per-frame
	// hot path.
	AfterBA func()

	stKF, stBA *obs.Stage

	kfCount int
	// recent tracks recently created points for age-based culling:
	// point id -> keyframe count at creation.
	recent map[smap.ID]int
}

// New returns a mapper over the given (possibly shared) map.
func New(m *smap.Map, rig camera.Rig, alloc *smap.IDAllocator, client int, cfg Config) *Mapper {
	if cfg.BAWindow == 0 {
		cfg = DefaultConfig()
	}
	return &Mapper{Map: m, Rig: rig, Alloc: alloc, Client: client, Cfg: cfg, recent: make(map[smap.ID]int)}
}

// ProcessKeyFrame integrates a freshly inserted keyframe into the map.
func (mm *Mapper) ProcessKeyFrame(kf *smap.KeyFrame) Stats {
	t0 := time.Now()
	if mm.Obs != nil && mm.stKF == nil {
		mm.stKF = mm.Obs.Stage("mapping.keyframe")
		mm.stBA = mm.Obs.Stage("mapping.local_ba")
	}
	var st Stats
	mm.kfCount++
	st.Culled = mm.cullPoints()
	if mm.Rig.Mode == camera.Mono {
		st.Created = mm.triangulateNew(kf)
	}
	st.Fused = mm.fuse(kf)
	st.KFsCulled = mm.cullKeyFrames(kf)
	mm.Map.UpdateConnections(kf.ID, 15)
	if mm.Cfg.BAEvery > 0 && mm.kfCount%mm.Cfg.BAEvery == 0 {
		tb := time.Now()
		mm.localBA(kf)
		st.RanBA = true
		st.BADur = time.Since(tb)
		mm.stBA.Observe(tb, st.BADur, uint32(mm.Client), uint64(mm.kfCount))
		if mm.AfterBA != nil {
			mm.AfterBA()
		}
	}
	st.TotalDur = time.Since(t0)
	mm.stKF.Observe(t0, st.TotalDur, uint32(mm.Client), uint64(mm.kfCount))
	return st
}

// cullPoints removes recently created points that never gathered
// enough observations, by ascending ID: the erasures reach the journal
// in that order.
func (mm *Mapper) cullPoints() int {
	ids := make([]smap.ID, 0, len(mm.recent))
	for id := range mm.recent {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	culled := 0
	for _, id := range ids {
		age := mm.kfCount - mm.recent[id]
		nobs, ok := mm.Map.PointObsCount(id)
		if !ok {
			delete(mm.recent, id)
			continue
		}
		if age >= mm.Cfg.CullAgeKFs {
			if nobs < mm.Cfg.CullMinObs {
				mm.Map.EraseMapPoint(id)
				culled++
			}
			delete(mm.recent, id)
		}
	}
	return culled
}

// ORB-SLAM's keyframe-culling rule: a keyframe tracking more than
// cullMinTracked points is redundant when more than cullRatio of them
// are observed by at least cullMinObs keyframes, itself included (so
// by three others).
const (
	cullMinTracked = 30
	cullMinObs     = 4
	cullRatio      = 0.92
)

// Redundancy scores keyframe id for culling: score is the fraction of
// its tracked points (bindings to live map points) that at least
// cullMinObs keyframes observe, and redundant is the culling decision.
// It is the one culling rule: the mapper's per-keyframe sweep and the
// lifecycle manager's budget pass both erase by it.
func Redundancy(m *smap.Map, id smap.ID) (score float64, redundant bool) {
	_, bindings, ok := m.KeyFrameState(id)
	if !ok {
		return 0, false
	}
	total, seen := 0, 0
	for _, mpID := range bindings {
		if mpID == 0 {
			continue
		}
		nobs, ok := m.PointObsCount(mpID)
		if !ok {
			continue
		}
		total++
		if nobs >= cullMinObs {
			seen++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(seen) / float64(total), total > cullMinTracked && float64(seen) > cullRatio*float64(total)
}

// cullKeyFrames erases this client's redundant keyframes in kf's
// covisibility window, keeping the map compact. It counts the erases
// that removed a keyframe, not those another session beat it to.
func (mm *Mapper) cullKeyFrames(kf *smap.KeyFrame) int {
	culled := 0
	for _, cand := range mm.Map.Covisible(kf.ID, mm.Cfg.BAWindow) {
		if cand.ID == kf.ID || cand.Client != mm.Client {
			continue
		}
		if _, redundant := Redundancy(mm.Map, cand.ID); !redundant {
			continue
		}
		if mm.Map.EraseKeyFrame(cand.ID) {
			culled++
		}
	}
	return culled
}

// triangulateNew creates monocular map points by matching kf's unbound
// keypoints against its best covisible neighbours and triangulating.
func (mm *Mapper) triangulateNew(kf *smap.KeyFrame) int {
	// All pose/binding state is read through stripe-locked snapshots:
	// other sessions track against and adjust these keyframes
	// concurrently. Keypoints are immutable after insertion and safe to
	// share. The local binding copies are kept current as observations
	// are added so this pass never double-binds a keypoint.
	kfTcw, kfBind, ok := mm.Map.KeyFrameState(kf.ID)
	if !ok {
		return 0
	}
	kfCenter := kfTcw.Inverse().T
	neighbors := mm.Map.Covisible(kf.ID, mm.Cfg.TriangulateNeighbors)
	created := 0
	for _, nb := range neighbors {
		nbTcw, nbBind, ok := mm.Map.KeyFrameState(nb.ID)
		if !ok {
			continue
		}
		// Baseline check: skip neighbours too close for parallax.
		if kfCenter.Dist(nbTcw.Inverse().T) < 0.03 {
			continue
		}
		// Collect unbound keypoints on both sides.
		ai := unboundIdx(kfBind)
		bi := unboundIdx(nbBind)
		if len(ai) == 0 || len(bi) == 0 {
			continue
		}
		a := subset(kf.Keypoints, ai)
		b := subset(nb.Keypoints, bi)
		matches := feature.MatchBrute(a, b, feature.MatchThresholdStrict, feature.RatioTest)
		for _, m := range matches {
			ia, ib := ai[m.A], bi[m.B]
			if kfBind[ia] != 0 || nbBind[ib] != 0 {
				continue
			}
			pw, ok := optimize.Triangulate(mm.Rig.Intr, kfTcw, nbTcw, kf.Keypoints[ia].Pt(), nb.Keypoints[ib].Pt())
			if !ok {
				continue
			}
			if !mm.reprojectsWithin(kfTcw, pw, kf.Keypoints[ia].Pt()) ||
				!mm.reprojectsWithin(nbTcw, pw, nb.Keypoints[ib].Pt()) {
				continue
			}
			mp := &smap.MapPoint{
				ID:     mm.Alloc.Next(),
				Client: mm.Client,
				Pos:    pw,
				Desc:   kf.Keypoints[ia].Desc,
				Normal: pw.Sub(kfCenter).Normalized(),
				RefKF:  kf.ID,
			}
			mm.Map.AddMapPoint(mp)
			_ = mm.Map.AddObservation(kf.ID, mp.ID, ia)
			_ = mm.Map.AddObservation(nb.ID, mp.ID, ib)
			kfBind[ia], nbBind[ib] = mp.ID, mp.ID
			mm.recent[mp.ID] = mm.kfCount
			created++
		}
	}
	return created
}

func (mm *Mapper) reprojectsWithin(tcw geom.SE3, pw geom.Vec3, uv geom.Vec2) bool {
	px, ok := mm.Rig.Intr.Project(tcw.Apply(pw))
	return ok && px.Sub(uv).Norm() <= mm.Cfg.ReprojTol
}

func unboundIdx(bindings []smap.ID) []int {
	var out []int
	for i, id := range bindings {
		if id == 0 {
			out = append(out, i)
		}
	}
	return out
}

func subset(kps []feature.Keypoint, idx []int) []feature.Keypoint {
	out := make([]feature.Keypoint, len(idx))
	for i, j := range idx {
		out[i] = kps[j]
	}
	return out
}

// fuse projects the local map points of kf's neighbours into kf and
// binds unambiguous matches to unbound keypoints, densifying the
// covisibility graph.
func (mm *Mapper) fuse(kf *smap.KeyFrame) int {
	// The window points come from the immutable LocalView snapshot and
	// the keyframe's bindings from a stripe-locked copy; the live
	// MapPoints and Obs slices are written by other sessions
	// concurrently and must not be read here.
	view := mm.Map.LocalView(kf.ID, mm.Cfg.BAWindow)
	kfTcw, bindings, ok := mm.Map.KeyFrameState(kf.ID)
	if !ok {
		return 0
	}
	grid := newKPGrid(kf.Keypoints, mm.Rig.Intr.Width, mm.Rig.Intr.Height, mm.Cfg.ReprojTol)
	fused, looked, compared := 0, 0, 0
	bound := make(map[smap.ID]bool)
	for _, id := range bindings {
		if id != 0 {
			bound[id] = true
		}
	}
	for pi := range view.Points {
		mp := &view.Points[pi]
		if bound[mp.ID] {
			continue
		}
		if mm.Map.HasObservation(mp.ID, kf.ID) {
			continue
		}
		px, visible := mm.Rig.WorldToPixel(kfTcw, mp.Pos)
		if !visible {
			continue
		}
		bestI, l, c := grid.match(kf.Keypoints, bindings, px, mp.Desc)
		looked, compared = looked+l, compared+c
		if bestI >= 0 {
			if err := mm.Map.AddObservation(kf.ID, mp.ID, bestI); err == nil {
				bindings[bestI] = mp.ID
				bound[mp.ID] = true
				fused++
			}
		}
	}
	reg := mm.Obs.Registry()
	reg.Counter("mapping.fuse_keypoints").Add(int64(looked))
	reg.Counter("mapping.fuse_comparisons").Add(int64(compared))
	return fused
}

// kpGrid buckets a keyframe's keypoints into square cells, in index
// order within a cell, so that fusion looks only at the keypoints near
// a projection instead of at every keypoint of the keyframe.
type kpGrid struct {
	r2    float64 // fusion radius, squared
	reach float64 // how far from a projection the cell walk looks
	cell  float64 // cell side in pixels
	cols  int
	rows  int
	start []int32 // cell r*cols+c holds idx[start[r*cols+c]:start[r*cols+c+1]]
	idx   []int32
}

// newKPGrid buckets kps, finite keypoints of a width x height image,
// for fusion within 2·tol pixels. A keypoint off the image goes to the
// nearest edge cell, where every walk that reaches past the edge looks.
func newKPGrid(kps []feature.Keypoint, width, height int, tol float64) *kpGrid {
	r2 := tol * tol * 4
	// The walk reaches a micro-pixel past the radius, so rounding in the
	// radius test can never accept a keypoint in a cell it skips. The
	// cell floor keeps the grid small for a tiny tolerance.
	g := &kpGrid{r2: r2, reach: math.Sqrt(r2) + 1e-6, cell: 8}
	if 2*g.reach > g.cell {
		g.cell = 2 * g.reach
	}
	g.cols = max(1, int(math.Ceil(float64(width)/g.cell)))
	g.rows = max(1, int(math.Ceil(float64(height)/g.cell)))
	g.start = make([]int32, g.cols*g.rows+1)
	for i := range kps {
		g.start[g.cellOf(&kps[i])+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	next := slices.Clone(g.start[:len(g.start)-1])
	g.idx = make([]int32, len(kps))
	for i := range kps {
		c := g.cellOf(&kps[i])
		g.idx[next[c]] = int32(i)
		next[c]++
	}
	return g
}

// axis returns the cell, of the n along one axis, that coordinate v
// falls in, clamped to the grid.
func (g *kpGrid) axis(v float64, n int) int {
	f := math.Floor(v / g.cell)
	switch {
	case !(f > 0):
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

func (g *kpGrid) cellOf(kp *feature.Keypoint) int {
	return g.axis(kp.Y, g.rows)*g.cols + g.axis(kp.X, g.cols)
}

// span returns the first and last cell, along an axis of n cells, that
// the walk around coordinate v visits.
func (g *kpGrid) span(v float64, n int) (lo, hi int) {
	top := v + g.reach
	if top != top { // a NaN passes the radius test everywhere
		return 0, n - 1
	}
	return g.axis(v-g.reach, n), g.axis(top, n)
}

// match picks the keypoint fusion binds a point with descriptor desc,
// projected at px, to: among the unbound keypoints within the radius,
// the one whose descriptor is nearest, at most MatchThresholdStrict
// away, the lowest index on a tie; -1 when there is none. That is what
// a scan over every keypoint in index order picks (fuseMatchLinear,
// the test oracle). It also returns how many keypoints it looked at
// and how many descriptors it compared.
func (g *kpGrid) match(kps []feature.Keypoint, bindings []smap.ID, px geom.Vec2, desc feature.Descriptor) (best, looked, compared int) {
	best, bestD := -1, feature.MatchThresholdStrict+1
	c0, c1 := g.span(px.X, g.cols)
	r0, r1 := g.span(px.Y, g.rows)
	for r := r0; r <= r1; r++ {
		// The cells c0..c1 of one row are contiguous in idx.
		cells := g.idx[g.start[r*g.cols+c0]:g.start[r*g.cols+c1+1]]
		looked += len(cells)
		for _, i := range cells {
			if bindings[i] != 0 {
				continue
			}
			kp := &kps[i]
			dx := kp.X - px.X
			dy := kp.Y - px.Y
			if dx*dx+dy*dy > g.r2 {
				continue
			}
			compared++
			if d := feature.Distance(desc, kp.Desc); d < bestD || d == bestD && int(i) < best {
				best, bestD = int(i), d
			}
		}
	}
	return best, looked, compared
}

// localBA bundle-adjusts the covisibility window around kf — its
// strongest neighbours, then kf — and every map point the window
// observes, with up to eight outside observers of those points held
// fixed. Until there are outside observers the strongest neighbour
// anchors the gauge.
func (mm *Mapper) localBA(kf *smap.KeyFrame) {
	window := windowIDs(mm.Map, kf.ID, mm.Cfg.BAWindow-1)
	bf := 0.0
	if mm.Rig.Mode == camera.Stereo {
		bf = mm.Rig.Intr.Fx * mm.Rig.Baseline
	}
	outliers := BundleAdjust(mm.Map, mm.Map, mm.Rig.Intr, bf, window, nil, 8, 10, mm.Cfg.BAIters, mm.Obs)
	// Detach observations flagged as outliers so they stop polluting
	// future tracking and adjustments.
	for _, o := range outliers {
		mm.Map.DetachObservation(o.kf, o.mp, o.idx)
	}
}
