// Package mapping implements the local-mapping half of SLAM (the
// paper's "Local Mapping" in Process A of Fig. 3): when tracking
// promotes a frame to a keyframe, the mapper triangulates new map
// points against covisible keyframes, fuses duplicate observations,
// culls weakly supported points, and refines the local window with
// bundle adjustment.
package mapping

import (
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
// enough observations.
func (mm *Mapper) cullPoints() int {
	culled := 0
	for id, born := range mm.recent {
		age := mm.kfCount - born
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
// covisibility window, keeping the map compact. It counts a keyframe
// only once it is gone: a pinned one survives the erase, and a later
// sweep retries it.
func (mm *Mapper) cullKeyFrames(kf *smap.KeyFrame) int {
	culled := 0
	for _, cand := range mm.Map.Covisible(kf.ID, mm.Cfg.BAWindow) {
		if cand.ID == kf.ID || cand.Client != mm.Client {
			continue
		}
		if _, redundant := Redundancy(mm.Map, cand.ID); !redundant {
			continue
		}
		mm.Map.EraseKeyFrame(cand.ID)
		if _, still := mm.Map.KeyFrame(cand.ID); !still {
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
	// MapPoints slice and Obs maps are written by other sessions
	// concurrently and must not be read here.
	view := mm.Map.LocalView(kf.ID, mm.Cfg.BAWindow)
	kfTcw, bindings, ok := mm.Map.KeyFrameState(kf.ID)
	if !ok {
		return 0
	}
	fused := 0
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
		bestI, bestD := -1, feature.MatchThresholdStrict+1
		for i, kp := range kf.Keypoints {
			if bindings[i] != 0 {
				continue
			}
			dx := kp.X - px.X
			dy := kp.Y - px.Y
			if dx*dx+dy*dy > mm.Cfg.ReprojTol*mm.Cfg.ReprojTol*4 {
				continue
			}
			if d := feature.Distance(mp.Desc, kp.Desc); d < bestD {
				bestI, bestD = i, d
			}
		}
		if bestI >= 0 {
			if err := mm.Map.AddObservation(kf.ID, mp.ID, bestI); err == nil {
				bindings[bestI] = mp.ID
				bound[mp.ID] = true
				fused++
			}
		}
	}
	return fused
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
	_, _, outliers := BundleAdjust(mm.Map, mm.Map, mm.Rig.Intr, bf, window, nil, 8, 10, mm.Cfg.BAIters)
	// Detach observations flagged as outliers so they stop polluting
	// future tracking and adjustments.
	for _, o := range outliers {
		mm.Map.DetachObservation(o.kf, o.mp, o.idx)
	}
}
