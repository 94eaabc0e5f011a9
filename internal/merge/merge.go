// Package merge implements the paper's map-merging algorithm (Alg. 2
// and §4.3.1): given a client's map and the shared global map, it
// detects common regions with bag-of-words place recognition over ALL
// the client's keyframes (not just incoming ones — the paper's key
// extension for late-joining clients), estimates the 3D alignment with
// RANSAC over Horn's method, transforms the client map, inserts it
// into the global map without copying (shared memory), fuses duplicate
// map points, and refines the seam with bundle adjustment.
package merge

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/mapping"
	"slamshare/internal/obs"
	"slamshare/internal/optimize"
	"slamshare/internal/smap"
)

// Config tunes merging.
type Config struct {
	// MinMatches is the minimum 3D-3D inlier correspondences for an
	// alignment to be accepted.
	MinMatches int
	// InlierTol is the 3D alignment inlier distance in metres.
	InlierTol float64
	// MaxRMSE rejects alignments whose inlier residual exceeds this
	// (guards against geometrically wrong matches on small maps).
	MaxRMSE float64
}

const (
	// candidatesPerKF is how many BoW hits are geometrically verified
	// for each client keyframe.
	candidatesPerKF = 5
	// ransacIters bounds the RANSAC loop.
	ransacIters = 4000
	// seamBAIters caps the post-merge bundle adjustment; maxSeamKFs
	// bounds the keyframes it adjusts.
	seamBAIters = 6
	maxSeamKFs  = 8
)

// DefaultConfig returns the merge parameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		MinMatches: 25,
		InlierTol:  0.35,
		MaxRMSE:    0.22,
	}
}

// Alignment is a verified common-region detection.
type Alignment struct {
	Transform geom.Sim3 // maps client-map coordinates into global-map coordinates
	Inliers   int
	// Pairs are the inlier correspondences (client point ID, global
	// point ID) used to fuse duplicates.
	Pairs [][2]smap.ID
	// ClientKF / GlobalKF are the keyframes that anchored the match.
	ClientKF smap.ID
	GlobalKF smap.ID
}

// Report is the timing breakdown of one merge — the SLAM-Share rows of
// Table 4.
type Report struct {
	Detect time.Duration // DetectCommonRegion over all client keyframes
	Align  time.Duration // RANSAC + Horn refinement
	Insert time.Duration // zero-copy insertion into the global map
	Fuse   time.Duration // duplicate map point fusion
	BA     time.Duration // seam bundle adjustment
	Total  time.Duration

	Alignment *Alignment // nil if no overlap was found
	FusedPts  int
	InsertKFs int
	InsertMPs int
	// RolledBack marks a merge whose pre-commit validation failed: the
	// global map was restored and the returned error is a
	// *RollbackError carrying the violations.
	RolledBack bool
}

// Journal receives the merge-level mutations the per-entity map
// observer (smap.Observer) cannot see: which duplicate points were
// fused into which survivors, and the pose corrections the seam bundle
// adjustment and essential-graph optimization applied. The persistence
// layer (internal/persist) implements it to make merges replayable
// after a crash; a nil Journal disables the notifications.
//
// A record handed to the Journal is sequenced after the observer
// records of every map mutation that returned before the call, and
// before those of every mutation that starts after it: the map runs
// its observer in place, so there is nothing in flight to wait for.
type Journal interface {
	// MergeApplied marks a merge boundary: the similarity transform
	// that carried the client map into global coordinates, and how many
	// keyframes/map points the zero-copy insert contributed.
	MergeApplied(tf geom.Sim3, insertedKFs, insertedMPs int)
	// PointsFused fires before clientPt's observations are redirected
	// to globalPt and clientPt is erased.
	PointsFused(clientPt, globalPt smap.ID)
	// PosesCorrected reports the post-adjustment keyframe poses and map
	// point positions the seam BA / essential graph produced.
	PosesCorrected(kfPoses map[smap.ID]geom.SE3, mpPositions map[smap.ID]geom.Vec3)
}

// Merger merges client maps into a global map.
type Merger struct {
	Global *smap.Map
	Intr   camera.Intrinsics
	Cfg    Config
	// Journal, when non-nil, is notified of merge-level mutations for
	// durability (see internal/persist).
	Journal Journal
	// Obs, when non-nil, records the merge's phase spans (detect,
	// align, insert, fuse, BA, total — the Table 4 breakdown) under
	// the ObsClient/ObsSeq trace the caller sets before Merge.
	Obs       *obs.Tracer
	ObsClient uint32
	ObsSeq    uint64
	// Sabotage, when non-nil, runs after the pipeline's mutations and
	// before pre-commit validation — a failpoint that emulates a
	// map-corrupting merge bug so tests and the chaos harness can prove
	// the transaction rolls back. Never set in production.
	Sabotage func(tx SabotageContext)
	// Reload, when non-nil, is offered each client keyframe's BoW
	// vector before candidate search, so the lifecycle manager can
	// pull an evicted cold region back into memory when the common
	// region lies inside it. It runs before the merge transaction
	// begins: an aborted merge rolls back only the entities the
	// transaction inserted, never a reloaded region.
	Reload func(bv bow.Vec)
	rng    *rand.Rand
}

// New returns a merger for the given global map.
func New(global *smap.Map, intr camera.Intrinsics, cfg Config) *Merger {
	if cfg.MinMatches == 0 {
		cfg = DefaultConfig()
	}
	return &Merger{Global: global, Intr: intr, Cfg: cfg, rng: rand.New(rand.NewSource(0x6E12))}
}

// DetectCommonRegion searches the global map for the region any of
// the client map's keyframes observes, and returns the verified
// alignment. This is Alg. 2 lines 6-10, extended to iterate every
// client keyframe so a late-joining client merges immediately: the
// 3D-3D correspondences from all (client keyframe, BoW candidate)
// pairs are pooled, and a single RANSAC alignment over the pool keeps
// only transforms that many keyframes agree on — a false per-pair
// match cannot recruit inliers from the other pairs.
func (mg *Merger) DetectCommonRegion(cmap *smap.Map) (Alignment, bool) {
	type corr struct {
		src, dst geom.Vec3
		cID, gID smap.ID
		cKF, gKF smap.ID
	}
	var pool []corr
	seen := make(map[[2]smap.ID]bool)
	for _, kf := range cmap.KeyFrames() {
		_, cPts, cIDs, cPos := cmap.ObservedPoints(kf.ID)
		if len(cPts) < 3 {
			continue
		}
		if mg.Reload != nil {
			mg.Reload(kf.Bow)
		}
		cands := mg.Global.QueryBow(kf.Bow, candidatesPerKF, nil)
		for _, cand := range cands {
			_, gPts, gIDs, gPos := mg.Global.ObservedPoints(cand.ID)
			if len(gPts) < 3 {
				continue
			}
			// Cross-client descriptors differ more than within-client
			// ones (viewpoint changes patch adjacency), so match
			// loosely; RANSAC over the pooled set rejects the junk.
			matches := feature.MatchBrute(cPts, gPts, feature.MatchThresholdLoose, 0.9)
			for _, m := range matches {
				key := [2]smap.ID{cIDs[m.A], gIDs[m.B]}
				if seen[key] {
					continue
				}
				seen[key] = true
				pool = append(pool, corr{
					src: cPos[m.A], dst: gPos[m.B],
					cID: cIDs[m.A], gID: gIDs[m.B],
					cKF: kf.ID, gKF: cand.ID,
				})
			}
		}
		if len(pool) > 4000 {
			break
		}
	}
	if len(pool) < mg.Cfg.MinMatches {
		return Alignment{}, false
	}
	src := make([]geom.Vec3, len(pool))
	dst := make([]geom.Vec3, len(pool))
	for i, c := range pool {
		src[i] = c.src
		dst[i] = c.dst
	}
	tf, inl, ok := ransacAlign(src, dst, mg.Cfg, mg.rng)
	if !ok || len(inl) < mg.Cfg.MinMatches {
		return Alignment{}, false
	}
	// Residual gate: a wrong alignment would move the whole client map
	// and corrupt the global map through the seam adjustment.
	if mg.Cfg.MaxRMSE > 0 {
		s := make([]geom.Vec3, len(inl))
		d := make([]geom.Vec3, len(inl))
		for i, mi := range inl {
			s[i] = src[mi]
			d[i] = dst[mi]
		}
		if geom.AlignmentRMSE(tf, s, d) > mg.Cfg.MaxRMSE {
			return Alignment{}, false
		}
	}
	// Anchor the seam adjustment at the keyframe pair contributing the
	// most inliers (of equals, the first to get there in inlier order).
	pairCount := make(map[[2]smap.ID]int)
	pairs := make([][2]smap.ID, len(inl))
	var bestPair [2]smap.ID
	bestN := 0
	for i, mi := range inl {
		c := pool[mi]
		pairs[i] = [2]smap.ID{c.cID, c.gID}
		kfPair := [2]smap.ID{c.cKF, c.gKF}
		pairCount[kfPair]++
		if n := pairCount[kfPair]; n > bestN {
			bestPair, bestN = kfPair, n
		}
	}
	return Alignment{
		Transform: tf,
		Inliers:   len(inl),
		Pairs:     pairs,
		ClientKF:  bestPair[0],
		GlobalKF:  bestPair[1],
	}, true
}

// ransacAlign estimates the similarity transform mapping src onto dst,
// robust to outlier correspondences. Returns the refined transform and
// the inlier indices.
func ransacAlign(src, dst []geom.Vec3, cfg Config, rng *rand.Rand) (geom.Sim3, []int, bool) {
	n := len(src)
	if n < 3 {
		return geom.IdentitySim3(), nil, false
	}
	bestInl := []int{}
	for iter := 0; iter < ransacIters; iter++ {
		i, j, k := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if i == j || j == k || i == k {
			continue
		}
		tf, err := geom.AlignHorn(
			[]geom.Vec3{src[i], src[j], src[k]},
			[]geom.Vec3{dst[i], dst[j], dst[k]},
			false, // rigid: the maps merged here are metric, no scale to solve for
		)
		if err != nil {
			continue
		}
		var inl []int
		for m := 0; m < n; m++ {
			if tf.Apply(src[m]).Dist(dst[m]) <= cfg.InlierTol {
				inl = append(inl, m)
			}
		}
		if len(inl) > len(bestInl) {
			bestInl = inl
			if len(bestInl) > n*9/10 {
				break
			}
		}
	}
	if len(bestInl) < 3 {
		return geom.IdentitySim3(), nil, false
	}
	// Iterative refinement: refit on the inlier set and re-score until
	// the inlier set stabilizes (at most 4 rounds).
	inl := bestInl
	var tf geom.Sim3
	for round := 0; round < 4; round++ {
		s := make([]geom.Vec3, len(inl))
		d := make([]geom.Vec3, len(inl))
		for i, m := range inl {
			s[i] = src[m]
			d[i] = dst[m]
		}
		var err error
		tf, err = geom.AlignHorn(s, d, false)
		if err != nil {
			return geom.IdentitySim3(), nil, false
		}
		var next []int
		for m := 0; m < len(src); m++ {
			if tf.Apply(src[m]).Dist(dst[m]) <= cfg.InlierTol {
				next = append(next, m)
			}
		}
		if len(next) == len(inl) {
			inl = next
			break
		}
		inl = next
		if len(inl) < 3 {
			return geom.IdentitySim3(), nil, false
		}
	}
	return tf, inl, true
}

// Merge runs the full Alg. 2 pipeline: detect, align, transform,
// insert (zero-copy), fuse, seam BA. When the global map is empty, the
// client map is adopted as the founding map with no alignment (Adopt).
// The client map's contents are owned by the global map afterwards.
//
// The pipeline is transactional: entities are inserted staged (not yet
// discoverable by place recognition), every mutation goes through an
// undo log, and the touched subgraph is validated against the map
// invariants before commit. On a validation failure everything is
// rolled back — the global map is as it was, the client map is carried
// back to its own coordinates for a later retry — and a *RollbackError
// is returned.
func (mg *Merger) Merge(cmap *smap.Map) (rep Report, err error) {
	if mg.Global.NKeyFrames() == 0 {
		return mg.Adopt(cmap)
	}
	t0 := time.Now()
	defer func() { mg.observe(t0, rep) }()
	rep.InsertKFs = cmap.NKeyFrames()
	rep.InsertMPs = cmap.NMapPoints()
	tx := newTxn(mg.Global)
	td := time.Now()
	al, found := mg.DetectCommonRegion(cmap)
	rep.Detect = time.Since(td)
	if !found {
		rep.Total = time.Since(t0)
		return rep, fmt.Errorf("merge: %w between client map (%d KFs) and global map (%d KFs)",
			ErrNoOverlap, cmap.NKeyFrames(), mg.Global.NKeyFrames())
	}
	rep.Alignment = &al

	// Transform the client map into global coordinates.
	ta := time.Now()
	cmap.ApplyTransform(al.Transform)
	rep.Align = time.Since(ta)

	// Journal the merge boundary before the insert so replay sees the
	// transform ahead of the keyframe/map-point records the insert
	// emits through the global map's observer.
	if mg.Journal != nil {
		mg.Journal.MergeApplied(al.Transform, rep.InsertKFs, rep.InsertMPs)
	}

	// Zero-copy insert (the shared-memory step: pointers only). Staged:
	// the new keyframes stay out of the BoW index until commit, so no
	// other session can anchor to entities this merge may roll back.
	ti := time.Now()
	tx.insertAll(cmap)
	rep.Insert = time.Since(ti)

	// Fuse duplicate points: each inlier pair collapses the client
	// point into the global point. The journal orders each record it is
	// handed directly after every map mutation made before the call
	// (see the Journal contract), so the fuse record lands after the
	// staged insert's records and before the erase the fuse emits:
	// replay finds both points, redirects the bindings, then erases.
	tf := time.Now()
	for _, pair := range al.Pairs {
		if mg.Journal != nil {
			mg.Journal.PointsFused(pair[0], pair[1])
		}
		if tx.fusePoint(pair[0], pair[1]) {
			rep.FusedPts++
		}
	}
	rep.Fuse = time.Since(tf)

	// Seam bundle adjustment around the matched keyframes (Alg. 2
	// lines 13-15), then essential-graph optimization to propagate the
	// seam correction through the rest of the client map.
	tb := time.Now()
	kfSeam, mpSeam := mg.seamBA(tx, al)
	kfGraph := mg.essentialGraph(tx, cmap, al)
	rep.BA = time.Since(tb)

	if mg.Sabotage != nil {
		mg.Sabotage(tx)
	}
	if bad := mg.validate(tx); bad != nil {
		tx.rollback(cmap, al.Transform, true, mg.Journal)
		rep.RolledBack = true
		rep.FusedPts = 0
		rep.Total = time.Since(t0)
		return rep, bad
	}
	tx.commit()

	if mg.Journal != nil {
		kfPoses := make(map[smap.ID]geom.SE3, len(kfSeam)+len(kfGraph))
		for _, id := range kfSeam {
			if kf, ok := mg.Global.KeyFrame(id); ok {
				kfPoses[id] = kf.Tcw
			}
		}
		for _, id := range kfGraph {
			if kf, ok := mg.Global.KeyFrame(id); ok {
				kfPoses[id] = kf.Tcw
			}
		}
		mpPos := make(map[smap.ID]geom.Vec3, len(mpSeam))
		for _, id := range mpSeam {
			if mp, ok := mg.Global.MapPoint(id); ok {
				mpPos[id] = mp.Pos
			}
		}
		if len(kfPoses) > 0 || len(mpPos) > 0 {
			mg.Journal.PosesCorrected(kfPoses, mpPos)
		}
	}

	rep.Total = time.Since(t0)
	return rep, nil
}

// ErrNoOverlap marks a merge that found no common region between the
// client map and the global map. Callers that know the two maps share
// a coordinate frame anyway (cross-shard boundary imports: every shard
// anchors at the clients' world-frame priors) can fall back to Adopt.
var ErrNoOverlap = errors.New("no common region")

// Adopt inserts a client map into the global map at identity — no
// place recognition, no alignment — for maps already expressed in the
// global coordinate frame. It runs under the same transaction
// machinery as Merge: staged insert, sabotage failpoint, pre-commit
// subgraph validation, full rollback on violation. It is how the
// founding map enters an empty global map, and the cross-shard import
// path: a boundary region arriving from a peer shard is already in
// world coordinates, and usually has no covisibility overlap with this
// shard's map at all.
func (mg *Merger) Adopt(cmap *smap.Map) (rep Report, err error) {
	t0 := time.Now()
	defer func() { mg.observe(t0, rep) }()
	rep.InsertKFs = cmap.NKeyFrames()
	rep.InsertMPs = cmap.NMapPoints()
	tx := newTxn(mg.Global)
	ti := time.Now()
	tx.insertAll(cmap)
	rep.Insert = time.Since(ti)
	if mg.Sabotage != nil {
		mg.Sabotage(tx)
	}
	if bad := mg.validate(tx); bad != nil {
		tx.rollback(cmap, geom.IdentitySim3(), false, mg.Journal)
		rep.RolledBack = true
		rep.Total = time.Since(t0)
		return rep, bad
	}
	tx.commit()
	rep.Total = time.Since(t0)
	return rep, nil
}

// observe emits the merge's phase breakdown as spans under the
// caller-set (ObsClient, ObsSeq) trace. Phase start times are
// reconstructed by accumulating the measured durations from t0; the
// small gaps between phases (journal encoding) are attributed to the
// total span only.
func (mg *Merger) observe(t0 time.Time, rep Report) {
	if mg.Obs == nil {
		return
	}
	at := t0
	rec := func(name string, d time.Duration) {
		if d > 0 {
			mg.Obs.Stage(name).Observe(at, d, mg.ObsClient, mg.ObsSeq)
			at = at.Add(d)
		}
	}
	rec("merge.detect", rep.Detect)
	rec("merge.align", rep.Align)
	rec("merge.insert", rep.Insert)
	rec("merge.fuse", rep.Fuse)
	rec("merge.ba", rep.BA)
	mg.Obs.Stage("merge.total").Observe(t0, rep.Total, mg.ObsClient, mg.ObsSeq)
}

// validate audits the merge's touched subgraph against the map
// invariants; a violation means the pipeline corrupted something and
// the transaction must abort.
func (mg *Merger) validate(tx *txn) error {
	kfs, mps := tx.touched()
	if chk := mg.Global.CheckSubgraph(kfs, mps); !chk.OK() {
		return &RollbackError{Violations: chk.Violations}
	}
	return nil
}

// essentialGraph propagates the seam adjustment to the client
// keyframes outside the seam window: a pose graph over the client map
// with covisibility edges (relative poses measured before the seam
// adjustment warped the seam), anchored at the seam keyframe — the
// "essential graph optimization" of Alg. 2 line 15. It returns the
// keyframes whose poses it rewrote.
func (mg *Merger) essentialGraph(tx *txn, cmap *smap.Map, al Alignment) []smap.ID {
	kfs := cmap.KeyFrames()
	if len(kfs) < 3 {
		return nil
	}
	nodeIdx := make(map[smap.ID]int, len(kfs))
	g := &optimize.PoseGraph{}
	for i, kf := range kfs {
		nodeIdx[kf.ID] = i
		g.Poses = append(g.Poses, kf.Tcw.Inverse()) // body-to-world
		g.Fixed = append(g.Fixed, kf.ID == al.ClientKF)
	}
	// If the anchor keyframe is not in this map (already consumed by
	// the global map object), fix the first node instead.
	if _, ok := nodeIdx[al.ClientKF]; !ok {
		g.Fixed[0] = true
	}
	seen := make(map[[2]int]bool)
	for _, kf := range kfs {
		i := nodeIdx[kf.ID]
		for _, c := range kf.Conns {
			j, ok := nodeIdx[c.KF]
			if !ok || i == j {
				continue
			}
			a, b := i, j
			if a > b {
				a, b = b, a
			}
			if seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			g.Edges = append(g.Edges, optimize.PoseEdge{
				I: a, J: b,
				Z:      g.Poses[a].Inverse().Compose(g.Poses[b]),
				Weight: float64(c.Weight) / 100,
			})
		}
	}
	if len(g.Edges) == 0 {
		return nil
	}
	g.Optimize(5)
	// The client keyframes are in the global map by now (the staged
	// insert ran before the graph), so the poses are written through
	// the transaction's recorded setter over the global map's
	// stripe-locked path: concurrent snapshot readers in other sessions
	// never see a torn pose, and a rollback can restore the originals.
	out := make([]smap.ID, len(kfs))
	for i, kf := range kfs {
		tx.SetKeyFramePose(kf.ID, g.Poses[i].Inverse())
		out[i] = kf.ID
	}
	return out
}

// seamBA bundle-adjusts the keyframes around the merge seam: the
// matched client and global keyframes plus their covisible neighbours,
// with the global side fixed (the paper's essential-graph-lite) and
// every write recorded by the transaction. It is the monocular problem
// — the merger is not told the rig's baseline. It returns the keyframes
// and map points whose state it rewrote.
func (mg *Merger) seamBA(tx *txn, al Alignment) ([]smap.ID, []smap.ID) {
	side := func(anchor smap.ID) []smap.ID {
		var ids []smap.ID
		for _, kf := range mg.Global.Covisible(anchor, maxSeamKFs/2) {
			ids = append(ids, kf.ID)
		}
		return append(ids, anchor)
	}
	kfs, mps, _ := mapping.BundleAdjust(mg.Global, tx, mg.Intr, 0,
		side(al.ClientKF), side(al.GlobalKF), 0, 20, seamBAIters)
	return kfs, mps
}
