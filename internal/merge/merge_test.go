package merge

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/mapping"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
)

// buildClientMap runs the full SLAM front end over a sequence segment
// and returns the resulting map plus the ground-truth camera centers of
// its keyframes (for verifying merge accuracy).
func buildClientMap(t *testing.T, seq *dataset.Sequence, client, nFrames, stride int) (*smap.Map, map[smap.ID]geom.Vec3) {
	t.Helper()
	m := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(client)
	tr := tracking.New(m, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, client, tracking.DefaultConfig())
	mp := mapping.New(m, seq.Rig, alloc, client, mapping.DefaultConfig())
	truth := make(map[smap.ID]geom.Vec3)
	for i := 0; i < nFrames; i += stride {
		left, right := seq.StereoFrame(i)
		var prior *geom.SE3
		if i == 0 {
			p := seq.GroundTruth(i).Inverse()
			prior = &p
		}
		res := tr.ProcessFrame(left, right, seq.FrameTime(i), prior)
		if res.NewKF != nil {
			mp.ProcessKeyFrame(res.NewKF)
			truth[res.NewKF.ID] = seq.GroundTruth(i).T
		}
	}
	if m.NKeyFrames() < 3 {
		t.Fatalf("client %d map too small: %d keyframes", client, m.NKeyFrames())
	}
	return m, truth
}

func TestMergeRecoversDisplacedClientMap(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	mapA, _ := buildClientMap(t, seqA, 1, 120, 2)
	mapB, truthB := buildClientMap(t, seqB, 2, 120, 2)

	// Displace B's map: in reality each client's map has its own
	// arbitrary origin. The merge must snap it back (Fig. 7).
	disp := geom.Sim3FromSE3(geom.SE3{
		R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.4),
		T: geom.Vec3{X: 3, Y: -2, Z: 0.5},
	})
	mapB.ApplyTransform(disp)

	global := smap.NewMap(bow.Default())
	mg := New(global, seqA.Rig.Intr, DefaultConfig())
	if _, err := mg.Merge(mapA); err != nil {
		t.Fatalf("founding merge: %v", err)
	}
	kfsBefore := global.NKeyFrames()

	rep, err := mg.Merge(mapB)
	if err != nil {
		t.Fatalf("merge failed: %v", err)
	}
	if rep.Alignment == nil {
		t.Fatal("no alignment recorded")
	}
	if global.NKeyFrames() != kfsBefore+mapB.NKeyFrames() {
		t.Errorf("keyframes: %d, want %d", global.NKeyFrames(), kfsBefore+mapB.NKeyFrames())
	}
	if rep.FusedPts == 0 {
		t.Error("no duplicate points fused")
	}
	if rep.Detect <= 0 || rep.Insert <= 0 || rep.Total <= 0 {
		t.Error("missing timing breakdown")
	}
	// B's keyframes must have snapped back near their ground truth.
	var worst, mean float64
	n := 0
	for id, want := range truthB {
		kf, ok := global.KeyFrame(id)
		if !ok {
			t.Fatalf("keyframe %d missing from global map", id)
		}
		d := kf.Center().Dist(want)
		mean += d
		if d > worst {
			worst = d
		}
		n++
	}
	mean /= float64(n)
	t.Logf("merge snap: mean %.3f m, worst %.3f m over %d KFs (fused %d pts, total %v)",
		mean, worst, n, rep.FusedPts, rep.Total)
	if mean > 0.30 {
		t.Errorf("mean post-merge error %.3f m", mean)
	}
	if worst > 1.0 {
		t.Errorf("worst post-merge error %.3f m", worst)
	}
}

// A sabotaged merge must leave no trace: the global map returns to its
// exact pre-merge state, the client map returns to its own coordinate
// frame, and a clean retry of the same merge succeeds.
func TestMergeRollbackRestoresGlobalMap(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	mapA, _ := buildClientMap(t, seqA, 1, 120, 2)
	mapB, _ := buildClientMap(t, seqB, 2, 120, 2)

	global := smap.NewMap(bow.Default())
	mg := New(global, seqA.Rig.Intr, DefaultConfig())
	if _, err := mg.Merge(mapA); err != nil {
		t.Fatalf("founding merge: %v", err)
	}

	// Record the global map's exact state: entity sets, poses,
	// positions.
	preKF := make(map[smap.ID]geom.SE3)
	for _, kf := range global.KeyFrames() {
		tcw, _, _ := global.KeyFrameState(kf.ID)
		preKF[kf.ID] = tcw
	}
	preMP := make(map[smap.ID]geom.Vec3)
	for _, mp := range global.MapPoints() {
		pos, _, _ := global.PointMatchState(mp.ID)
		preMP[mp.ID] = pos
	}
	// And the client map's poses in its own frame.
	preB := make(map[smap.ID]geom.SE3)
	for _, kf := range mapB.KeyFrames() {
		preB[kf.ID] = kf.Tcw
	}

	nan := math.NaN()
	mg.Sabotage = func(tx SabotageContext) {
		ids := tx.InsertedKFs()
		if len(ids) == 0 {
			t.Fatal("sabotage hook saw no inserted keyframes")
		}
		tx.SetKeyFramePose(ids[0], geom.SE3{
			R: geom.IdentityQuat(), T: geom.Vec3{X: nan, Y: nan, Z: nan},
		})
	}
	rep, err := mg.Merge(mapB)
	var rbErr *RollbackError
	if !errors.As(err, &rbErr) {
		t.Fatalf("sabotaged merge: err = %v, want *RollbackError", err)
	}
	if !rep.RolledBack {
		t.Error("report does not mark the rollback")
	}
	if len(rbErr.Violations) == 0 {
		t.Error("rollback error carries no violations")
	}

	// Global map: same entities, same state, invariant-clean.
	if got := global.NKeyFrames(); got != len(preKF) {
		t.Errorf("global keyframes after rollback: %d, want %d", got, len(preKF))
	}
	if got := global.NMapPoints(); got != len(preMP) {
		t.Errorf("global map points after rollback: %d, want %d", got, len(preMP))
	}
	for id, want := range preKF {
		tcw, _, ok := global.KeyFrameState(id)
		if !ok {
			t.Fatalf("keyframe %d lost in rollback", id)
		}
		if tcw.T.Dist(want.T) > 1e-9 || tcw.R.AngleTo(want.R) > 1e-9 {
			t.Errorf("keyframe %d pose not restored", id)
		}
	}
	for id, want := range preMP {
		pos, _, ok := global.PointMatchState(id)
		if !ok {
			t.Fatalf("map point %d lost in rollback", id)
		}
		if pos.Dist(want) > 1e-9 {
			t.Errorf("map point %d position not restored", id)
		}
	}
	if chk := global.CheckInvariants(); !chk.OK() {
		t.Fatalf("global map dirty after rollback: %s", chk.Summary())
	}

	// Client map: back in its own coordinates (transform + inverse
	// round-trip), structurally clean, ready for a retry.
	for id, want := range preB {
		kf, ok := mapB.KeyFrame(id)
		if !ok {
			t.Fatalf("client keyframe %d lost in rollback", id)
		}
		if kf.Tcw.T.Dist(want.T) > 1e-6 || kf.Tcw.R.AngleTo(want.R) > 1e-6 {
			t.Errorf("client keyframe %d not returned to local frame", id)
		}
	}
	if chk := mapB.CheckInvariants(); !chk.OK() {
		t.Fatalf("client map dirty after rollback: %s", chk.Summary())
	}

	// The retry — same maps, no sabotage — must succeed.
	mg.Sabotage = nil
	rep2, err := mg.Merge(mapB)
	if err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if rep2.Alignment == nil || rep2.FusedPts == 0 {
		t.Errorf("retry did not produce a real merge: %+v", rep2)
	}
	if got, want := global.NKeyFrames(), len(preKF)+mapB.NKeyFrames(); got != want {
		t.Errorf("keyframes after retry: %d, want %d", got, want)
	}
	if chk := global.CheckInvariants(); !chk.OK() {
		t.Fatalf("global map dirty after retry: %s", chk.Summary())
	}
}

// The founding insert is transactional too: a corrupted founding map
// is rejected wholesale and the global map stays empty.
func TestFoundingMergeRollback(t *testing.T) {
	global := smap.NewMap(bow.Default())
	client := smap.NewMap(bow.Default())
	client.AddKeyFrame(&smap.KeyFrame{ID: 1<<41 | 1, Tcw: geom.IdentitySE3()})
	mg := New(global, camera.EuRoCIntrinsics(), DefaultConfig())
	mg.Sabotage = func(tx SabotageContext) {
		tx.SetKeyFramePose(tx.InsertedKFs()[0], geom.SE3{
			R: geom.IdentityQuat(), T: geom.Vec3{X: math.Inf(1)},
		})
	}
	rep, err := mg.Merge(client)
	var rbErr *RollbackError
	if !errors.As(err, &rbErr) {
		t.Fatalf("err = %v, want *RollbackError", err)
	}
	if !rep.RolledBack || global.NKeyFrames() != 0 {
		t.Fatalf("founding rollback left %d keyframes", global.NKeyFrames())
	}
	mg.Sabotage = nil
	if _, err := mg.Merge(client); err != nil {
		t.Fatalf("retry after founding rollback: %v", err)
	}
	if global.NKeyFrames() != 1 {
		t.Error("retry did not insert the founding keyframe")
	}
}

func TestMergeFailsAcrossWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline test")
	}
	seqA := dataset.MH04(camera.Stereo)
	seqC := dataset.KITTI05(camera.Stereo) // different world entirely
	mapA, _ := buildClientMap(t, seqA, 1, 60, 2)
	mapC, _ := buildClientMap(t, seqC, 2, 60, 2)

	global := smap.NewMap(bow.Default())
	mg := New(global, seqA.Rig.Intr, DefaultConfig())
	if _, err := mg.Merge(mapA); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Merge(mapC); err == nil {
		t.Error("merge across unrelated worlds should fail")
	}
}

func TestRansacAlignWithOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := geom.Sim3FromSE3(geom.SE3{
		R: geom.QuatFromAxisAngle(geom.Vec3{X: 1, Y: 2, Z: 3}, 0.7),
		T: geom.Vec3{X: 5, Y: -3, Z: 1},
	})
	n := 60
	src := make([]geom.Vec3, n)
	dst := make([]geom.Vec3, n)
	for i := 0; i < n; i++ {
		src[i] = geom.Vec3{X: rng.NormFloat64() * 5, Y: rng.NormFloat64() * 5, Z: rng.NormFloat64() * 5}
		dst[i] = truth.Apply(src[i])
		if i < 20 { // 33% outliers
			dst[i] = dst[i].Add(geom.Vec3{X: 3 + rng.Float64()*5, Y: -4, Z: 2})
		}
	}
	cfg := DefaultConfig()
	tf, inl, ok := ransacAlign(src, dst, cfg, rng)
	if !ok {
		t.Fatal("ransac failed")
	}
	if len(inl) < 38 || len(inl) > 42 {
		t.Errorf("inliers = %d, want ~40", len(inl))
	}
	// Check recovered transform on clean points.
	for i := 20; i < n; i++ {
		if tf.Apply(src[i]).Dist(dst[i]) > 0.05 {
			t.Fatalf("transform error at %d: %v", i, tf.Apply(src[i]).Dist(dst[i]))
		}
	}
}

func TestRansacAlignDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	if _, _, ok := ransacAlign(nil, nil, cfg, rng); ok {
		t.Error("empty input accepted")
	}
	two := []geom.Vec3{{X: 1}, {Y: 1}}
	if _, _, ok := ransacAlign(two, two, cfg, rng); ok {
		t.Error("two points accepted")
	}
}

func TestFoundingMergeIntoEmptyGlobal(t *testing.T) {
	global := smap.NewMap(bow.Default())
	client := smap.NewMap(bow.Default())
	kf := &smap.KeyFrame{ID: 1<<41 | 1, Tcw: geom.IdentitySE3()}
	client.AddKeyFrame(kf)
	mg := New(global, camera.EuRoCIntrinsics(), DefaultConfig())
	rep, err := mg.Merge(client)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alignment != nil {
		t.Error("founding merge should not align")
	}
	if global.NKeyFrames() != 1 {
		t.Error("keyframe not inserted")
	}
}

func TestFusePointRedirectsObservations(t *testing.T) {
	global := smap.NewMap(bow.Default())
	kf := &smap.KeyFrame{ID: 1, Keypoints: make([]feature.Keypoint, 3)}
	global.AddKeyFrame(kf)
	a := &smap.MapPoint{ID: 10}
	b := &smap.MapPoint{ID: 20}
	global.AddMapPoint(a)
	global.AddMapPoint(b)
	if err := global.AddObservation(1, 10, 2); err != nil {
		t.Fatal(err)
	}
	mg := New(global, camera.EuRoCIntrinsics(), DefaultConfig())
	tx := newTxn(mg.Global)
	if !tx.fusePoint(10, 20) {
		t.Fatal("fuse failed")
	}
	if kf.MapPoints[2] != 20 {
		t.Error("observation not redirected")
	}
	if _, ok := global.MapPoint(10); ok {
		t.Error("client point not erased")
	}
	if want := []smap.ObsEntry{{KF: 1, Idx: 2}}; !slices.Equal(b.Obs, want) {
		t.Errorf("global point observers = %v, want %v", b.Obs, want)
	}
	// Self-fuse and unknown ids are no-ops.
	if tx.fusePoint(20, 20) {
		t.Error("self fuse succeeded")
	}
	if tx.fusePoint(99, 20) || tx.fusePoint(20, 99) {
		t.Error("unknown point fuse succeeded")
	}
}

// A keyframe observing both points must not end up with two bindings
// to the survivor: the duplicate binding is dropped, not rebound.
func TestFusePointDropsDuplicateObservation(t *testing.T) {
	global := smap.NewMap(bow.Default())
	kf := &smap.KeyFrame{ID: 1, Keypoints: make([]feature.Keypoint, 4)}
	global.AddKeyFrame(kf)
	global.AddMapPoint(&smap.MapPoint{ID: 10, RefKF: 1})
	b := &smap.MapPoint{ID: 20, RefKF: 1}
	global.AddMapPoint(b)
	if err := global.AddObservation(1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := global.AddObservation(1, 20, 3); err != nil {
		t.Fatal(err)
	}
	mg := New(global, camera.EuRoCIntrinsics(), DefaultConfig())
	if !newTxn(mg.Global).fusePoint(10, 20) {
		t.Fatal("fuse failed")
	}
	if kf.MapPoints[1] != 0 {
		t.Errorf("duplicate binding kept: keypoint 1 -> %d", kf.MapPoints[1])
	}
	if kf.MapPoints[3] != 20 {
		t.Errorf("original binding lost: keypoint 3 -> %d", kf.MapPoints[3])
	}
	if want := []smap.ObsEntry{{KF: 1, Idx: 3}}; !slices.Equal(b.Obs, want) {
		t.Errorf("survivor observers = %v, want %v", b.Obs, want)
	}
	if rep := global.CheckInvariants(); len(rep.Violations) != 0 {
		t.Errorf("invariant violations after fuse: %v", rep.Violations)
	}
}
