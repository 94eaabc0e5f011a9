package smap

import (
	"fmt"
	"math/rand"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
)

func testVoc() *bow.Vocabulary {
	rng := rand.New(rand.NewSource(1))
	descs := make([]feature.Descriptor, 2000)
	for i := range descs {
		for w := 0; w < 4; w++ {
			descs[i][w] = rng.Uint64()
		}
	}
	return bow.Train(descs, 8, 3, 1)
}

func randKP(rng *rand.Rand) feature.Keypoint {
	var d feature.Descriptor
	for i := range d {
		d[i] = rng.Uint64()
	}
	return feature.Keypoint{
		X: rng.Float64() * 700, Y: rng.Float64() * 400,
		Desc: d, Right: -1,
	}
}

func newKF(id ID, client int, rng *rand.Rand, nkp int) *KeyFrame {
	kps := make([]feature.Keypoint, nkp)
	for i := range kps {
		kps[i] = randKP(rng)
	}
	return &KeyFrame{
		ID: id, Client: client,
		Tcw:       geom.IdentitySE3(),
		Keypoints: kps,
	}
}

func TestIDAllocatorRangesDisjoint(t *testing.T) {
	a := NewIDAllocator(1)
	b := NewIDAllocator(2)
	for i := 0; i < 1000; i++ {
		ida := a.Next()
		idb := b.Next()
		if ida == idb {
			t.Fatal("colliding IDs across clients")
		}
		if ClientOf(ida) != 1 || ClientOf(idb) != 2 {
			t.Fatalf("ClientOf wrong: %d %d", ClientOf(ida), ClientOf(idb))
		}
	}
}

func TestAddAndRetrieve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMap(testVoc())
	kf := newKF(100, 1, rng, 50)
	m.AddKeyFrame(kf)
	if m.NKeyFrames() != 1 {
		t.Fatal("keyframe not added")
	}
	got, ok := m.KeyFrame(100)
	if !ok || got != kf {
		t.Fatal("retrieval failed")
	}
	if got.Bow == nil {
		t.Error("BoW vector not computed on insert")
	}
	if len(got.MapPoints) != len(got.Keypoints) {
		t.Error("MapPoints not sized to keypoints")
	}
	mp := &MapPoint{ID: 200, Pos: geom.Vec3{X: 1, Y: 2, Z: 3}}
	m.AddMapPoint(mp)
	if m.NMapPoints() != 1 {
		t.Fatal("map point not added")
	}
	if _, ok := m.MapPoint(999); ok {
		t.Error("phantom map point")
	}
}

func TestObservationsAndConnections(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMap(testVoc())
	kf1 := newKF(1, 1, rng, 30)
	kf2 := newKF(2, 1, rng, 30)
	kf3 := newKF(3, 1, rng, 30)
	m.AddKeyFrame(kf1)
	m.AddKeyFrame(kf2)
	m.AddKeyFrame(kf3)
	// 20 points shared by kf1/kf2, 5 shared by kf1/kf3.
	for i := 0; i < 20; i++ {
		mp := &MapPoint{ID: ID(100 + i)}
		m.AddMapPoint(mp)
		mustAdd(t, m, 1, mp.ID, i)
		mustAdd(t, m, 2, mp.ID, i)
	}
	for i := 0; i < 5; i++ {
		mp := &MapPoint{ID: ID(200 + i)}
		m.AddMapPoint(mp)
		mustAdd(t, m, 1, mp.ID, 20+i)
		mustAdd(t, m, 3, mp.ID, i)
	}
	m.UpdateConnections(1, 15)
	if kf1.Conns[2] != 20 {
		t.Errorf("kf1-kf2 weight = %d", kf1.Conns[2])
	}
	if _, ok := kf1.Conns[3]; ok {
		t.Error("weak edge kept despite threshold")
	}
	if kf2.Conns[1] != 20 {
		t.Error("covisibility not symmetric")
	}
	cov := m.Covisible(1, 10)
	if len(cov) != 1 || cov[0].ID != 2 {
		t.Errorf("covisible = %v", cov)
	}
	// Local points of kf1 must include both shared sets.
	lp := m.LocalView(1, 10).Points
	if len(lp) != 25 {
		t.Errorf("local points = %d, want 25", len(lp))
	}
}

func mustAdd(t *testing.T, m *Map, kf, mp ID, idx int) {
	t.Helper()
	if err := m.AddObservation(kf, mp, idx); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateConnectionsKeepsBestBelowThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewMap(testVoc())
	kf1 := newKF(1, 1, rng, 10)
	kf2 := newKF(2, 1, rng, 10)
	m.AddKeyFrame(kf1)
	m.AddKeyFrame(kf2)
	for i := 0; i < 3; i++ { // below the threshold of 15
		mp := &MapPoint{ID: ID(50 + i)}
		m.AddMapPoint(mp)
		mustAdd(t, m, 1, mp.ID, i)
		mustAdd(t, m, 2, mp.ID, i)
	}
	m.UpdateConnections(1, 15)
	if kf1.Conns[2] != 3 {
		t.Error("best edge must survive even below threshold")
	}
}

func TestAddObservationErrors(t *testing.T) {
	m := NewMap(testVoc())
	rng := rand.New(rand.NewSource(5))
	m.AddKeyFrame(newKF(1, 1, rng, 5))
	m.AddMapPoint(&MapPoint{ID: 10})
	if err := m.AddObservation(99, 10, 0); err == nil {
		t.Error("unknown keyframe accepted")
	}
	if err := m.AddObservation(1, 99, 0); err == nil {
		t.Error("unknown map point accepted")
	}
	if err := m.AddObservation(1, 10, 50); err == nil {
		t.Error("out-of-range keypoint accepted")
	}
}

func TestEraseKeyFrameDetaches(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMap(testVoc())
	kf1 := newKF(1, 1, rng, 10)
	kf2 := newKF(2, 1, rng, 10)
	m.AddKeyFrame(kf1)
	m.AddKeyFrame(kf2)
	mp := &MapPoint{ID: 10}
	m.AddMapPoint(mp)
	mustAdd(t, m, 1, 10, 0)
	mustAdd(t, m, 2, 10, 0)
	m.UpdateConnections(1, 1)
	m.EraseKeyFrame(1)
	if _, ok := m.KeyFrame(1); ok {
		t.Fatal("keyframe not erased")
	}
	if _, ok := mp.Obs[1]; ok {
		t.Error("observation not detached")
	}
	if _, ok := kf2.Conns[1]; ok {
		t.Error("covisibility edge not removed")
	}
	m.EraseKeyFrame(42) // unknown must be a no-op
}

func TestEraseMapPointDetaches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMap(testVoc())
	kf := newKF(1, 1, rng, 10)
	m.AddKeyFrame(kf)
	m.AddMapPoint(&MapPoint{ID: 10})
	mustAdd(t, m, 1, 10, 3)
	m.EraseMapPoint(10)
	if kf.MapPoints[3] != 0 {
		t.Error("keyframe still references erased point")
	}
	m.EraseMapPoint(999) // no-op
}

func TestApplyTransformMovesEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMap(testVoc())
	kf := newKF(1, 1, rng, 5)
	kf.Tcw = geom.SE3{R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.3), T: geom.Vec3{X: 1, Y: 0, Z: 0}}
	kf.Keypoints[0].Depth = 4
	m.AddKeyFrame(kf)
	mp := &MapPoint{ID: 10, Pos: geom.Vec3{X: 2, Y: 1, Z: 5}, Normal: geom.Vec3{X: 0, Y: 0, Z: 1}}
	m.AddMapPoint(mp)

	center0 := kf.Center()
	s := geom.Sim3{S: 2, R: geom.QuatFromAxisAngle(geom.Vec3{Y: 1}, 0.5), T: geom.Vec3{X: 3, Y: -1, Z: 2}}
	m.ApplyTransform(s)

	if d := kf.Center().Dist(s.Apply(center0)); d > 1e-9 {
		t.Errorf("camera center moved wrongly: %v", d)
	}
	if d := mp.Pos.Dist(s.Apply(geom.Vec3{X: 2, Y: 1, Z: 5})); d > 1e-9 {
		t.Errorf("map point moved wrongly: %v", d)
	}
	if kf.Keypoints[0].Depth != 8 {
		t.Errorf("stereo depth not scaled: %v", kf.Keypoints[0].Depth)
	}
	// Relative geometry must be preserved: reprojection of the point
	// in the camera frame scales by S but keeps direction.
	pc := kf.Tcw.Apply(mp.Pos)
	want := geom.SE3{R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.3), T: geom.Vec3{X: 1, Y: 0, Z: 0}}.Apply(geom.Vec3{X: 2, Y: 1, Z: 5}).Scale(2)
	if pc.Dist(want) > 1e-9 {
		t.Errorf("camera-frame point %v, want %v", pc, want)
	}
}

func TestInsertAllZeroCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	voc := testVoc()
	global := NewMap(voc)
	client := NewMap(voc)
	kf := newKF(1<<41|1, 2, rng, 10)
	client.AddKeyFrame(kf)
	client.AddMapPoint(&MapPoint{ID: 1<<41 | 2})
	kfIDs, _ := global.InsertAllStaged(client)
	global.PublishKeyFrames(kfIDs)
	got, ok := global.KeyFrame(kf.ID)
	if !ok {
		t.Fatal("keyframe not inserted")
	}
	if got != kf {
		t.Error("InsertAllStaged copied the keyframe instead of sharing the pointer")
	}
	if global.NMapPoints() != 1 {
		t.Error("map point not inserted")
	}
}

func TestKeyFramesInsertionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMap(testVoc())
	ids := []ID{5, 2, 9, 1}
	for _, id := range ids {
		m.AddKeyFrame(newKF(id, 0, rng, 3))
	}
	kfs := m.KeyFrames()
	for i, kf := range kfs {
		if kf.ID != ids[i] {
			t.Fatalf("order broken at %d: %d", i, kf.ID)
		}
	}
}

func TestTrackedPoints(t *testing.T) {
	kf := &KeyFrame{MapPoints: []ID{0, 1, 0, 2, 3}}
	if kf.TrackedPoints() != 3 {
		t.Errorf("TrackedPoints = %d", kf.TrackedPoints())
	}
}

func TestConcurrentMapAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMap(testVoc())
	kfs := make([]*KeyFrame, 50)
	for i := range kfs {
		kfs[i] = newKF(ID(i+1), 0, rng, 20)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, kf := range kfs {
			m.AddKeyFrame(kf)
			m.UpdateConnections(kf.ID, 15)
		}
	}()
	for i := 0; i < 200; i++ {
		m.NKeyFrames()
		m.KeyFrames()
		m.Covisible(1, 5)
		_ = m.LocalView(1, 5).Points
	}
	<-done
}

// recObserver records callbacks with no synchronisation of its own:
// the Observer contract is that they run on the mutating goroutine.
type recObserver struct {
	calls []string
	kf    *KeyFrame
}

func (o *recObserver) KeyFrameAdded(kf *KeyFrame) {
	o.kf = kf
	o.calls = append(o.calls, fmt.Sprint("kf+", kf.ID))
}
func (o *recObserver) MapPointAdded(mp *MapPoint) {
	o.calls = append(o.calls, fmt.Sprint("mp+", mp.ID))
}
func (o *recObserver) KeyFrameErased(id ID) { o.calls = append(o.calls, fmt.Sprint("kf-", id)) }
func (o *recObserver) MapPointErased(id ID) { o.calls = append(o.calls, fmt.Sprint("mp-", id)) }
func (o *recObserver) ObservationAdded(kfID, mpID ID, kpIdx int) {
	o.calls = append(o.calls, fmt.Sprint("obs ", kfID, mpID, kpIdx))
}

func TestObserverRunsBeforeMutatorReturns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMap(testVoc())
	rec := &recObserver{}
	m.SetObserver(rec)
	kf1 := newKF(1, 0, rng, 4)
	steps := []struct {
		name string
		do   func()
		want string
	}{
		{"AddKeyFrame", func() { m.AddKeyFrame(kf1) }, "kf+1"},
		{"AddKeyFrame", func() { m.AddKeyFrame(newKF(2, 0, rng, 4)) }, "kf+2"},
		{"AddMapPoint", func() { m.AddMapPoint(&MapPoint{ID: 10, RefKF: 1}) }, "mp+10"},
		{"AddObservation", func() { mustAdd(t, m, 1, 10, 2) }, "obs 1 10 2"},
		{"EraseMapPoint", func() { m.EraseMapPoint(10) }, "mp-10"},
		{"EraseKeyFrame", func() { m.EraseKeyFrame(1) }, "kf-1"},
		{"RemoveEntities", func() { m.RemoveEntities([]ID{2}, nil) }, "kf-2"},
	}
	for _, st := range steps {
		rec.calls = rec.calls[:0]
		st.do()
		if len(rec.calls) != 1 || rec.calls[0] != st.want {
			t.Fatalf("%s returned with callbacks %q delivered, want exactly [%q]", st.name, rec.calls, st.want)
		}
	}
	m.AddKeyFrame(kf1)
	if rec.kf != kf1 {
		t.Error("KeyFrameAdded received a copy, want the live keyframe")
	}
}
