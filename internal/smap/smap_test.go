package smap

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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
		X: float64(rng.Intn(700)), Y: float64(rng.Intn(400)),
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
	// The weak kf1-kf3 edge falls under the threshold.
	if want := []Conn{{KF: 2, Weight: 20}}; !slices.Equal(kf1.Conns, want) {
		t.Errorf("kf1 edges = %v, want %v", kf1.Conns, want)
	}
	if want := []Conn{{KF: 1, Weight: 20}}; !slices.Equal(kf2.Conns, want) {
		t.Errorf("kf2 edges = %v, want %v (symmetric)", kf2.Conns, want)
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
	if want := []Conn{{KF: 2, Weight: 3}}; !slices.Equal(kf1.Conns, want) {
		t.Errorf("kf1 edges = %v, want the best edge %v even below threshold", kf1.Conns, want)
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

// oneKeyFrame returns a map holding keyframe 1 with four keypoints and
// the given map points, with no vocabulary.
func oneKeyFrame(mps ...ID) *Map {
	m := NewMap(nil)
	m.AddKeyFrame(&KeyFrame{ID: 1, Tcw: geom.IdentitySE3(), Keypoints: make([]feature.Keypoint, 4)})
	for _, id := range mps {
		m.AddMapPoint(&MapPoint{ID: id, RefKF: 1})
	}
	return m
}

// TestStaleDetachChangesNothing: a detach whose keypoint the point no
// longer records (it was rebound at another keypoint of the same
// keyframe) changes neither side and journals nothing; the live triple
// still detaches both.
func TestStaleDetachChangesNothing(t *testing.T) {
	m := oneKeyFrame(10)
	mustAdd(t, m, 1, 10, 0)
	mustAdd(t, m, 1, 10, 1)
	rec := &recObserver{}
	m.SetObserver(rec)
	m.DetachObservation(1, 10, 0)
	if len(rec.calls) != 0 {
		t.Errorf("stale detach journaled %q", rec.calls)
	}
	if rep := m.CheckInvariants(); !rep.OK() {
		t.Fatalf("after a stale detach: %s", rep.Summary())
	}
	if !m.HasObservation(10, 1) {
		t.Fatal("stale detach dropped the point's observation")
	}
	m.DetachObservation(1, 10, 1)
	if _, bindings, _ := m.KeyFrameState(1); bindings[1] != 0 || m.HasObservation(10, 1) {
		t.Errorf("live detach left binding %d, observation %v", bindings[1], m.HasObservation(10, 1))
	}
	if want := []string{"detach 1 10 1"}; !slices.Equal(rec.calls, want) {
		t.Errorf("live detach journaled %q, want %q", rec.calls, want)
	}
}

// TestAddObservationRefusesHeldKeypoint: binding a keypoint another
// point holds is refused and journals nothing, so the holder's
// observation never names a keypoint that binds something else.
func TestAddObservationRefusesHeldKeypoint(t *testing.T) {
	m := oneKeyFrame(11, 12)
	mustAdd(t, m, 1, 11, 1)
	rec := &recObserver{}
	m.SetObserver(rec)
	if err := m.AddObservation(1, 12, 1); err == nil {
		t.Error("keypoint held by point 11 rebound to 12")
	}
	if len(rec.calls) != 0 {
		t.Errorf("refused observation journaled %q", rec.calls)
	}
	if rep := m.CheckInvariants(); !rep.OK() {
		t.Fatalf("after a refused observation: %s", rep.Summary())
	}
	if _, bindings, _ := m.KeyFrameState(1); bindings[1] != 11 || m.HasObservation(12, 1) {
		t.Errorf("keypoint 1 binds %d, point 12 observed: %v", bindings[1], m.HasObservation(12, 1))
	}
	mustAdd(t, m, 1, 11, 1) // the holder itself may re-add its binding
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
	if !m.EraseKeyFrame(1) {
		t.Fatal("erase reported nothing erased")
	}
	if _, ok := m.KeyFrame(1); ok {
		t.Fatal("keyframe not erased")
	}
	if _, ok := find(mp.Obs, 1); ok {
		t.Error("observation not detached")
	}
	if _, ok := find(kf2.Conns, 1); ok {
		t.Error("covisibility edge not removed")
	}
	if m.EraseKeyFrame(1) || m.EraseKeyFrame(42) {
		t.Error("erase of a missing keyframe reported an erase")
	}
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
func (o *recObserver) ObservationDetached(kfID, mpID ID, kpIdx int) {
	o.calls = append(o.calls, fmt.Sprint("detach ", kfID, mpID, kpIdx))
}
func (o *recObserver) PointFused(from, to ID) {
	o.calls = append(o.calls, fmt.Sprint("fuse ", from, to))
}
func (o *recObserver) PosesSet(kfs []KeyFramePose, mps []PointPos) {
	o.calls = append(o.calls, fmt.Sprint("poses ", len(kfs), len(mps)))
}
func (o *recObserver) Transformed(s geom.Sim3) { o.calls = append(o.calls, fmt.Sprint("tf ", s.S)) }

func TestObserverRunsBeforeMutatorReturns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := NewMap(testVoc())
	rec := &recObserver{}
	m.SetObserver(rec)
	kf1 := newKF(1, 0, rng, 4)
	pose := geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 1}}
	steps := []struct {
		name string
		do   func()
		want []string
	}{
		{"AddKeyFrame", func() { m.AddKeyFrame(kf1) }, []string{"kf+1"}},
		{"AddKeyFrame", func() { m.AddKeyFrame(newKF(2, 0, rng, 4)) }, []string{"kf+2"}},
		{"AddMapPoint", func() { m.AddMapPoint(&MapPoint{ID: 10, RefKF: 1}) }, []string{"mp+10"}},
		{"AddMapPoint", func() { m.AddMapPoint(&MapPoint{ID: 11, RefKF: 1}) }, []string{"mp+11"}},
		{"AddObservation", func() { mustAdd(t, m, 1, 10, 2) }, []string{"obs 1 10 2"}},
		{"AddObservation", func() { mustAdd(t, m, 2, 11, 0) }, []string{"obs 2 11 0"}},
		{"DetachObservation", func() { m.DetachObservation(2, 11, 0) }, []string{"detach 2 11 0"}},
		{"DetachObservation of nothing", func() { m.DetachObservation(2, 11, 0) }, nil},
		{"FusePoint", func() { m.FusePoint(10, 11) }, []string{"fuse 10 11", "mp-10"}},
		{"SetPoses", func() { m.SetPoses([]KeyFramePose{{1, pose}, {2, pose}}, []PointPos{{ID: 11}}) }, []string{"poses 2 1"}},
		{"ApplyTransform", func() { m.ApplyTransform(geom.Sim3{S: 2, R: geom.IdentityQuat()}) }, []string{"tf 2"}},
		{"EraseMapPoint", func() { m.EraseMapPoint(11) }, []string{"mp-11"}},
		{"EraseKeyFrame", func() { m.EraseKeyFrame(1) }, []string{"kf-1"}},
		{"RemoveEntities", func() { m.RemoveEntities([]ID{2}, nil) }, []string{"kf-2"}},
	}
	for _, st := range steps {
		rec.calls = rec.calls[:0]
		st.do()
		if !slices.Equal(rec.calls, st.want) {
			t.Fatalf("%s returned with callbacks %q delivered, want exactly %q", st.name, rec.calls, st.want)
		}
	}
	m.AddKeyFrame(kf1)
	if rec.kf != kf1 {
		t.Error("KeyFrameAdded received a copy, want the live keyframe")
	}
}

// orderObserver checks, from inside KeyFrameAdded, that the keyframe is
// already in the insertion order: a checkpoint sequenced after the
// record must encode the keyframe, or pruning the record loses it.
type orderObserver struct {
	recObserver
	m        *Map
	unlisted []ID
}

func (o *orderObserver) KeyFrameAdded(kf *KeyFrame) {
	o.m.imu.RLock()
	if _, ok := o.m.inOrder[kf.ID]; !ok {
		o.unlisted = append(o.unlisted, kf.ID)
	}
	o.m.imu.RUnlock()
}

func TestKeyFrameListedBeforeRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMap(testVoc())
	obs := &orderObserver{m: m}
	m.SetObserver(obs)
	m.AddKeyFrame(newKF(1, 0, rng, 4))
	src := NewMap(m.voc)
	src.AddKeyFrame(newKF(2, 0, rng, 4))
	m.InsertAllStaged(src)
	if len(obs.unlisted) > 0 {
		t.Errorf("KeyFrameAdded ran before keyframes %v were in the insertion order", obs.unlisted)
	}
}

// lastPoses records, per entity, the value of the last SetPoses batch
// the observer was handed; SetPoses calls it under stripe locks, so its
// own mutex is a leaf.
type lastPoses struct {
	recObserver
	mu  sync.Mutex
	kfs map[ID]geom.SE3
	mps map[ID]geom.Vec3
}

func (o *lastPoses) PosesSet(kfs []KeyFramePose, mps []PointPos) {
	o.mu.Lock()
	for _, p := range kfs {
		o.kfs[p.ID] = p.Tcw
	}
	for _, p := range mps {
		o.mps[p.ID] = p.Pos
	}
	o.mu.Unlock()
}

// TestSetPosesRecordsInWriteOrder: SetPoses batches racing over shared
// entities — one over every keyframe and point, and single pairs
// written over and over while it runs, as two sessions' bundle
// adjustments on a merged map — reach the observer in the order their
// writes took effect, so after each round the last batch recorded for
// an entity holds the value the map has. A SetPoses that wrote stripe
// by stripe and recorded afterwards would let a short batch's record
// overtake the long one's writes.
func TestSetPosesRecordsInWriteOrder(t *testing.T) {
	const n, rounds = 1024, 40
	m := NewMap(nil)
	for id := ID(1); id <= n; id++ {
		m.AddKeyFrame(&KeyFrame{ID: id})
		m.AddMapPoint(&MapPoint{ID: n + id})
	}
	obs := &lastPoses{kfs: make(map[ID]geom.SE3), mps: make(map[ID]geom.Vec3)}
	m.SetObserver(obs)
	pose := func(v float64) geom.SE3 { return geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: v}} }
	rng := rand.New(rand.NewSource(5))
	v := 0.0
	for round := 0; round < rounds; round++ {
		kfs := make([]KeyFramePose, n)
		mps := make([]PointPos, n)
		v++
		for i := range kfs {
			kfs[i] = KeyFramePose{ID: ID(1 + i), Tcw: pose(v)}
			mps[i] = PointPos{ID: ID(n + 1 + i), Pos: geom.Vec3{X: v}}
		}
		var long sync.WaitGroup
		long.Add(1)
		go func() {
			defer long.Done()
			m.SetPoses(kfs, mps)
		}()
		done := make(chan struct{})
		go func() {
			long.Wait()
			close(done)
		}()
		for short := true; short; {
			select {
			case <-done:
				short = false
			default:
			}
			v++
			id := ID(1 + rng.Intn(n))
			m.SetPoses([]KeyFramePose{{ID: id, Tcw: pose(v)}}, []PointPos{{ID: n + id, Pos: geom.Vec3{X: v}}})
		}
		for id := ID(1); id <= n; id++ {
			tcw, _, _ := m.KeyFrameState(id)
			pos, _, _ := m.PointMatchState(n + id)
			if tcw != obs.kfs[id] || pos != obs.mps[n+id] {
				t.Fatalf("round %d: keyframe %d holds %v and point %d %v, but the last records say %v and %v",
					round, id, tcw.T, n+id, pos, obs.kfs[id].T, obs.mps[n+id])
			}
		}
	}
}
