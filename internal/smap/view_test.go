package smap

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"slamshare/internal/feature"
	"slamshare/internal/geom"
)

// buildViewFixture makes a map with kf1–kf2 covisible (20 shared
// points) and kf3 connected weakly, mirroring the observation fixture
// of smap_test.go.
func buildViewFixture(t *testing.T) (*Map, *KeyFrame, *KeyFrame) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	m := NewMap(testVoc())
	kf1 := newKF(1, 1, rng, 40)
	kf2 := newKF(2, 1, rng, 40)
	m.AddKeyFrame(kf1)
	m.AddKeyFrame(kf2)
	for i := 0; i < 20; i++ {
		mp := &MapPoint{ID: ID(100 + i), Pos: geom.Vec3{X: float64(i)}}
		m.AddMapPoint(mp)
		if err := m.AddObservation(1, mp.ID, i); err != nil {
			t.Fatal(err)
		}
		if err := m.AddObservation(2, mp.ID, i); err != nil {
			t.Fatal(err)
		}
	}
	m.UpdateConnections(1, 15)
	m.UpdateConnections(2, 15)
	return m, kf1, kf2
}

func TestLocalViewCachedUntilRelevantMutation(t *testing.T) {
	m, _, _ := buildViewFixture(t)
	v1 := m.LocalView(1, 10)
	if len(v1.Points) != 20 {
		t.Fatalf("view has %d points, want 20", len(v1.Points))
	}
	if len(v1.KFs) != 2 {
		t.Fatalf("view has %d keyframes, want 2 (kf2 + self)", len(v1.KFs))
	}
	if v2 := m.LocalView(1, 10); v2 != v1 {
		t.Fatal("unchanged map rebuilt the view")
	}

	// An irrelevant mutation (a keyframe outside the window) must NOT
	// invalidate: the global version moves but the deps are unchanged.
	rng := rand.New(rand.NewSource(8))
	m.AddKeyFrame(newKF(999, 2, rng, 10))
	if v3 := m.LocalView(1, 10); v3 != v1 {
		t.Fatal("mutation outside the window invalidated the view")
	}

	// A relevant mutation (new binding on a window keyframe) must.
	m.AddMapPoint(&MapPoint{ID: 500, Pos: geom.Vec3{Z: 9}})
	if err := m.AddObservation(1, 500, 25); err != nil {
		t.Fatal(err)
	}
	v4 := m.LocalView(1, 10)
	if v4 == v1 {
		t.Fatal("binding on a window keyframe did not invalidate the view")
	}
	if _, ok := v4.Point(500); !ok {
		t.Fatal("rebuilt view misses the new point")
	}
}

func TestLocalViewSeesPoseAndEraseUpdates(t *testing.T) {
	m, _, _ := buildViewFixture(t)
	v1 := m.LocalView(1, 10)

	// Pose writes through the setter invalidate (the keyframe version
	// moves) and the rebuilt view carries the new pose.
	want := geom.SE3{R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.4), T: geom.Vec3{X: 5, Y: 5, Z: 5}}
	m.SetPoses([]KeyFramePose{{2, want}}, nil)
	v2 := m.LocalView(1, 10)
	if v2 == v1 {
		t.Fatal("pose write did not invalidate the view")
	}
	found := false
	for _, vkf := range v2.KFs {
		if vkf.ID == 2 {
			found = true
			if vkf.Tcw.T != want.T {
				t.Fatalf("view pose %v, want %v", vkf.Tcw.T, want.T)
			}
		}
	}
	if !found {
		t.Fatal("kf2 missing from window")
	}

	// Erasing a window point zeroes bindings on window keyframes,
	// which invalidates; the rebuilt view drops the point.
	m.EraseMapPoint(100)
	v3 := m.LocalView(1, 10)
	if v3 == v2 {
		t.Fatal("point erase did not invalidate the view")
	}
	if _, ok := v3.Point(100); ok {
		t.Fatal("erased point still in view")
	}
	if len(v3.Points) != len(v2.Points)-1 {
		t.Fatalf("view has %d points, want %d", len(v3.Points), len(v2.Points)-1)
	}
}

func TestLocalViewUnknownKeyFrameInvalidatesOnInsert(t *testing.T) {
	m, _, _ := buildViewFixture(t)
	v := m.LocalView(77, 10)
	if len(v.KFs) != 0 || len(v.Points) != 0 {
		t.Fatal("unknown keyframe produced a non-empty view")
	}
	if m.LocalView(77, 10) != v {
		t.Fatal("empty view not cached")
	}
	rng := rand.New(rand.NewSource(9))
	m.AddKeyFrame(newKF(77, 1, rng, 10))
	if m.LocalView(77, 10) == v {
		t.Fatal("view not invalidated when its keyframe appeared")
	}
}

func TestConcurrentViewsAndMutations(t *testing.T) {
	m, _, _ := buildViewFixture(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := float64(i%50) + float64(w)
				m.SetPoses([]KeyFramePose{{ID(1 + i%2), geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: k, Y: k, Z: k}}}}, nil)
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		v := m.LocalView(1, 10)
		for _, kf := range v.KFs {
			// Writers only ever store equal-component translations, so
			// any mismatch is a torn pose leaking into a snapshot.
			if kf.Tcw.T.X != kf.Tcw.T.Y || kf.Tcw.T.Y != kf.Tcw.T.Z {
				t.Fatalf("torn pose in view: %+v", kf.Tcw.T)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestViewsNeverServeErasedKeyFrame: eight keyframes sharing 30 points
// form one covisibility window. While three goroutines tick the
// activity clock, build or hit the cached view and touch the window,
// the window's members are erased one by one: each erase removes its
// keyframe, however many views are being built across it, and a view
// asked for afterwards does not list it.
func TestViewsNeverServeErasedKeyFrame(t *testing.T) {
	const nkf, npts = 8, 30
	for round := int64(0); round < 50; round++ {
		m := NewMap(nil)
		ids := make([]ID, nkf)
		for i := range ids {
			ids[i] = ID(1 + i)
			m.AddKeyFrame(&KeyFrame{ID: ids[i], Tcw: geom.IdentitySE3(), Keypoints: make([]feature.Keypoint, npts)})
		}
		for p := 0; p < npts; p++ {
			m.AddMapPoint(&MapPoint{ID: ID(100 + p), RefKF: 1})
			for _, id := range ids {
				mustAdd(t, m, id, ID(100+p), p)
			}
		}
		for _, id := range ids {
			m.UpdateConnections(id, 15)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					m.Tick()
					m.LocalView(1, 10).Valid()
					m.TouchKeyFrames(ids)
				}
			}()
		}
		rng := rand.New(rand.NewSource(round))
		for id := ID(nkf); id >= 2; id-- {
			for n := rng.Intn(50); n > 0; n-- {
				runtime.Gosched()
			}
			m.EraseKeyFrame(id)
			if _, ok := m.KeyFrame(id); ok {
				close(stop)
				wg.Wait()
				t.Fatalf("round %d: keyframe %d survived its erase", round, id)
			}
			for _, vkf := range m.LocalView(1, 10).KFs {
				if vkf.ID == id {
					t.Errorf("round %d: a view built after keyframe %d's erase lists it", round, id)
				}
			}
		}
		close(stop)
		wg.Wait()
		if rep := m.CheckInvariants(); !rep.OK() {
			t.Fatalf("round %d: %s", round, rep.Summary())
		}
	}
}

// TestConcurrentUpdateConnectionsStaysSymmetric: two neighbours
// recompute their edges while their shared points keep growing, so the
// two updates weigh the edge differently. Each update writes both
// sides of an edge under both stripe locks, so whichever lands last
// holds on both sides and the graph is symmetric at rest.
func TestConcurrentUpdateConnectionsStaysSymmetric(t *testing.T) {
	const shared = 120
	for round := 0; round < 300; round++ {
		m := NewMap(nil)
		for _, id := range []ID{1, 2} {
			m.AddKeyFrame(&KeyFrame{ID: id, Tcw: geom.IdentitySE3(), Keypoints: make([]feature.Keypoint, shared)})
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for _, id := range []ID{1, 2} {
			wg.Add(1)
			go func(id ID) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						m.UpdateConnections(id, 1)
					}
				}
			}(id)
		}
		for i := 0; i < shared; i++ {
			mp := &MapPoint{ID: ID(100 + i), RefKF: 1}
			m.AddMapPoint(mp)
			mustAdd(t, m, 1, mp.ID, i)
			mustAdd(t, m, 2, mp.ID, i)
		}
		close(stop)
		wg.Wait()
		if rep := m.CheckInvariants(); !rep.OK() {
			t.Fatalf("round %d: %s", round, rep.Summary())
		}
	}
}
