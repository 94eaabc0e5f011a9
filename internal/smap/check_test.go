package smap

import (
	"math"
	"slices"
	"testing"

	"slamshare/internal/feature"
	"slamshare/internal/geom"
)

// checkMap builds a minimal two-keyframe, two-point map through the
// public mutation API. A nil vocabulary keeps construction cheap; the
// BoW index still tracks membership.
func checkMap(t *testing.T) (*Map, *KeyFrame, *KeyFrame, *MapPoint, *MapPoint) {
	t.Helper()
	m := NewMap(nil)
	kps := []feature.Keypoint{{X: 10, Y: 10}, {X: 20, Y: 20}}
	kf1 := &KeyFrame{ID: 1, Client: 0, Tcw: geom.IdentitySE3(), Keypoints: kps}
	kf2 := &KeyFrame{ID: 2, Client: 0, Tcw: geom.IdentitySE3(), Keypoints: kps}
	m.AddKeyFrame(kf1)
	m.AddKeyFrame(kf2)
	mpA := &MapPoint{ID: 10, Pos: geom.Vec3{X: 1}, RefKF: 1}
	mpB := &MapPoint{ID: 11, Pos: geom.Vec3{Y: 1}, RefKF: 1}
	m.AddMapPoint(mpA)
	m.AddMapPoint(mpB)
	for _, mp := range []*MapPoint{mpA, mpB} {
		idx := int(mp.ID - 10)
		if err := m.AddObservation(1, mp.ID, idx); err != nil {
			t.Fatal(err)
		}
		if err := m.AddObservation(2, mp.ID, idx); err != nil {
			t.Fatal(err)
		}
	}
	m.UpdateConnections(1, 1)
	return m, kf1, kf2, mpA, mpB
}

func wantRule(t *testing.T, rep CheckReport, rule string) {
	t.Helper()
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return
		}
	}
	t.Errorf("no %q violation; got %v", rule, rep.Violations)
}

func TestCheckInvariantsCleanMap(t *testing.T) {
	m, _, _, _, _ := checkMap(t)
	rep := m.CheckInvariants()
	if !rep.OK() {
		t.Fatalf("clean map reported violations: %v", rep.Violations)
	}
	if rep.KeyFrames != 2 || rep.MapPoints != 2 {
		t.Errorf("counts: %d KFs / %d MPs", rep.KeyFrames, rep.MapPoints)
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestCheckInvariantsCleanAfterErase(t *testing.T) {
	m, _, _, mpA, _ := checkMap(t)
	m.EraseMapPoint(mpA.ID)
	m.EraseKeyFrame(2)
	if rep := m.CheckInvariants(); !rep.OK() {
		t.Fatalf("post-erase map reported violations: %v", rep.Violations)
	}
}

func TestCheckInvariantsDanglingBinding(t *testing.T) {
	m, kf1, _, _, _ := checkMap(t)
	st := m.stripe(kf1.ID)
	st.mu.Lock()
	kf1.MapPoints[0] = 999 // no such point
	st.mu.Unlock()
	wantRule(t, m.CheckInvariants(), "kf-binding-dangling")
}

func TestCheckInvariantsBackrefMismatch(t *testing.T) {
	m, _, _, mpA, _ := checkMap(t)
	st := m.stripe(mpA.ID)
	st.mu.Lock()
	mpA.Obs = put(mpA.Obs, ObsEntry{KF: 1, Idx: 1}) // keyframe 1 binds this point at keypoint 0, not 1
	st.mu.Unlock()
	rep := m.CheckInvariants()
	wantRule(t, rep, "kf-binding-backref")
	wantRule(t, rep, "mp-obs-backref")
}

func TestCheckInvariantsObsDanglingKeyFrame(t *testing.T) {
	m, _, _, _, mpB := checkMap(t)
	st := m.stripe(mpB.ID)
	st.mu.Lock()
	mpB.Obs = put(mpB.Obs, ObsEntry{KF: 777})
	st.mu.Unlock()
	wantRule(t, m.CheckInvariants(), "mp-obs-dangling")
}

func TestCheckInvariantsCovisAsymmetry(t *testing.T) {
	m, kf1, kf2, _, _ := checkMap(t)
	st := m.stripe(kf2.ID)
	st.mu.Lock()
	kf2.Conns = drop(kf2.Conns, kf1.ID)
	st.mu.Unlock()
	wantRule(t, m.CheckInvariants(), "covis-asymmetric")

	st.mu.Lock()
	kf2.Conns = put(kf2.Conns, Conn{KF: kf1.ID, Weight: 99}) // forward weight differs
	st.mu.Unlock()
	wantRule(t, m.CheckInvariants(), "covis-weight")

	st.mu.Lock()
	kf2.Conns = put(kf2.Conns, Conn{KF: kf2.ID, Weight: 1})
	st.mu.Unlock()
	wantRule(t, m.CheckInvariants(), "covis-self")

	st.mu.Lock()
	kf2.Conns = put(kf2.Conns, Conn{KF: 4242, Weight: 1})
	st.mu.Unlock()
	wantRule(t, m.CheckInvariants(), "covis-dangling")
}

func TestCheckInvariantsBowAgreement(t *testing.T) {
	m, _, _, _, _ := checkMap(t)
	m.imu.Lock()
	m.bowDB.Add(31337, nil) // stale entry for a keyframe that is not in the map
	m.bowDB.Remove(1)       // live keyframe dropped from the index
	m.imu.Unlock()
	rep := m.CheckInvariants()
	wantRule(t, rep, "bow-stale")
	wantRule(t, rep, "bow-missing")
}

func TestCheckInvariantsOrderAndCounts(t *testing.T) {
	m, _, _, _, _ := checkMap(t)
	// A keyframe smuggled into a stripe without AddKeyFrame: missing
	// from order, BoW, and the counter.
	rogue := &KeyFrame{ID: 7, Keypoints: nil, MapPoints: nil, Tcw: geom.IdentitySE3()}
	st := m.stripe(rogue.ID)
	st.mu.Lock()
	st.keyframes[rogue.ID] = rogue
	st.mu.Unlock()
	rep := m.CheckInvariants()
	wantRule(t, rep, "order-missing")
	wantRule(t, rep, "bow-missing")
	wantRule(t, rep, "count-mismatch")
}

func TestCheckInvariantsNonFinite(t *testing.T) {
	m, kf1, _, mpA, _ := checkMap(t)
	m.SetPoses([]KeyFramePose{{kf1.ID, geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: math.NaN()}}}}, nil)
	m.SetPoses(nil, []PointPos{{mpA.ID, geom.Vec3{Z: math.Inf(1)}}})
	rep := m.CheckInvariants()
	wantRule(t, rep, "kf-pose-notfinite")
	wantRule(t, rep, "mp-pos-notfinite")
}

func TestCheckInvariantsIDRules(t *testing.T) {
	m, _, _, _, _ := checkMap(t)
	m.AddMapPoint(&MapPoint{ID: 1, Pos: geom.Vec3{}, RefKF: 1}) // collides with keyframe 1
	m.AddMapPoint(&MapPoint{ID: 0, RefKF: 1})                   // reserved ID
	m.AddMapPoint(&MapPoint{ID: 12})                            // no reference keyframe
	rep := m.CheckInvariants()
	wantRule(t, rep, "id-cross")
	wantRule(t, rep, "id-zero")
	wantRule(t, rep, "mp-refkf-zero")
}

// TestPerEntityRulesBothEntryPoints is the drift guard between the two
// audits: every per-entity rule, provoked once on a small map, must be
// reported by the whole-map audit and by CheckSubgraph over all IDs.
func TestPerEntityRulesBothEntryPoints(t *testing.T) {
	// locked runs f under id's stripe write lock, the way a mutator would.
	locked := func(m *Map, id ID, f func()) {
		st := m.stripe(id)
		st.mu.Lock()
		defer st.mu.Unlock()
		f()
	}
	cases := []struct {
		rule    string
		corrupt func(m *Map, kf1, kf2 *KeyFrame, mpA, mpB *MapPoint)
	}{
		{"id-zero", func(m *Map, _, _ *KeyFrame, _, _ *MapPoint) {
			m.AddMapPoint(&MapPoint{ID: 0, RefKF: 1})
		}},
		{"id-cross", func(m *Map, kf1, _ *KeyFrame, _, _ *MapPoint) {
			m.AddMapPoint(&MapPoint{ID: kf1.ID, RefKF: 1})
		}},
		{"kf-pose-notfinite", func(m *Map, kf1, _ *KeyFrame, _, _ *MapPoint) {
			m.SetPoses([]KeyFramePose{{kf1.ID, geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: math.NaN()}}}}, nil)
		}},
		{"kf-binding-len", func(m *Map, kf1, _ *KeyFrame, _, _ *MapPoint) {
			locked(m, kf1.ID, func() { kf1.MapPoints = kf1.MapPoints[:1] })
		}},
		{"kf-binding-dangling", func(m *Map, kf1, _ *KeyFrame, _, _ *MapPoint) {
			locked(m, kf1.ID, func() { kf1.MapPoints[0] = 999 })
		}},
		{"kf-binding-backref", func(m *Map, _, _ *KeyFrame, mpA, _ *MapPoint) {
			locked(m, mpA.ID, func() { mpA.Obs = drop(mpA.Obs, 1) })
		}},
		{"covis-self", func(m *Map, _, kf2 *KeyFrame, _, _ *MapPoint) {
			locked(m, kf2.ID, func() { kf2.Conns = put(kf2.Conns, Conn{KF: kf2.ID, Weight: 1}) })
		}},
		{"covis-dangling", func(m *Map, _, kf2 *KeyFrame, _, _ *MapPoint) {
			locked(m, kf2.ID, func() { kf2.Conns = put(kf2.Conns, Conn{KF: 4242, Weight: 1}) })
		}},
		{"covis-asymmetric", func(m *Map, kf1, kf2 *KeyFrame, _, _ *MapPoint) {
			locked(m, kf2.ID, func() { kf2.Conns = drop(kf2.Conns, kf1.ID) })
		}},
		{"covis-weight", func(m *Map, kf1, kf2 *KeyFrame, _, _ *MapPoint) {
			locked(m, kf2.ID, func() { kf2.Conns = put(kf2.Conns, Conn{KF: kf1.ID, Weight: 99}) })
		}},
		{"mp-pos-notfinite", func(m *Map, _, _ *KeyFrame, mpA, _ *MapPoint) {
			m.SetPoses(nil, []PointPos{{mpA.ID, geom.Vec3{Z: math.Inf(1)}}})
		}},
		{"mp-refkf-zero", func(m *Map, _, _ *KeyFrame, _, _ *MapPoint) {
			m.AddMapPoint(&MapPoint{ID: 12})
		}},
		{"mp-obs-dangling", func(m *Map, _, _ *KeyFrame, _, mpB *MapPoint) {
			locked(m, mpB.ID, func() { mpB.Obs = put(mpB.Obs, ObsEntry{KF: 777}) })
		}},
		{"mp-obs-backref", func(m *Map, _, _ *KeyFrame, mpA, _ *MapPoint) {
			locked(m, mpA.ID, func() { mpA.Obs = put(mpA.Obs, ObsEntry{KF: 1, Idx: 1}) })
		}},
		{"relation-order", func(m *Map, _, _ *KeyFrame, mpA, _ *MapPoint) {
			locked(m, mpA.ID, func() { slices.Reverse(mpA.Obs) })
		}},
	}
	for _, c := range cases {
		t.Run(c.rule, func(t *testing.T) {
			m, kf1, kf2, mpA, mpB := checkMap(t)
			c.corrupt(m, kf1, kf2, mpA, mpB)
			var kfIDs, mpIDs []ID
			for _, kf := range m.KeyFrames() {
				kfIDs = append(kfIDs, kf.ID)
			}
			for _, mp := range m.MapPoints() {
				mpIDs = append(mpIDs, mp.ID)
			}
			wantRule(t, m.CheckInvariants(), c.rule)
			wantRule(t, m.CheckSubgraph(kfIDs, mpIDs), c.rule)
		})
	}
}
