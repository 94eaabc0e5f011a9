package smap

import (
	"slices"
	"testing"

	"slamshare/internal/feature"
	"slamshare/internal/geom"
)

// TestSnapshotFinishesErases: an erase records itself and unlinks its
// neighbours afterwards, one stripe at a time. A cut that falls between
// the two halves must come out as if the walk had finished: no binding
// to the erased point, no observation by the erased keyframe.
func TestSnapshotFinishesErases(t *testing.T) {
	m := oneKeyFrame(10, 11)
	m.AddKeyFrame(&KeyFrame{ID: 2, Tcw: geom.IdentitySE3(), Keypoints: make([]feature.Keypoint, 4)})
	mustAdd(t, m, 1, 10, 0)
	mustAdd(t, m, 1, 11, 1)
	mustAdd(t, m, 2, 11, 2)
	// The first halves of EraseMapPoint(10) and EraseKeyFrame(2): each
	// entity has left its stripe, its neighbours still name it.
	delete(m.stripe(10).points, 10)
	delete(m.stripe(2).keyframes, 2)

	kfs, mps := m.Snapshot(nil)
	if len(kfs) != 1 || kfs[0].ID != 1 || len(mps) != 1 || mps[0].ID != 11 {
		t.Fatalf("snapshot holds %d keyframes, %d points", len(kfs), len(mps))
	}
	if got := kfs[0].MapPoints; !slices.Equal(got, []ID{0, 11, 0, 0}) {
		t.Errorf("keyframe 1 bindings %v, want [0 11 0 0]", got)
	}
	if got := mps[0].Obs; !slices.Equal(got, []ObsEntry{{KF: 1, Idx: 1}}) {
		t.Errorf("point 11 observers %v, want [{1 1}]", got)
	}
	// The live map is the erases' to finish, not the snapshot's.
	if _, bound, _ := m.KeyFrameState(1); bound[0] != 10 {
		t.Errorf("snapshot edited the live keyframe: bindings %v", bound)
	}
}

// TestSnapshotHoldsWritersOff: during runs while every stripe and the
// order/BoW lock are read-held, so no writer can take one.
func TestSnapshotHoldsWritersOff(t *testing.T) {
	m := oneKeyFrame(10)
	ran := false
	m.Snapshot(func() {
		ran = true
		for i := range m.stripes {
			if m.stripes[i].mu.TryLock() {
				m.stripes[i].mu.Unlock()
				t.Errorf("stripe %d writable inside the cut", i)
			}
		}
		if m.imu.TryLock() {
			m.imu.Unlock()
			t.Error("imu writable inside the cut")
		}
	})
	if !ran {
		t.Error("during never ran")
	}
}
