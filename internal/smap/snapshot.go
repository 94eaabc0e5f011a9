package smap

import (
	"cmp"
	"slices"
	"sort"
)

// Snapshot copies the map at one cut: every keyframe in insertion
// order and every map point by ascending ID, read under one hold of
// every stripe read lock (ascending) and then imu, so no mutation is
// half in it. during, if not nil, runs inside the hold, while writers
// wait: a checkpoint rotates its journal there, so the snapshot holds
// exactly the records sequenced before the rotation. Like an Observer
// callback, during must not call into the Map.
//
// An erase records itself and then unlinks its neighbours one stripe
// at a time, so the cut can fall inside that walk; the copy finishes
// it, dropping bindings to points and observations by keyframes the
// cut does not hold. A fuse's redirect walk is not finished here:
// callers hold merges off (persist's lock does).
func (m *Map) Snapshot(during func()) ([]*KeyFrame, []*MapPoint) {
	m.rlockAll()
	m.imu.RLock()
	kfs := make([]*KeyFrame, 0, len(m.order))
	for _, id := range m.order {
		if kf, ok := m.stripe(id).keyframes[id]; ok {
			kfs = append(kfs, snapshotKF(kf))
		}
	}
	mps := make([]*MapPoint, 0, max(m.nmp.Load(), 0)) // the count moves outside the stripe locks
	for i := range m.stripes {
		for _, mp := range m.stripes[i].points {
			mps = append(mps, snapshotMP(mp))
		}
	}
	if during != nil {
		during()
	}
	m.imu.RUnlock()
	m.rUnlockAll()

	slices.SortFunc(mps, func(a, b *MapPoint) int { return cmp.Compare(a.ID, b.ID) })
	kfIDs := make([]ID, len(kfs))
	for i, kf := range kfs {
		kfIDs[i] = kf.ID
	}
	slices.Sort(kfIDs)
	for _, kf := range kfs {
		for i, id := range kf.MapPoints {
			if id == 0 {
				continue
			}
			if _, held := slices.BinarySearchFunc(mps, id, func(mp *MapPoint, id ID) int { return cmp.Compare(mp.ID, id) }); !held {
				kf.MapPoints[i] = 0
			}
		}
	}
	for _, mp := range mps {
		mp.Obs = slices.DeleteFunc(mp.Obs, func(o ObsEntry) bool {
			_, held := slices.BinarySearch(kfIDs, o.KF)
			return !held
		})
	}
	return kfs, mps
}

// SnapshotRegion deep-copies a covisibility cluster out of the map
// without mutating it: the named keyframes plus every map point whose
// observers all lie inside the cluster (the cluster-private points —
// the set that would be orphaned if the keyframes were erased). This
// is the boundary-export primitive for cross-shard handoff: unlike the
// lifecycle evictor, which detaches a region as it encodes it, the
// exporter must keep serving the region until the peer shard commits,
// so it works on snapshot copies (snapshotKF/snapshotMP).
//
// Callers that need the cluster to be mutually consistent — bindings
// in one keyframe matching observations in another — must hold the
// map-wide coordination lock (the server's gmu) across the call;
// per-stripe read locks alone only make each entity copy atomic.
// Results are sorted by ID for deterministic encoding.
func (m *Map) SnapshotRegion(ids []ID) ([]*KeyFrame, []*MapPoint) {
	in := make(map[ID]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	kfs := make([]*KeyFrame, 0, len(ids))
	mpSet := make(map[ID]bool)
	for _, id := range ids {
		s := &m.stripes[stripeOf(id)]
		s.mu.RLock()
		var c *KeyFrame
		if kf := s.keyframes[id]; kf != nil {
			c = snapshotKF(kf)
		}
		s.mu.RUnlock()
		if c == nil {
			continue
		}
		kfs = append(kfs, c)
		for _, mpID := range c.MapPoints {
			if mpID != 0 {
				mpSet[mpID] = true
			}
		}
	}
	mps := make([]*MapPoint, 0, len(mpSet))
	for mpID := range mpSet {
		s := &m.stripes[stripeOf(mpID)]
		s.mu.RLock()
		var c *MapPoint
		if mp := s.points[mpID]; mp != nil {
			private := true
			for _, o := range mp.Obs {
				if !in[o.KF] {
					private = false
					break
				}
			}
			if private {
				c = snapshotMP(mp)
			}
		}
		s.mu.RUnlock()
		if c != nil {
			mps = append(mps, c)
		}
	}
	sort.Slice(kfs, func(i, j int) bool { return kfs[i].ID < kfs[j].ID })
	sort.Slice(mps, func(i, j int) bool { return mps[i].ID < mps[j].ID })
	return kfs, mps
}
