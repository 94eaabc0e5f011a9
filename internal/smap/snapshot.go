package smap

import "sort"

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
