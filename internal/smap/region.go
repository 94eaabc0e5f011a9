package smap

import "slices"

// Lifecycle bookkeeping: the activity clock and covisibility
// clusters. The map-lifecycle manager (internal/lifecycle) culls and
// evicts keyframes while sessions keep tracking against the same map.
// An erase needs no protocol with the readers: a LocalView reads each
// window member whole under its stripe lock, and an erase bumps the
// member's tombstone version, so a view built across an erase fails
// Valid the next time it is checked.
//
// The activity clock (tick) is a plain atomic the server advances once
// per handled frame. Each keyframe carries the tick it was last touched
// at, under its own stripe lock: insertion, a LocalView build or cache
// hit and TouchKeyFrames stamp it, which is what the eviction policy's
// "untouched for N frames" reads. The stamp leaves with the keyframe.

// Tick advances the map's activity clock by one frame and returns the
// new value. The server calls it once per handled camera frame, across
// all sessions; eviction ages are measured on this clock.
func (m *Map) Tick() uint64 { return m.tick.Add(1) }

// CurrentTick returns the activity clock without advancing it.
func (m *Map) CurrentTick() uint64 { return m.tick.Load() }

// TouchKeyFrames stamps the given keyframes with the current tick,
// marking their region hot; unknown IDs are skipped. Insertions and
// LocalView builds touch implicitly; merge reloads call this explicitly
// so a freshly reloaded region is not immediately re-evicted.
func (m *Map) TouchKeyFrames(ids []ID) {
	now := m.tick.Load()
	for _, id := range ids {
		s := m.stripe(id)
		s.mu.Lock()
		if kf, ok := s.keyframes[id]; ok {
			kf.touched = now
		}
		s.mu.Unlock()
	}
}

// LastTouch returns the tick at which the keyframe was last inserted,
// read by a LocalView, or explicitly touched. Zero means never (or
// unknown ID).
func (m *Map) LastTouch(id ID) uint64 {
	s := m.stripe(id)
	s.mu.RLock()
	var t uint64
	if kf, ok := s.keyframes[id]; ok {
		t = kf.touched
	}
	s.mu.RUnlock()
	return t
}

// PointStats returns a consistent snapshot of the statistics the
// sparsification policy scores a map point on: how often trackers
// re-found it after creation, how many keyframes observe it, and the
// keyframe it was triangulated from.
func (m *Map) PointStats(id ID) (found, nobs int, refKF ID, ok bool) {
	s := m.stripe(id)
	s.mu.RLock()
	mp, ok := s.points[id]
	if ok {
		found, nobs, refKF = mp.Found, len(mp.Obs), mp.RefKF
	}
	s.mu.RUnlock()
	return found, nobs, refKF, ok
}

// CovisCluster grows a covisibility-connected cluster from seed,
// breadth-first over the covisibility graph, admitting only keyframes
// for which include returns true and stopping at limit members. The
// eviction policy uses it to carve a cold region out of the map: seed
// is the coldest keyframe and include tests the same coldness, so the
// cluster is a connected patch of the world no session has looked at
// recently.
func (m *Map) CovisCluster(seed ID, limit int, include func(ID) bool) []ID {
	if limit <= 0 || include != nil && !include(seed) {
		return nil
	}
	visited := map[ID]bool{seed: true}
	cluster := make([]ID, 0, limit)
	queue := []ID{seed}
	for len(queue) > 0 && len(cluster) < limit {
		id := queue[0]
		queue = queue[1:]
		s := m.stripe(id)
		s.mu.RLock()
		kf, ok := s.keyframes[id]
		var neighbours []Conn
		if ok {
			neighbours = slices.Clone(kf.Conns)
		}
		s.mu.RUnlock()
		if !ok {
			continue
		}
		cluster = append(cluster, id)
		// Neighbours enqueue in ascending ID, so the cluster cut is the
		// same run to run.
		for _, c := range neighbours {
			other := c.KF
			if visited[other] {
				continue
			}
			visited[other] = true
			if include == nil || include(other) {
				queue = append(queue, other)
			}
		}
	}
	return cluster
}
