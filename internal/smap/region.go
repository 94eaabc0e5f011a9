package smap

import "sort"

// Lifecycle bookkeeping: pin counts, the activity clock, and
// covisibility clusters. The map-lifecycle manager (internal/lifecycle)
// culls and evicts keyframes while sessions keep tracking against the
// same map, so erase needs a protocol that can never tear an in-flight
// LocalView build:
//
//   - Pin(ids) marks keyframes a reader is about to walk. A pinned
//     keyframe is never erased: EraseKeyFrame checks the pin table
//     first and refuses (the culler simply retries on a later pass).
//   - An erase that passes the pin check marks the ID condemned before
//     touching any stripe. Pin refuses condemned IDs, so a reader that
//     loses the race knows not to rely on that keyframe; the
//     per-keyframe version counters invalidate whatever snapshot it
//     builds anyway.
//
// Both tables live under lmu, a leaf mutex by the locking rules: it is
// taken with no stripe locks held, and no stripe lock is acquired
// while holding it. The activity clock (tick) is a plain atomic the
// server advances once per handled frame; addKeyFrame and LocalView
// builds stamp the keyframes they touch, which is what the eviction
// policy's "untouched for N frames" reads.

// Tick advances the map's activity clock by one frame and returns the
// new value. The server calls it once per handled camera frame, across
// all sessions; eviction ages are measured on this clock.
func (m *Map) Tick() uint64 { return m.tick.Add(1) }

// CurrentTick returns the activity clock without advancing it.
func (m *Map) CurrentTick() uint64 { return m.tick.Load() }

// TouchKeyFrames stamps the given keyframes with the current tick,
// marking their region hot. Insertions and LocalView builds touch
// implicitly; merge reloads call this explicitly so a freshly reloaded
// region is not immediately re-evicted.
func (m *Map) TouchKeyFrames(ids []ID) {
	now := m.tick.Load()
	m.lmu.Lock()
	for _, id := range ids {
		m.lastTouch[id] = now
	}
	m.lmu.Unlock()
}

func (m *Map) touchOne(id ID) {
	now := m.tick.Load()
	m.lmu.Lock()
	m.lastTouch[id] = now
	m.lmu.Unlock()
}

// LastTouch returns the tick at which the keyframe was last inserted,
// read by a LocalView build, or explicitly touched. Zero means never
// (or unknown ID).
func (m *Map) LastTouch(id ID) uint64 {
	m.lmu.Lock()
	t := m.lastTouch[id]
	m.lmu.Unlock()
	return t
}

// Pin increments the pin count of each keyframe and returns the subset
// actually pinned. Condemned IDs (an erase already committed to
// removing them) are skipped — the caller's snapshot validation
// catches whatever it reads of those. Every returned ID must be
// handed back through Unpin.
func (m *Map) Pin(ids []ID) []ID {
	pinned := ids[:0:0]
	m.lmu.Lock()
	for _, id := range ids {
		if _, dying := m.condemned[id]; dying {
			continue
		}
		m.pins[id]++
		pinned = append(pinned, id)
	}
	m.lmu.Unlock()
	return pinned
}

// Unpin decrements pin counts previously taken with Pin.
func (m *Map) Unpin(ids []ID) {
	m.lmu.Lock()
	for _, id := range ids {
		if n := m.pins[id]; n > 1 {
			m.pins[id] = n - 1
		} else {
			delete(m.pins, id)
		}
	}
	m.lmu.Unlock()
}

// PinCount returns the current pin count of a keyframe.
func (m *Map) PinCount(id ID) int {
	m.lmu.Lock()
	n := m.pins[id]
	m.lmu.Unlock()
	return n
}

// beginErase is the erase side of the pin protocol: it refuses when
// the keyframe is pinned, otherwise condemns the ID so no new pin
// lands while the erase detaches it stripe by stripe. endErase lifts
// the mark.
func (m *Map) beginErase(id ID) bool {
	m.lmu.Lock()
	if m.pins[id] > 0 {
		m.lmu.Unlock()
		return false
	}
	m.condemned[id] = struct{}{}
	m.lmu.Unlock()
	return true
}

// endErase clears the condemned mark and the activity stamp of an
// erased keyframe.
func (m *Map) endErase(id ID) {
	m.lmu.Lock()
	delete(m.condemned, id)
	delete(m.lastTouch, id)
	m.lmu.Unlock()
}

// forgetTouch drops activity stamps for keyframes that left the map
// through a path other than EraseKeyFrame (staged-merge rollback).
func (m *Map) forgetTouch(ids []ID) {
	m.lmu.Lock()
	for _, id := range ids {
		delete(m.lastTouch, id)
	}
	m.lmu.Unlock()
}

// PruneTouch drops activity stamps for IDs live rejects. A stamp can
// outlive its keyframe when a view touch races an erase; the stamps
// are advisory, so the lifecycle manager prunes them on its scans
// rather than the erase paths paying for strict cleanup.
func (m *Map) PruneTouch(live func(ID) bool) {
	m.lmu.Lock()
	ids := make([]ID, 0, len(m.lastTouch))
	for id := range m.lastTouch {
		ids = append(ids, id)
	}
	m.lmu.Unlock()
	// Test liveness outside lmu: live() takes stripe locks, and lmu is
	// a leaf mutex. A keyframe re-inserted between the phases keeps its
	// fresh stamp because touchOne re-stamps on insert anyway.
	stale := ids[:0]
	for _, id := range ids {
		if !live(id) {
			stale = append(stale, id)
		}
	}
	m.lmu.Lock()
	for _, id := range stale {
		delete(m.lastTouch, id)
	}
	m.lmu.Unlock()
}

// lifecycleSnapshot copies the pin and touch tables for the invariant
// checker.
func (m *Map) lifecycleSnapshot() (pins map[ID]int, touch map[ID]uint64) {
	m.lmu.Lock()
	pins = make(map[ID]int, len(m.pins))
	for id, n := range m.pins {
		pins[id] = n
	}
	touch = make(map[ID]uint64, len(m.lastTouch))
	for id, t := range m.lastTouch {
		touch[id] = t
	}
	m.lmu.Unlock()
	return pins, touch
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
		var neighbours []ID
		if ok {
			neighbours = make([]ID, 0, len(kf.Conns))
			for other := range kf.Conns {
				neighbours = append(neighbours, other)
			}
		}
		s.mu.RUnlock()
		if !ok {
			continue
		}
		cluster = append(cluster, id)
		// Deterministic traversal: Conns is a map, so sort before
		// enqueueing or the cluster cut would vary run to run.
		sort.Slice(neighbours, func(i, j int) bool { return neighbours[i] < neighbours[j] })
		for _, other := range neighbours {
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
