package smap

// Staged insertion and rollback primitives for the transactional
// merge. A merge inserts the client map's entities provisionally,
// validates the touched subgraph, and either publishes (BoW-indexes)
// the new keyframes or removes everything it inserted. Because the
// zero-copy insert shares KeyFrame/MapPoint objects between the client
// map and the global map, rollback must never run the detaching erase
// paths (EraseKeyFrame/EraseMapPoint) — those would scrub observation
// maps and covisibility edges the client map still needs. The
// primitives below unlink entities from the global map's indices while
// leaving the shared objects intact.

// InsertAllStaged moves every map point and keyframe of src into m
// without copying the underlying data — the zero-copy shared-memory
// insert of Alg. 2 lines 2–5 ("this only adds pointers to the global
// map database") — but defers place-recognition indexing: staged
// keyframes are invisible to QueryBow until PublishKeyFrames, so
// relocalization on other sessions cannot anchor to entities a merge
// may yet roll back. src retains its contents; callers should stop
// using it as an owner afterwards. The inserted IDs are returned for the transaction's undo log.
// A full CheckInvariants run would flag staged keyframes as
// bow-missing; the staging window lives entirely inside a merge, which
// is exactly when whole-map audits do not run.
func (m *Map) InsertAllStaged(src *Map) (kfIDs, mpIDs []ID) {
	for _, mp := range src.MapPoints() {
		m.AddMapPoint(mp)
		mpIDs = append(mpIDs, mp.ID)
	}
	for _, kf := range src.KeyFrames() {
		m.addKeyFrame(kf, false)
		kfIDs = append(kfIDs, kf.ID)
	}
	return kfIDs, mpIDs
}

// PublishKeyFrames adds staged keyframes to the BoW database — the
// commit step of a staged insert. Unknown IDs are skipped.
func (m *Map) PublishKeyFrames(ids []ID) {
	for _, id := range ids {
		s := m.stripe(id)
		s.mu.RLock()
		kf, ok := s.keyframes[id]
		s.mu.RUnlock()
		if !ok {
			continue
		}
		m.imu.Lock()
		m.bowDB.Add(id, kf.Bow)
		m.imu.Unlock()
	}
}

// RemoveEntities unlinks the given keyframes and map points from the
// map without detaching their cross-references — the rollback
// counterpart of InsertAllStaged. The shared objects keep their
// bindings, observations, and covisibility edges so the client map
// that still owns them stays whole; the global map merely forgets
// them (stripe entries, insertion order, BoW rows, cached views).
// Missing IDs are skipped: points consumed by FusePoint are already
// gone.
func (m *Map) RemoveEntities(kfIDs, mpIDs []ID) {
	removedKF := make(map[ID]bool, len(kfIDs))
	for _, id := range kfIDs {
		s := m.stripe(id)
		s.mu.Lock()
		_, ok := s.keyframes[id]
		if ok {
			delete(s.keyframes, id)
			s.kfVer[id]++ // tombstone: views holding this keyframe go stale
			if m.observer != nil {
				m.observer.KeyFrameErased(id)
			}
			m.version.Add(1)
		}
		s.mu.Unlock()
		if ok {
			m.nkf.Add(-1)
			removedKF[id] = true
		}
	}
	for _, id := range mpIDs {
		s := m.stripe(id)
		s.mu.Lock()
		_, ok := s.points[id]
		if ok {
			delete(s.points, id)
			if m.observer != nil {
				m.observer.MapPointErased(id)
			}
			m.version.Add(1)
		}
		s.mu.Unlock()
		if ok {
			m.nmp.Add(-1)
		}
	}
	if len(removedKF) > 0 {
		m.imu.Lock()
		order := make([]ID, 0, len(m.order))
		for _, id := range m.order {
			if !removedKF[id] {
				order = append(order, id)
			}
		}
		m.order = order
		for id := range removedKF {
			delete(m.inOrder, id)
			m.bowDB.Remove(id)
		}
		m.imu.Unlock()
	}
	m.version.Add(1)
	m.dropViews()
}

// UndoFuse reverses the binding redirects of FusePoint(from, to),
// given pre-fuse snapshots of both points' observers (PointObs). Each
// observation is re-pointed at from, and to forgets observers the fuse
// gave it. It does not
// re-insert from into the map — merge rollback removes the inserted
// client entities wholesale afterwards; this exists so the keyframe
// binding slices and to's observer list, objects shared with the
// client map, return to their pre-merge state. Not journaled: it edits
// only keyframes the rollback's RemoveEntities unlinks next, and
// to's observers of them, and replay's detaching erase of each such
// keyframe drops the same observers.
func (m *Map) UndoFuse(from, to ID, fromObs, toObs []ObsEntry) {
	for _, o := range fromObs {
		unlock := m.lockPair(o.KF, to)
		ks, ts := m.stripe(o.KF), m.stripe(to)
		if kf, ok := ks.keyframes[o.KF]; ok && o.Idx >= 0 && o.Idx < len(kf.MapPoints) {
			// The slot holds `to` (redirected) or 0 (cleared when the
			// skipped binding was erased with from); anything else was
			// rebound since and is left alone.
			if b := kf.MapPoints[o.Idx]; b == to || b == 0 {
				kf.MapPoints[o.Idx] = from
				ks.kfVer[o.KF]++
			}
		}
		if _, had := find(toObs, o.KF); !had {
			if tp, ok := ts.points[to]; ok {
				if i, dup := find(tp.Obs, o.KF); dup && tp.Obs[i].Idx == o.Idx {
					tp.Obs = drop(tp.Obs, o.KF)
				}
			}
		}
		unlock()
	}
	m.version.Add(1)
}
