// Package smap implements the SLAM map data structures the paper
// shares between client processes: keyframes, map points, the
// covisibility graph, and the Map container itself. IDs are allocated
// from per-client ranges so that multiple clients' keyframes and map
// points never collide when their maps are inserted into the shared
// global map — the index-renumbering problem §4.3.1 describes.
//
// Concurrency model. The Map shards its keyframe and map-point
// storage across a fixed array of stripes, each guarded by its own
// RWMutex, so N concurrent trackers contend only when their IDs hash
// to the same stripe. Mutations bump a global version counter plus a
// per-keyframe version; trackers read through immutable LocalView
// snapshots that stay valid until a *relevant* keyframe version
// moves, making the per-frame search-local-points path lock-free.
// The lock-ordering rule: when a method needs several stripe locks it
// acquires them in ascending stripe-index order (derived from the ID
// hash), and the insertion-order/BoW index lock is only ever taken
// after stripe locks, never before. Operations that restructure the
// whole map (ApplyTransform) take every stripe in ascending order.
// The Observer is called in place, on the mutating goroutine, while
// the mutated entity's stripe lock is still held: the order observers
// see is the order the mutations took effect, with no queue between
// the map and its journal (see Observer for what a callback may do).
package smap

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"slamshare/internal/bow"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
)

// ID identifies a keyframe or map point globally (across clients).
type ID = uint64

// ClientIDBits is the number of low bits reserved for per-client
// sequence numbers; the client index lives above them.
const ClientIDBits = 40

// IDAllocator hands out IDs from a client's private range.
type IDAllocator struct {
	mu   sync.Mutex
	next ID
}

// NewIDAllocator returns an allocator for the given client index.
// Client indices must be distinct; index 0 is conventionally the
// global map itself.
func NewIDAllocator(client int) *IDAllocator {
	return &IDAllocator{next: ID(client)<<ClientIDBits + 1}
}

// NewIDAllocatorFrom returns an allocator for the client whose next ID
// follows the given per-client sequence number — used when a client
// reconnects to a recovered map so fresh IDs never collide with the
// IDs it allocated before the server restart.
func NewIDAllocatorFrom(client int, seq ID) *IDAllocator {
	return &IDAllocator{next: ID(client)<<ClientIDBits + seq + 1}
}

// Next returns a fresh ID.
func (a *IDAllocator) Next() ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	id := a.next
	a.next++
	return id
}

// ClientOf extracts the client index an ID was allocated by.
func ClientOf(id ID) int { return int(id >> ClientIDBits) }

// SeqOf extracts the per-client sequence number of an ID.
func SeqOf(id ID) ID { return id & (ID(1)<<ClientIDBits - 1) }

// Observer receives notifications of map mutations. It is how the
// persistence layer journals the shared global map without the map
// depending on it. Callbacks run on the mutating goroutine, before
// the mutator returns, under the write lock of the mutated entity's
// stripe (both stripes for ObservationAdded), and receive the live
// entity. An implementation therefore must not call into the Map
// (the stripe lock is not reentrant), must not block on I/O (every
// mutator and reader of that stripe waits behind it) and must not
// keep the pointer past the call (the entity mutates once the lock
// drops) — encode what it needs and return. Callbacks for one entity
// arrive in mutation order, so an observer that sequences them under
// a lock of its own sees one order consistent with every entity's.
type Observer interface {
	// KeyFrameAdded fires after a keyframe is inserted (or re-inserted).
	KeyFrameAdded(kf *KeyFrame)
	// MapPointAdded fires after a map point is inserted.
	MapPointAdded(mp *MapPoint)
	// KeyFrameErased fires after a keyframe is removed.
	KeyFrameErased(id ID)
	// MapPointErased fires after a map point is removed.
	MapPointErased(id ID)
	// ObservationAdded fires after a keypoint-to-map-point binding is
	// established through AddObservation.
	ObservationAdded(kfID, mpID ID, kpIdx int)
}

// KeyFrame is a camera frame promoted into the map: its pose, its
// extracted keypoints, its bag-of-words encoding, and its links to the
// map points it observes.
type KeyFrame struct {
	ID        ID
	Client    int     // client that produced it
	Stamp     float64 // capture time, seconds
	FrameIdx  int     // source frame index on the client
	Tcw       geom.SE3
	Keypoints []feature.Keypoint
	Bow       bow.Vec
	// MapPoints[i] is the map point observed by Keypoints[i], or 0.
	MapPoints []ID
	// Covisible keyframes and their shared-observation counts.
	Conns map[ID]int
}

// Pose returns the world-to-camera transform.
func (kf *KeyFrame) Pose() geom.SE3 { return kf.Tcw }

// Center returns the camera center in world coordinates.
func (kf *KeyFrame) Center() geom.Vec3 { return kf.Tcw.Inverse().T }

// TrackedPoints returns the number of keypoints bound to map points.
func (kf *KeyFrame) TrackedPoints() int {
	n := 0
	for _, id := range kf.MapPoints {
		if id != 0 {
			n++
		}
	}
	return n
}

// MapPoint is a triangulated 3D landmark with its representative
// descriptor and the keyframes observing it.
type MapPoint struct {
	ID     ID
	Client int
	Pos    geom.Vec3
	Desc   feature.Descriptor
	Normal geom.Vec3 // mean viewing direction
	// Obs maps observing keyframe -> keypoint index within it.
	Obs map[ID]int
	// RefKF is the keyframe the point was created from.
	RefKF ID
	// Visible/Found track projection statistics for culling.
	Visible int
	Found   int
}

// NObs returns the number of observing keyframes.
func (mp *MapPoint) NObs() int { return len(mp.Obs) }

const (
	stripeBits = 6
	// numStripes is the fixed stripe count; a power of two so the
	// stripe index is the top bits of a multiplicative hash.
	numStripes = 1 << stripeBits
	// viewCacheMax bounds the cached LocalView table; the cache is
	// dropped wholesale when it outgrows this (entries are keyed by
	// reference keyframe, which advances as clients move).
	viewCacheMax = 256
)

// stripeOf hashes an ID to its stripe index (Fibonacci hashing: the
// top bits of the product are well mixed even for sequential IDs).
func stripeOf(id ID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> (64 - stripeBits))
}

// stripe is one shard of the map: a private RWMutex over its slice of
// the keyframe and map-point tables plus per-keyframe mutation
// counters (kfVer) that LocalView snapshots validate against. Erased
// keyframes keep a bumped tombstone counter so a version number is
// never reused for an ID.
type stripe struct {
	mu        sync.RWMutex
	keyframes map[ID]*KeyFrame
	points    map[ID]*MapPoint
	kfVer     map[ID]uint64
}

// viewKey identifies a cached LocalView.
type viewKey struct {
	kf     ID
	maxKFs int
}

// localScratch is pooled per-call working state for local-map window
// collection (the seen-set and ID list a view build would otherwise
// reallocate every time).
type localScratch struct {
	seen map[ID]struct{}
	ids  []ID
}

// Map is a SLAM map: keyframes + map points + covisibility + a BoW
// index for place recognition. It is safe for concurrent use; the
// shared global map of the paper is one Map value every client
// process (a session goroutine) reaches by pointer — the paper's
// shared-memory region, with nothing serialized and nothing copied.
// See the package comment for the locking model.
type Map struct {
	voc *bow.Vocabulary

	// version counts every mutation; LocalView uses it as a fast-path
	// validity check. Mutators bump the relevant per-keyframe counters
	// first and version last, so a view that revalidates against a
	// version value is never more than one mutation stale.
	version atomic.Uint64
	nkf     atomic.Int64
	nmp     atomic.Int64

	stripes [numStripes]stripe

	// imu guards the insertion-order list and the BoW index. By the
	// lock-ordering rule it may be taken while holding stripe locks
	// but stripe locks are never acquired while holding it.
	imu   sync.RWMutex
	order []ID
	// inOrder tracks membership of order: erases leave IDs lingering
	// there (KeyFrames skips the dead ones), so a re-insert — a
	// lifecycle region reload — must not append a duplicate.
	inOrder map[ID]struct{}
	bowDB   *bow.Database

	// observer, when non-nil, is told of every journaled mutation (see
	// Observer). Written only with every stripe lock held; read under
	// any stripe lock.
	observer Observer

	// vmu guards the LocalView cache. Leaf lock: taken with no other
	// map locks held.
	vmu   sync.RWMutex
	views map[viewKey]*LocalView

	// lmu guards the lifecycle tables (see region.go). Leaf lock like
	// vmu: taken with no stripe locks held, and never held across a
	// stripe acquisition. tick is the frame-activity clock.
	lmu       sync.Mutex
	pins      map[ID]int
	condemned map[ID]struct{}
	lastTouch map[ID]uint64
	tick      atomic.Uint64

	scratch sync.Pool
}

// NewMap returns an empty map using the given vocabulary for its BoW
// index.
func NewMap(voc *bow.Vocabulary) *Map {
	m := &Map{
		voc:       voc,
		inOrder:   make(map[ID]struct{}),
		bowDB:     bow.NewDatabase(),
		views:     make(map[viewKey]*LocalView),
		pins:      make(map[ID]int),
		condemned: make(map[ID]struct{}),
		lastTouch: make(map[ID]uint64),
	}
	for i := range m.stripes {
		m.stripes[i].keyframes = make(map[ID]*KeyFrame)
		m.stripes[i].points = make(map[ID]*MapPoint)
		m.stripes[i].kfVer = make(map[ID]uint64)
	}
	m.scratch.New = func() any {
		return &localScratch{seen: make(map[ID]struct{}, 512)}
	}
	return m
}

// Vocabulary returns the vocabulary the map's BoW index uses.
func (m *Map) Vocabulary() *bow.Vocabulary { return m.voc }

// Version returns the global mutation counter.
func (m *Map) Version() uint64 { return m.version.Load() }

func (m *Map) stripe(id ID) *stripe { return &m.stripes[stripeOf(id)] }

// lockAll acquires every stripe lock in ascending index order;
// unlockAll releases them in reverse.
func (m *Map) lockAll() {
	for i := range m.stripes {
		m.stripes[i].mu.Lock()
	}
}

func (m *Map) unlockAll() {
	for i := numStripes - 1; i >= 0; i-- {
		m.stripes[i].mu.Unlock()
	}
}

// lockPair acquires the stripes of two IDs in ascending stripe order
// (once if they collide) and returns the unlock function.
func (m *Map) lockPair(a, b ID) func() {
	i, j := stripeOf(a), stripeOf(b)
	if i == j {
		m.stripes[i].mu.Lock()
		return m.stripes[i].mu.Unlock
	}
	if i > j {
		i, j = j, i
	}
	m.stripes[i].mu.Lock()
	m.stripes[j].mu.Lock()
	return func() {
		m.stripes[j].mu.Unlock()
		m.stripes[i].mu.Unlock()
	}
}

func (m *Map) getScratch() *localScratch {
	sc := m.scratch.Get().(*localScratch)
	clear(sc.seen)
	sc.ids = sc.ids[:0]
	return sc
}

func (m *Map) putScratch(sc *localScratch) { m.scratch.Put(sc) }

// SetObserver installs (or removes, with nil) the mutation observer.
// It takes every stripe lock, so no callback is in flight when it
// returns: the previous observer has seen its last mutation.
func (m *Map) SetObserver(o Observer) {
	m.lockAll()
	m.observer = o
	m.unlockAll()
}

// snapshotKF copies a keyframe for a reader that outlives the stripe
// lock (region export, the invariant checker). The slices that mutate
// after insertion (MapPoints bindings, covisibility edges) are
// deep-copied; Keypoints and Bow are immutable once the frame is in
// the map and stay shared.
func snapshotKF(kf *KeyFrame) *KeyFrame {
	c := *kf
	c.MapPoints = append([]ID(nil), kf.MapPoints...)
	if kf.Conns != nil {
		c.Conns = make(map[ID]int, len(kf.Conns))
		for k, v := range kf.Conns {
			c.Conns[k] = v
		}
	}
	return &c
}

func snapshotMP(mp *MapPoint) *MapPoint {
	c := *mp
	c.Obs = make(map[ID]int, len(mp.Obs))
	for k, v := range mp.Obs {
		c.Obs[k] = v
	}
	return &c
}

// ---- Mutations ----------------------------------------------------

// prepKeyFrame completes a keyframe (BoW vector, sized binding slice)
// before it becomes visible to other goroutines, off every lock.
func (m *Map) prepKeyFrame(kf *KeyFrame) {
	if kf.Bow == nil && m.voc != nil {
		descs := make([]feature.Descriptor, len(kf.Keypoints))
		for i, k := range kf.Keypoints {
			descs[i] = k.Desc
		}
		kf.Bow = m.voc.BowOf(descs)
	}
	if kf.Conns == nil {
		kf.Conns = make(map[ID]int)
	}
	if len(kf.MapPoints) != len(kf.Keypoints) {
		kf.MapPoints = make([]ID, len(kf.Keypoints))
	}
}

// AddKeyFrame inserts a keyframe (computing its BoW vector if absent)
// and indexes it for place recognition.
func (m *Map) AddKeyFrame(kf *KeyFrame) {
	m.addKeyFrame(kf, true)
}

// addKeyFrame inserts a keyframe; indexBow=false stages it without
// place-recognition indexing (see InsertAllStaged).
func (m *Map) addKeyFrame(kf *KeyFrame, indexBow bool) {
	m.prepKeyFrame(kf)
	s := m.stripe(kf.ID)
	s.mu.Lock()
	_, exists := s.keyframes[kf.ID]
	s.keyframes[kf.ID] = kf
	s.kfVer[kf.ID]++
	if m.observer != nil {
		m.observer.KeyFrameAdded(kf)
	}
	m.version.Add(1)
	s.mu.Unlock()
	if !exists {
		m.nkf.Add(1)
	}
	m.imu.Lock()
	if _, listed := m.inOrder[kf.ID]; !listed {
		m.order = append(m.order, kf.ID)
		m.inOrder[kf.ID] = struct{}{}
	}
	if indexBow {
		m.bowDB.Add(kf.ID, kf.Bow)
	}
	m.imu.Unlock()
	m.touchOne(kf.ID)
}

// AddMapPoint inserts a map point.
func (m *Map) AddMapPoint(mp *MapPoint) {
	if mp.Obs == nil {
		mp.Obs = make(map[ID]int)
	}
	s := m.stripe(mp.ID)
	s.mu.Lock()
	_, exists := s.points[mp.ID]
	s.points[mp.ID] = mp
	if m.observer != nil {
		m.observer.MapPointAdded(mp)
	}
	m.version.Add(1)
	s.mu.Unlock()
	if !exists {
		m.nmp.Add(1)
	}
}

// KeyFrame returns the keyframe with the given id.
func (m *Map) KeyFrame(id ID) (*KeyFrame, bool) {
	s := m.stripe(id)
	s.mu.RLock()
	kf, ok := s.keyframes[id]
	s.mu.RUnlock()
	return kf, ok
}

// MapPoint returns the map point with the given id.
func (m *Map) MapPoint(id ID) (*MapPoint, bool) {
	s := m.stripe(id)
	s.mu.RLock()
	mp, ok := s.points[id]
	s.mu.RUnlock()
	return mp, ok
}

// KeyFrameState returns a consistent copy of the keyframe's pose and
// map-point bindings, captured under the stripe lock. Readers that
// match against a keyframe while other sessions may move its pose or
// rebind its points (e.g. relocalization) use this instead of the live
// pointer from KeyFrame.
func (m *Map) KeyFrameState(id ID) (tcw geom.SE3, mps []ID, ok bool) {
	s := m.stripe(id)
	s.mu.RLock()
	kf, ok := s.keyframes[id]
	if ok {
		tcw = kf.Tcw
		mps = append([]ID(nil), kf.MapPoints...)
	}
	s.mu.RUnlock()
	return tcw, mps, ok
}

// PointMatchState returns a consistent copy of a map point's matching
// state (position and descriptor) under the stripe lock — the safe
// counterpart of reading Pos/Desc off the live MapPoint pointer while
// bundle adjustment may be rewriting the position.
func (m *Map) PointMatchState(id ID) (pos geom.Vec3, desc feature.Descriptor, ok bool) {
	s := m.stripe(id)
	s.mu.RLock()
	mp, ok := s.points[id]
	if ok {
		pos, desc = mp.Pos, mp.Desc
	}
	s.mu.RUnlock()
	return pos, desc, ok
}

// ObservedPoints returns the keyframe's pose and, in keypoint order,
// the map points it observes: their descriptors as pseudo-keypoints
// (descriptor carriers for feature matching), their IDs and their
// positions. Relocalization and merge place recognition match against
// a keyframe other sessions may be adjusting, so everything is read
// through the snapshot accessors, never the live pointers. An unknown
// keyframe yields no points.
func (m *Map) ObservedPoints(kfID ID) (tcw geom.SE3, kps []feature.Keypoint, ids []ID, pos []geom.Vec3) {
	tcw, bindings, ok := m.KeyFrameState(kfID)
	if !ok {
		return tcw, nil, nil, nil
	}
	for _, mpID := range bindings {
		if mpID == 0 {
			continue
		}
		p, desc, ok := m.PointMatchState(mpID)
		if !ok {
			continue
		}
		kps = append(kps, feature.Keypoint{Desc: desc})
		ids = append(ids, mpID)
		pos = append(pos, p)
	}
	return tcw, kps, ids, pos
}

// ObsEntry is one (keyframe, keypoint index) observation pair in a
// point-observation snapshot.
type ObsEntry struct {
	KF  ID
	Idx int
}

// PointObs returns a consistent copy of a map point's position and
// observation list, by ascending keyframe ID, under the stripe lock.
// The live Obs map must never be iterated off a pointer from MapPoint
// while other sessions add observations — that is a concurrent map
// read/write — and its order must never reach a float sum (DESIGN §13).
func (m *Map) PointObs(id ID) (pos geom.Vec3, obs []ObsEntry, ok bool) {
	s := m.stripe(id)
	s.mu.RLock()
	mp, ok := s.points[id]
	if ok {
		pos = mp.Pos
		obs = make([]ObsEntry, 0, len(mp.Obs))
		for kfID, idx := range mp.Obs {
			obs = append(obs, ObsEntry{KF: kfID, Idx: idx})
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(obs, func(a, b ObsEntry) int { return cmp.Compare(a.KF, b.KF) })
	return pos, obs, ok
}

// PointObsCount returns how many keyframes observe the point (ok
// reports existence), without exposing the live observation map.
func (m *Map) PointObsCount(id ID) (int, bool) {
	s := m.stripe(id)
	s.mu.RLock()
	mp, ok := s.points[id]
	n := 0
	if ok {
		n = len(mp.Obs)
	}
	s.mu.RUnlock()
	return n, ok
}

// HasObservation reports whether the point is observed by the given
// keyframe.
func (m *Map) HasObservation(mpID, kfID ID) bool {
	s := m.stripe(mpID)
	s.mu.RLock()
	mp, ok := s.points[mpID]
	seen := false
	if ok {
		_, seen = mp.Obs[kfID]
	}
	s.mu.RUnlock()
	return seen
}

// kfVersion returns the mutation counter of a keyframe (0 if the ID
// was never inserted).
func (m *Map) kfVersion(id ID) uint64 {
	s := m.stripe(id)
	s.mu.RLock()
	v := s.kfVer[id]
	s.mu.RUnlock()
	return v
}

// NKeyFrames returns the number of keyframes.
func (m *Map) NKeyFrames() int { return int(m.nkf.Load()) }

// NMapPoints returns the number of map points.
func (m *Map) NMapPoints() int { return int(m.nmp.Load()) }

// MaxSeq returns the highest per-client sequence number any keyframe
// or map point of the given client carries — 0 when the client has no
// content in the map. Reconnecting clients seed their ID allocator
// past it (NewIDAllocatorFrom) after a server recovery.
func (m *Map) MaxSeq(client int) ID {
	var max ID
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for id := range s.keyframes {
			if ClientOf(id) == client && SeqOf(id) > max {
				max = SeqOf(id)
			}
		}
		for id := range s.points {
			if ClientOf(id) == client && SeqOf(id) > max {
				max = SeqOf(id)
			}
		}
		s.mu.RUnlock()
	}
	return max
}

// KeyFrames returns all keyframes in insertion order.
func (m *Map) KeyFrames() []*KeyFrame {
	m.imu.RLock()
	order := append([]ID(nil), m.order...)
	m.imu.RUnlock()
	out := make([]*KeyFrame, 0, len(order))
	for _, id := range order {
		if kf, ok := m.KeyFrame(id); ok {
			out = append(out, kf)
		}
	}
	return out
}

// MapPoints returns all map points (unspecified order).
func (m *Map) MapPoints() []*MapPoint {
	out := make([]*MapPoint, 0, m.NMapPoints())
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		for _, mp := range s.points {
			out = append(out, mp)
		}
		s.mu.RUnlock()
	}
	return out
}

// EraseKeyFrame removes a keyframe and its observation links. A
// pinned keyframe (an in-flight LocalView build or merge window holds
// it, see region.go) is left alone; callers that cull retry on a later
// pass.
func (m *Map) EraseKeyFrame(id ID) {
	if !m.beginErase(id) {
		return
	}
	defer m.endErase(id)
	s := m.stripe(id)
	s.mu.Lock()
	kf, ok := s.keyframes[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.keyframes, id)
	s.kfVer[id]++ // tombstone: views holding this keyframe go stale
	mpIDs := append([]ID(nil), kf.MapPoints...)
	others := make([]ID, 0, len(kf.Conns))
	for other := range kf.Conns {
		others = append(others, other)
	}
	if m.observer != nil {
		m.observer.KeyFrameErased(id)
	}
	m.version.Add(1)
	s.mu.Unlock()
	m.nkf.Add(-1)
	// Detach the two sides one stripe at a time; readers tolerate the
	// transiently dangling references (every lookup is by ID).
	for _, mpID := range mpIDs {
		if mpID == 0 {
			continue
		}
		ps := m.stripe(mpID)
		ps.mu.Lock()
		if mp, ok := ps.points[mpID]; ok {
			delete(mp.Obs, id)
		}
		ps.mu.Unlock()
	}
	for _, other := range others {
		os := m.stripe(other)
		os.mu.Lock()
		if o, ok := os.keyframes[other]; ok {
			delete(o.Conns, id)
			os.kfVer[other]++
		}
		os.mu.Unlock()
	}
	m.version.Add(1)
	m.imu.Lock()
	m.bowDB.Remove(id)
	m.imu.Unlock()
}

// EraseMapPoint removes a map point and detaches it from its
// observers.
func (m *Map) EraseMapPoint(id ID) {
	s := m.stripe(id)
	s.mu.Lock()
	mp, ok := s.points[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.points, id)
	obs := make([]obsRef, 0, len(mp.Obs))
	for kfID, idx := range mp.Obs {
		obs = append(obs, obsRef{kfID, idx})
	}
	if m.observer != nil {
		m.observer.MapPointErased(id)
	}
	m.version.Add(1)
	s.mu.Unlock()
	m.nmp.Add(-1)
	for _, o := range obs {
		ks := m.stripe(o.kfID)
		ks.mu.Lock()
		if kf, ok := ks.keyframes[o.kfID]; ok && o.idx < len(kf.MapPoints) && kf.MapPoints[o.idx] == id {
			kf.MapPoints[o.idx] = 0
			ks.kfVer[o.kfID]++
		}
		ks.mu.Unlock()
	}
	m.version.Add(1)
}

type obsRef struct {
	kfID ID
	idx  int
}

// AddObservation links keyframe kf's keypoint kpIdx to map point mp
// and keeps both sides consistent.
func (m *Map) AddObservation(kfID, mpID ID, kpIdx int) error {
	unlock := m.lockPair(kfID, mpID)
	ks, ps := m.stripe(kfID), m.stripe(mpID)
	kf, ok := ks.keyframes[kfID]
	if !ok {
		unlock()
		return fmt.Errorf("smap: unknown keyframe %d", kfID)
	}
	mp, ok := ps.points[mpID]
	if !ok {
		unlock()
		return fmt.Errorf("smap: unknown map point %d", mpID)
	}
	if kpIdx < 0 || kpIdx >= len(kf.MapPoints) {
		unlock()
		return fmt.Errorf("smap: keypoint index %d out of range", kpIdx)
	}
	// Re-observation: the point is already bound in this keyframe at
	// another keypoint (e.g. a concurrent fuse redirected it here while
	// the tracker was promoting the frame). Clear the old binding —
	// same keyframe, so the stripe lock already covers it — so the
	// keyframe never holds two bindings to one point.
	if old, dup := mp.Obs[kfID]; dup && old != kpIdx && old >= 0 && old < len(kf.MapPoints) && kf.MapPoints[old] == mpID {
		kf.MapPoints[old] = 0
	}
	kf.MapPoints[kpIdx] = mpID
	mp.Obs[kfID] = kpIdx
	ks.kfVer[kfID]++
	if m.observer != nil {
		m.observer.ObservationAdded(kfID, mpID, kpIdx)
	}
	m.version.Add(1)
	unlock()
	return nil
}

// DetachObservation severs the keypoint-to-map-point binding if it
// still matches — local BA uses it to drop outlier edges without
// touching either entity's lifetime.
func (m *Map) DetachObservation(kfID, mpID ID, kpIdx int) {
	unlock := m.lockPair(kfID, mpID)
	ks, ps := m.stripe(kfID), m.stripe(mpID)
	if kf, ok := ks.keyframes[kfID]; ok && kpIdx >= 0 && kpIdx < len(kf.MapPoints) && kf.MapPoints[kpIdx] == mpID {
		kf.MapPoints[kpIdx] = 0
		ks.kfVer[kfID]++
	}
	if mp, ok := ps.points[mpID]; ok {
		delete(mp.Obs, kfID)
	}
	m.version.Add(1)
	unlock()
}

// SetKeyFramePose updates a keyframe's world-to-camera pose under its
// stripe lock — the write path bundle adjustment and pose-graph
// correction must use so snapshot readers never observe a torn pose.
func (m *Map) SetKeyFramePose(id ID, pose geom.SE3) {
	s := m.stripe(id)
	s.mu.Lock()
	if kf, ok := s.keyframes[id]; ok {
		kf.Tcw = pose
		s.kfVer[id]++
	}
	m.version.Add(1)
	s.mu.Unlock()
}

// SetMapPointPos updates a map point's position. Position refinements
// deliberately do not invalidate LocalView snapshots (the window's
// keyframe versions don't move): tracking tolerates slightly stale
// landmark positions for a frame or two, exactly as it does between
// BA iterations.
func (m *Map) SetMapPointPos(id ID, pos geom.Vec3) {
	s := m.stripe(id)
	s.mu.Lock()
	if mp, ok := s.points[id]; ok {
		mp.Pos = pos
	}
	m.version.Add(1)
	s.mu.Unlock()
}

// BumpPointFound increments a map point's Found statistic under its
// stripe lock (trackers on different clients share the point).
func (m *Map) BumpPointFound(id ID) {
	s := m.stripe(id)
	s.mu.Lock()
	if mp, ok := s.points[id]; ok {
		mp.Found++
	}
	s.mu.Unlock()
}

// FusePoint redirects every observation of `from` onto `to` and
// erases `from` — the duplicate-landmark fusion step of map merge.
// Both point stripes are taken in ascending stripe order, then each
// observing keyframe's stripe one at a time. Reports whether the fuse
// happened (both points must exist and differ).
func (m *Map) FusePoint(from, to ID) bool {
	unlock := m.lockPair(from, to)
	fs, ts := m.stripe(from), m.stripe(to)
	fp, okF := fs.points[from]
	_, okT := ts.points[to]
	if !okF || !okT || from == to {
		unlock()
		return false
	}
	obs := make([]obsRef, 0, len(fp.Obs))
	for kfID, idx := range fp.Obs {
		obs = append(obs, obsRef{kfID, idx})
	}
	tp := ts.points[to]
	already := make(map[ID]bool, len(tp.Obs))
	for kfID := range tp.Obs {
		already[kfID] = true
	}
	unlock()
	for _, o := range obs {
		if already[o.kfID] {
			// `to` is observed in this keyframe at another keypoint:
			// rebinding would leave two bindings to one point and a
			// backref that matches only one of them. Leave the binding
			// on `from`; EraseMapPoint below clears it.
			continue
		}
		// Take the keyframe stripe and `to`'s stripe together so the
		// binding and its backref move atomically — a concurrent
		// AddObservation can bind `to` here between the snapshot above
		// and this redirect, so re-check for a duplicate under the lock.
		unlockKF := m.lockPair(o.kfID, to)
		ks := m.stripe(o.kfID)
		if kf, ok := ks.keyframes[o.kfID]; ok && o.idx < len(kf.MapPoints) && kf.MapPoints[o.idx] == from {
			dup := false
			for _, b := range kf.MapPoints {
				if b == to {
					dup = true
					break
				}
			}
			if !dup {
				kf.MapPoints[o.idx] = to
				ks.kfVer[o.kfID]++
				if tp, ok := ts.points[to]; ok {
					tp.Obs[o.kfID] = o.idx
				}
			}
		}
		unlockKF()
	}
	m.version.Add(1)
	m.EraseMapPoint(from)
	return true
}

// UpdateConnections recomputes keyframe kf's covisibility edges from
// its current map point observations, mirroring ORB-SLAM. Edges with
// fewer than minShared shared points are dropped (but the single best
// neighbour is always kept).
func (m *Map) UpdateConnections(kfID ID, minShared int) {
	s := m.stripe(kfID)
	s.mu.RLock()
	kf, ok := s.keyframes[kfID]
	if !ok {
		s.mu.RUnlock()
		return
	}
	mpIDs := append([]ID(nil), kf.MapPoints...)
	s.mu.RUnlock()

	counts := make(map[ID]int)
	for _, mpID := range mpIDs {
		if mpID == 0 {
			continue
		}
		ps := m.stripe(mpID)
		ps.mu.RLock()
		if mp, ok := ps.points[mpID]; ok {
			for other := range mp.Obs {
				if other != kfID {
					counts[other]++
				}
			}
		}
		ps.mu.RUnlock()
	}

	conns := make(map[ID]int, len(counts))
	bestID, bestN := ID(0), 0
	for other, n := range counts {
		if n > bestN || n == bestN && other < bestID {
			bestID, bestN = other, n
		}
		if n >= minShared {
			conns[other] = n
		}
	}
	if len(conns) == 0 && bestID != 0 {
		conns[bestID] = bestN
	}

	s.mu.Lock()
	kf, ok = s.keyframes[kfID]
	if !ok {
		s.mu.Unlock()
		return
	}
	oldConns := kf.Conns
	kf.Conns = conns
	s.kfVer[kfID]++
	m.version.Add(1)
	s.mu.Unlock()

	// Reconcile the reciprocal edges one stripe at a time.
	for other := range oldConns {
		if _, keep := conns[other]; keep {
			continue
		}
		os := m.stripe(other)
		os.mu.Lock()
		if o, ok := os.keyframes[other]; ok {
			if _, had := o.Conns[kfID]; had {
				delete(o.Conns, kfID)
				os.kfVer[other]++
			}
		}
		os.mu.Unlock()
	}
	for other, n := range conns {
		os := m.stripe(other)
		os.mu.Lock()
		if o, ok := os.keyframes[other]; ok {
			if o.Conns[kfID] != n {
				o.Conns[kfID] = n
				os.kfVer[other]++
			}
		}
		os.mu.Unlock()
	}
	m.version.Add(1)
}

// covisibleIDs returns up to n neighbour IDs of kf ordered by edge
// weight (descending, ties by ID).
func (m *Map) covisibleIDs(kfID ID, n int) []ID {
	s := m.stripe(kfID)
	s.mu.RLock()
	kf, ok := s.keyframes[kfID]
	if !ok {
		s.mu.RUnlock()
		return nil
	}
	type edge struct {
		id ID
		w  int
	}
	edges := make([]edge, 0, len(kf.Conns))
	for id, w := range kf.Conns {
		edges = append(edges, edge{id, w})
	}
	s.mu.RUnlock()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		return edges[i].id < edges[j].id
	})
	if len(edges) > n {
		edges = edges[:n]
	}
	out := make([]ID, 0, len(edges))
	for _, e := range edges {
		out = append(out, e.id)
	}
	return out
}

// Covisible returns up to n keyframes best connected to kf, most
// shared observations first.
func (m *Map) Covisible(kfID ID, n int) []*KeyFrame {
	ids := m.covisibleIDs(kfID, n)
	out := make([]*KeyFrame, 0, len(ids))
	for _, id := range ids {
		if kf, ok := m.KeyFrame(id); ok {
			out = append(out, kf)
		}
	}
	return out
}

// windowIDs returns the covisibility window of kfID: neighbours by
// descending weight, then the keyframe itself.
func (m *Map) windowIDs(kfID ID, maxKFs int) []ID {
	return append(m.covisibleIDs(kfID, maxKFs), kfID)
}

// collectWindow walks the given window members and hands each to
// visit while its stripe read lock is held; the per-keyframe version
// at visit time is passed alongside. The seen-set/ID scratch is
// pooled across calls. Callers that need the window to hold still
// against concurrent culling pin the IDs first (see region.go).
func (m *Map) collectWindow(ids []ID, sc *localScratch,
	visit func(kf *KeyFrame, ver uint64)) {
	for _, id := range ids {
		s := m.stripe(id)
		s.mu.RLock()
		kf, ok := s.keyframes[id]
		if ok {
			visit(kf, s.kfVer[id])
			for _, mpID := range kf.MapPoints {
				if mpID == 0 {
					continue
				}
				if _, dup := sc.seen[mpID]; dup {
					continue
				}
				sc.seen[mpID] = struct{}{}
				sc.ids = append(sc.ids, mpID)
			}
		}
		s.mu.RUnlock()
	}
}

// QueryBow returns merge/loop candidates for the given BoW vector,
// excluding keyframes for which exclude returns true.
func (m *Map) QueryBow(bv bow.Vec, topN int, exclude func(ID) bool) []bow.Result {
	m.imu.RLock()
	defer m.imu.RUnlock()
	return m.bowDB.Query(bv, topN, exclude)
}

// ---- LocalView ----------------------------------------------------

// ViewKF is an immutable copy of a window keyframe's pose.
type ViewKF struct {
	ID  ID
	Tcw geom.SE3
}

// ViewPoint is an immutable copy of a map point's matching state:
// everything search-local-points needs, nothing it doesn't.
type ViewPoint struct {
	ID   ID
	Pos  geom.Vec3
	Desc feature.Descriptor
}

// LocalView is an immutable snapshot of a covisibility window: the
// keyframes' poses and the deduplicated map points they observe,
// copied once under the stripe read locks. Trackers iterate it with
// no locks at all; Map.LocalView hands the same snapshot back frame
// after frame until a keyframe in the window changes.
type LocalView struct {
	m      *Map
	kfID   ID
	maxKFs int
	// version is the global counter the view last validated against
	// (atomic: concurrent trackers sharing the cache re-arm it).
	version atomic.Uint64
	// touched is the activity-clock tick the window members were last
	// stamped at; cache hits re-stamp at most once per tick so a
	// region under active tracking never looks cold to the eviction
	// policy.
	touched atomic.Uint64
	// deps pins the per-keyframe versions of the window members; the
	// view stays valid while none of them move.
	deps []viewDep

	KFs    []ViewKF
	Points []ViewPoint
	index  map[ID]int32
}

type viewDep struct {
	id  ID
	ver uint64
}

// Valid reports whether the snapshot still reflects every relevant
// mutation. Fast path: the global version hasn't moved (one atomic
// load). Slow path: some mutation happened somewhere — the view
// stays valid iff every window keyframe's version is unchanged, and
// re-arms the fast path for the next frame.
func (v *LocalView) Valid() bool {
	if v == nil || v.m == nil {
		return false
	}
	cur := v.m.version.Load()
	if cur == v.version.Load() {
		return true
	}
	for _, d := range v.deps {
		if v.m.kfVersion(d.id) != d.ver {
			return false
		}
	}
	v.version.Store(cur)
	return true
}

// touch re-stamps the window members on the activity clock, at most
// once per tick (a shared cache hit path — keep it one atomic in the
// common case).
func (v *LocalView) touch() {
	now := v.m.tick.Load()
	if v.touched.Swap(now) == now {
		return
	}
	v.m.lmu.Lock()
	for _, d := range v.deps {
		v.m.lastTouch[d.id] = now
	}
	v.m.lmu.Unlock()
}

// Point returns the snapshot copy of a map point by ID.
func (v *LocalView) Point(id ID) (ViewPoint, bool) {
	if i, ok := v.index[id]; ok {
		return v.Points[i], true
	}
	return ViewPoint{}, false
}

// RefKF returns the reference keyframe ID the view was built around.
func (v *LocalView) RefKF() ID { return v.kfID }

// LocalView returns a snapshot of kf's covisibility window, serving a
// cached one as long as it is Valid. The returned view is shared and
// immutable: do not mutate its slices.
func (m *Map) LocalView(kfID ID, maxKFs int) *LocalView {
	key := viewKey{kfID, maxKFs}
	m.vmu.RLock()
	v := m.views[key]
	m.vmu.RUnlock()
	if v != nil && v.Valid() {
		v.touch()
		return v
	}
	v = m.buildView(kfID, maxKFs)
	m.vmu.Lock()
	if len(m.views) >= viewCacheMax {
		clear(m.views)
	}
	m.views[key] = v
	m.vmu.Unlock()
	return v
}

func (m *Map) buildView(kfID ID, maxKFs int) *LocalView {
	v := &LocalView{m: m, kfID: kfID, maxKFs: maxKFs}
	// Load the global version before collecting: mutations that land
	// during the build force a dep check (or rebuild) next frame
	// instead of being masked.
	v.version.Store(m.version.Load())
	sc := m.getScratch()
	v.deps = make([]viewDep, 0, maxKFs+1)
	// Pin the window for the duration of the build: a concurrent cull
	// cannot erase a member mid-walk, so the snapshot is built from a
	// window that holds still. Anything the pin loses the race to
	// (already-condemned IDs) is caught by the dep check on next use.
	ids := m.windowIDs(kfID, maxKFs)
	pinned := m.Pin(ids)
	m.collectWindow(ids, sc, func(kf *KeyFrame, ver uint64) {
		v.KFs = append(v.KFs, ViewKF{ID: kf.ID, Tcw: kf.Tcw})
		v.deps = append(v.deps, viewDep{kf.ID, ver})
	})
	if len(v.deps) == 0 {
		// Unknown keyframe: depend on it at version 0 so the view
		// invalidates the moment it appears.
		v.deps = append(v.deps, viewDep{kfID, 0})
	}
	v.Points = make([]ViewPoint, 0, len(sc.ids))
	v.index = make(map[ID]int32, len(sc.ids))
	for _, mpID := range sc.ids {
		s := m.stripe(mpID)
		s.mu.RLock()
		mp, ok := s.points[mpID]
		if ok {
			v.index[mpID] = int32(len(v.Points))
			v.Points = append(v.Points, ViewPoint{ID: mpID, Pos: mp.Pos, Desc: mp.Desc})
		}
		s.mu.RUnlock()
	}
	m.Unpin(pinned)
	m.TouchKeyFrames(ids)
	m.putScratch(sc)
	return v
}

// dropViews empties the snapshot cache; whole-map restructures call
// it since every cached window is garbage afterwards.
func (m *Map) dropViews() {
	m.vmu.Lock()
	clear(m.views)
	m.vmu.Unlock()
}

// ---- Whole-map operations -----------------------------------------

// ApplyTransform maps every keyframe pose and map point position
// through the similarity transform — the "apply T to the client's
// map" step of the merge algorithm. Keyframe world-to-camera poses
// compose with the inverse: Tcw' = Tcw ∘ S⁻¹.
func (m *Map) ApplyTransform(s geom.Sim3) {
	m.lockAll()
	for i := range m.stripes {
		st := &m.stripes[i]
		for id, kf := range st.keyframes {
			// Camera center c' = S(c) and orientation Rwc' = S.R * Rwc:
			// rebuild Tcw from the transformed camera-to-world pose.
			twc := kf.Tcw.Inverse()
			twc2 := geom.SE3{
				R: s.R.Mul(twc.R).Normalized(),
				T: s.Apply(twc.T),
			}
			kf.Tcw = twc2.Inverse()
			// Stereo depths scale with the map.
			for k := range kf.Keypoints {
				if kf.Keypoints[k].Depth > 0 {
					kf.Keypoints[k].Depth *= s.S
				}
			}
			st.kfVer[id]++
		}
		for _, mp := range st.points {
			mp.Pos = s.Apply(mp.Pos)
			mp.Normal = s.R.Rotate(mp.Normal)
		}
	}
	m.version.Add(1)
	m.unlockAll()
	m.dropViews()
}

// Relink inserts entities that arrive detached — decoded from a region
// file or a boundary snapshot, or just erased from this map — and
// rebuilds the cross-references that detaching dropped: observations
// from the keyframes' bindings, covisibility from the observations.
// Bindings to points that are neither in mps nor live in the map
// (sparsified while a region slept) are cleared rather than left
// dangling. It returns the inserted keyframe IDs. Callers that need
// the batch to appear atomically hold the map-wide coordination lock.
func (m *Map) Relink(kfs []*KeyFrame, mps []*MapPoint) []ID {
	for _, mp := range mps {
		mp.Obs = make(map[ID]int)
		m.AddMapPoint(mp)
	}
	ids := make([]ID, 0, len(kfs))
	for _, kf := range kfs {
		// Clear before inserting: the observer journals the keyframe
		// with the bindings it is inserted with.
		for i, mpID := range kf.MapPoints {
			if mpID == 0 {
				continue
			}
			if _, ok := m.MapPoint(mpID); !ok {
				kf.MapPoints[i] = 0
			}
		}
		kf.Conns = make(map[ID]int)
		m.AddKeyFrame(kf)
		ids = append(ids, kf.ID)
	}
	for _, kf := range kfs {
		for i, mpID := range kf.MapPoints {
			if mpID == 0 {
				continue
			}
			if err := m.AddObservation(kf.ID, mpID, i); err != nil {
				kf.MapPoints[i] = 0 // point vanished mid-relink
			}
		}
	}
	for _, id := range ids {
		m.UpdateConnections(id, 15)
	}
	return ids
}
