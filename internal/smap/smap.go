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
// depending on it: every exported mutator of Map reports to it, except
// the derived ones, whose state replay recomputes (UpdateConnections,
// BumpPointFound, UndoFuse — see each). Callbacks run on the mutating
// goroutine, before the mutator returns, under the write lock of every
// stripe the mutation wrote, and receive the live entity. An
// implementation therefore must not call into the Map (the stripe
// lock is not reentrant), must not block on I/O (every mutator and
// reader of that stripe waits behind it) and must not keep the pointer
// or slices past the call (they mutate once the lock drops) — encode
// what it needs and return. Callbacks for one entity arrive in
// mutation order, so an observer that sequences them under a lock of
// its own sees one order consistent with every entity's.
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
	// ObservationDetached fires after DetachObservation changed either
	// side of a binding.
	ObservationDetached(kfID, mpID ID, kpIdx int)
	// PointFused fires when FusePoint has found both points, before it
	// redirects the first observer: replaying FusePoint(from, to) there
	// repeats the fuse.
	PointFused(from, to ID)
	// PosesSet fires after SetPoses wrote a batch, with the batch.
	PosesSet(kfs []KeyFramePose, mps []PointPos)
	// Transformed fires after ApplyTransform moved the whole map.
	Transformed(s geom.Sim3)
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
	// Covisible keyframes and their shared-observation counts, by
	// ascending keyframe ID.
	Conns []Conn
	// touched is the activity-clock tick of the keyframe's last insert,
	// LocalView read or TouchKeyFrames (see region.go), guarded by its
	// stripe lock: an eviction statistic the entity codec does not carry.
	touched uint64
}

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
	// Obs lists the observing keyframes, by ascending keyframe ID, and
	// the keypoint index within each.
	Obs []ObsEntry
	// RefKF is the keyframe the point was created from.
	RefKF ID
	// Visible/Found track projection statistics for culling.
	Visible int
	Found   int
}

const (
	stripeBits = 6
	// numStripes is the fixed stripe count; a power of two so the
	// stripe index is the top bits of a multiplicative hash.
	numStripes = 1 << stripeBits
	// SetPoses keeps its lock set in one uint64, a bit per stripe.
	_ = uint64(1) << (numStripes - 1)
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

	// tick is the frame-activity clock (see region.go).
	tick atomic.Uint64

	scratch sync.Pool
}

// NewMap returns an empty map using the given vocabulary for its BoW
// index.
func NewMap(voc *bow.Vocabulary) *Map {
	m := &Map{
		voc:     voc,
		inOrder: make(map[ID]struct{}),
		bowDB:   bow.NewDatabase(),
		views:   make(map[viewKey]*LocalView),
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
// copied; Keypoints and Bow are immutable once the frame is in the map
// and stay shared.
func snapshotKF(kf *KeyFrame) *KeyFrame {
	c := *kf
	c.MapPoints = slices.Clone(kf.MapPoints)
	c.Conns = slices.Clone(kf.Conns)
	return &c
}

func snapshotMP(mp *MapPoint) *MapPoint {
	c := *mp
	c.Obs = slices.Clone(mp.Obs)
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
// place-recognition indexing (see InsertAllStaged). The keyframe is in
// the insertion order before the observer sequences its record, so a
// checkpoint that encodes KeyFrames() after that record cannot miss it.
func (m *Map) addKeyFrame(kf *KeyFrame, indexBow bool) {
	m.prepKeyFrame(kf)
	s := m.stripe(kf.ID)
	s.mu.Lock()
	_, exists := s.keyframes[kf.ID]
	s.keyframes[kf.ID] = kf
	s.kfVer[kf.ID]++
	kf.touched = m.tick.Load()
	m.imu.Lock()
	if _, listed := m.inOrder[kf.ID]; !listed {
		m.order = append(m.order, kf.ID)
		m.inOrder[kf.ID] = struct{}{}
	}
	m.imu.Unlock()
	if m.observer != nil {
		m.observer.KeyFrameAdded(kf)
	}
	m.version.Add(1)
	s.mu.Unlock()
	if !exists {
		m.nkf.Add(1)
	}
	if indexBow {
		m.imu.Lock()
		m.bowDB.Add(kf.ID, kf.Bow)
		m.imu.Unlock()
	}
}

// AddMapPoint inserts a map point.
func (m *Map) AddMapPoint(mp *MapPoint) {
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

// ObsEntry is one observation of a map point: the observing keyframe
// and the keypoint index within it.
type ObsEntry struct {
	KF  ID
	Idx int
}

// Conn is one covisibility edge: the neighbour keyframe and the number
// of map points the two share.
type Conn struct {
	KF     ID
	Weight int
}

func (o ObsEntry) key() ID { return o.KF }
func (c Conn) key() ID     { return c.KF }

// relation is an entry of MapPoint.Obs or KeyFrame.Conns: a slice by
// strictly ascending key (DESIGN §4), edited only through find, put
// and drop under the owner's stripe lock.
type relation interface {
	ObsEntry | Conn
	key() ID
}

// find returns the position of id in rel, or where it would go.
func find[E relation](rel []E, id ID) (int, bool) {
	return slices.BinarySearchFunc(rel, id, func(e E, id ID) int { return cmp.Compare(e.key(), id) })
}

// put inserts e in rel, replacing the entry with the same key.
func put[E relation](rel []E, e E) []E {
	i, ok := find(rel, e.key())
	if ok {
		rel[i] = e
		return rel
	}
	return slices.Insert(rel, i, e)
}

// drop removes the entry keyed id from rel, if there is one.
func drop[E relation](rel []E, id ID) []E {
	if i, ok := find(rel, id); ok {
		return slices.Delete(rel, i, i+1)
	}
	return rel
}

// PointObs returns a copy of a map point's position and observers, by
// ascending keyframe ID, taken under the stripe lock: reading the live
// Obs off a MapPoint pointer races the sessions that edit it.
func (m *Map) PointObs(id ID) (pos geom.Vec3, obs []ObsEntry, ok bool) {
	s := m.stripe(id)
	s.mu.RLock()
	mp, ok := s.points[id]
	if ok {
		pos = mp.Pos
		obs = slices.Clone(mp.Obs)
	}
	s.mu.RUnlock()
	return pos, obs, ok
}

// PointObsCount returns how many keyframes observe the point (ok
// reports existence), without exposing the live observation list.
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
		_, seen = find(mp.Obs, kfID)
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

// MapPoints returns all map points by ascending ID.
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
	slices.SortFunc(out, func(a, b *MapPoint) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// EraseKeyFrame removes a keyframe and its observation links, and
// reports whether it did: false means the ID was already gone. A
// LocalView that holds the keyframe goes stale through its tombstone
// version and is rebuilt on next use.
func (m *Map) EraseKeyFrame(id ID) bool {
	s := m.stripe(id)
	s.mu.Lock()
	kf, ok := s.keyframes[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.keyframes, id)
	s.kfVer[id]++ // tombstone: views holding this keyframe go stale
	// Unlinked, the keyframe's edges hold still: no mutator reaches them.
	mpIDs := append([]ID(nil), kf.MapPoints...)
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
			mp.Obs = drop(mp.Obs, id)
		}
		ps.mu.Unlock()
	}
	for _, c := range kf.Conns {
		os := m.stripe(c.KF)
		os.mu.Lock()
		if o, ok := os.keyframes[c.KF]; ok {
			o.Conns = drop(o.Conns, id)
			os.kfVer[c.KF]++
		}
		os.mu.Unlock()
	}
	m.version.Add(1)
	m.imu.Lock()
	m.bowDB.Remove(id)
	m.imu.Unlock()
	return true
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
	delete(s.points, id) // its observers now hold still, as in EraseKeyFrame
	if m.observer != nil {
		m.observer.MapPointErased(id)
	}
	m.version.Add(1)
	s.mu.Unlock()
	m.nmp.Add(-1)
	for _, o := range mp.Obs {
		ks := m.stripe(o.KF)
		ks.mu.Lock()
		if kf, ok := ks.keyframes[o.KF]; ok && o.Idx < len(kf.MapPoints) && kf.MapPoints[o.Idx] == id {
			kf.MapPoints[o.Idx] = 0
			ks.kfVer[o.KF]++
		}
		ks.mu.Unlock()
	}
	m.version.Add(1)
}

// AddObservation links keyframe kf's keypoint kpIdx to map point mp
// and keeps both sides consistent. A keypoint another point holds is
// refused: overwriting it would leave that point's observation
// pointing at a keypoint that no longer binds it.
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
	if b := kf.MapPoints[kpIdx]; b != 0 && b != mpID {
		unlock()
		return fmt.Errorf("smap: keypoint %d of keyframe %d binds map point %d", kpIdx, kfID, b)
	}
	// Re-observation: the point is already bound in this keyframe at
	// another keypoint (e.g. a concurrent fuse redirected it here while
	// the tracker was promoting the frame). Clear the old binding —
	// same keyframe, so the stripe lock already covers it — so the
	// keyframe never holds two bindings to one point.
	if i, dup := find(mp.Obs, kfID); dup {
		if old := mp.Obs[i].Idx; old != kpIdx && old >= 0 && old < len(kf.MapPoints) && kf.MapPoints[old] == mpID {
			kf.MapPoints[old] = 0
		}
	}
	kf.MapPoints[kpIdx] = mpID
	mp.Obs = put(mp.Obs, ObsEntry{KF: kfID, Idx: kpIdx})
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
// touching either entity's lifetime. Each side changes only where it
// records keypoint kpIdx, so a stale triple (the point since rebound
// at another keypoint) changes nothing.
func (m *Map) DetachObservation(kfID, mpID ID, kpIdx int) {
	unlock := m.lockPair(kfID, mpID)
	ks, ps := m.stripe(kfID), m.stripe(mpID)
	changed := false
	if kf, ok := ks.keyframes[kfID]; ok && kpIdx >= 0 && kpIdx < len(kf.MapPoints) && kf.MapPoints[kpIdx] == mpID {
		kf.MapPoints[kpIdx] = 0
		ks.kfVer[kfID]++
		changed = true
	}
	if mp, ok := ps.points[mpID]; ok {
		if i, had := find(mp.Obs, kfID); had && mp.Obs[i].Idx == kpIdx {
			mp.Obs = drop(mp.Obs, kfID)
			changed = true
		}
	}
	if changed && m.observer != nil {
		m.observer.ObservationDetached(kfID, mpID, kpIdx)
	}
	m.version.Add(1)
	unlock()
}

// KeyFramePose is one keyframe's world-to-camera pose in a SetPoses
// batch.
type KeyFramePose struct {
	ID  ID
	Tcw geom.SE3
}

// PointPos is one map point's position in a SetPoses batch.
type PointPos struct {
	ID  ID
	Pos geom.Vec3
}

// SortPoses orders a SetPoses batch by ID.
func SortPoses(kfs []KeyFramePose, mps []PointPos) {
	slices.SortFunc(kfs, func(a, b KeyFramePose) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(mps, func(a, b PointPos) int { return cmp.Compare(a.ID, b.ID) })
}

// SetPoses writes a batch of keyframe poses and map point positions —
// the one write path of bundle adjustment, the merge's pose-graph
// correction and its rollback, and recovery. Both lists must be by
// strictly ascending ID, so a batch journals as the same bytes however
// its writer gathered it; IDs not in the map are skipped. SetPoses
// holds every stripe it writes, taken in ascending order, across the
// writes and the observer's one record, so two sessions adjusting
// shared entities at once are recorded in the order their writes took
// effect. A keyframe write bumps its version; position refinements
// deliberately do not invalidate LocalView snapshots: tracking
// tolerates slightly stale landmark positions for a frame or two,
// exactly as it does between BA iterations.
func (m *Map) SetPoses(kfs []KeyFramePose, mps []PointPos) {
	if !ascending(kfs, func(p KeyFramePose) ID { return p.ID }) || !ascending(mps, func(p PointPos) ID { return p.ID }) {
		panic("smap: SetPoses batch is not by strictly ascending ID")
	}
	var held uint64 // one bit per stripe; numStripes is 64
	for _, p := range kfs {
		held |= 1 << stripeOf(p.ID)
	}
	for _, p := range mps {
		held |= 1 << stripeOf(p.ID)
	}
	for i := range m.stripes {
		if held&(1<<i) != 0 {
			m.stripes[i].mu.Lock()
		}
	}
	for _, p := range kfs {
		s := m.stripe(p.ID)
		if kf, ok := s.keyframes[p.ID]; ok {
			kf.Tcw = p.Tcw
			s.kfVer[p.ID]++
		}
	}
	for _, p := range mps {
		if mp, ok := m.stripe(p.ID).points[p.ID]; ok {
			mp.Pos = p.Pos
		}
	}
	if m.observer != nil && len(kfs)+len(mps) > 0 {
		m.observer.PosesSet(kfs, mps)
	}
	m.version.Add(1)
	for i := numStripes - 1; i >= 0; i-- {
		if held&(1<<i) != 0 {
			m.stripes[i].mu.Unlock()
		}
	}
}

// BumpPointFound increments a map point's Found statistic under its
// stripe lock (trackers on different clients share the point). Derived,
// not journaled: Visible and Found are culling statistics the entity
// codec does not carry, so a recovered point starts them at zero, as a
// decoded one does.
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
	obs := slices.Clone(fp.Obs)
	if m.observer != nil {
		m.observer.PointFused(from, to)
	}
	unlock()
	for _, o := range obs {
		// Take the keyframe stripe and `to`'s stripe together so the
		// binding and its backref move atomically. A keyframe that
		// already binds `to` at another keypoint is left alone:
		// rebinding would leave two bindings to one point and a backref
		// that matches only one of them. EraseMapPoint below clears the
		// binding left on `from`.
		unlockKF := m.lockPair(o.KF, to)
		ks := m.stripe(o.KF)
		if kf, ok := ks.keyframes[o.KF]; ok && o.Idx < len(kf.MapPoints) && kf.MapPoints[o.Idx] == from && !slices.Contains(kf.MapPoints, to) {
			kf.MapPoints[o.Idx] = to
			ks.kfVer[o.KF]++
			if tp, ok := ts.points[to]; ok {
				tp.Obs = put(tp.Obs, o)
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
// neighbour is always kept). Derived, not journaled: Recover runs it on
// every keyframe after replay.
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

	var counts []Conn
	for _, mpID := range mpIDs {
		if mpID == 0 {
			continue
		}
		ps := m.stripe(mpID)
		ps.mu.RLock()
		if mp, ok := ps.points[mpID]; ok {
			for _, o := range mp.Obs {
				if i, ok := find(counts, o.KF); ok {
					counts[i].Weight++
				} else if o.KF != kfID {
					counts = slices.Insert(counts, i, Conn{KF: o.KF, Weight: 1})
				}
			}
		}
		ps.mu.RUnlock()
	}

	// Filter in place, keeping the best edge (lowest ID on a tie).
	conns, best := counts[:0], Conn{}
	for _, c := range counts {
		if c.Weight > best.Weight {
			best = c
		}
		if c.Weight >= minShared {
			conns = append(conns, c)
		}
	}
	if len(conns) == 0 && best.KF != 0 {
		conns = append(conns, best)
	}

	s.mu.Lock()
	kf, ok = s.keyframes[kfID]
	if !ok {
		s.mu.Unlock()
		return
	}
	// The keyframe gets its own copy: other keyframes' updates edit it
	// in place while oldConns and conns are walked below, unlocked.
	oldConns := kf.Conns
	kf.Conns = slices.Clone(conns)
	s.kfVer[kfID]++
	m.version.Add(1)
	s.mu.Unlock()

	for _, old := range oldConns {
		if _, keep := find(conns, old.KF); !keep {
			m.setEdge(kfID, old.KF, 0)
		}
	}
	for _, c := range conns {
		m.setEdge(kfID, c.KF, c.Weight)
	}
	m.version.Add(1)
}

// setEdge sets the covisibility edge between keyframes a and b to
// weight w, or drops it for w 0, on both sides under both stripe
// locks: of two neighbours updating at once, whichever lands last
// holds on both sides. A missing keyframe's edges are its erase's.
func (m *Map) setEdge(a, b ID, w int) {
	unlock := m.lockPair(a, b)
	defer unlock()
	_, okA := m.stripe(a).keyframes[a]
	_, okB := m.stripe(b).keyframes[b]
	if !okA || !okB {
		return
	}
	for _, e := range [2][2]ID{{a, b}, {b, a}} {
		s := m.stripe(e[0])
		kf := s.keyframes[e[0]]
		switch i, had := find(kf.Conns, e[1]); {
		case w == 0 && had:
			kf.Conns = drop(kf.Conns, e[1])
		case w > 0 && (!had || kf.Conns[i].Weight != w):
			kf.Conns = put(kf.Conns, Conn{KF: e[1], Weight: w})
		default:
			continue
		}
		s.kfVer[e[0]]++
	}
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
	edges := slices.Clone(kf.Conns)
	s.mu.RUnlock()
	// Stable over the ID order, so equal weights go by ascending ID.
	slices.SortStableFunc(edges, func(a, b Conn) int { return cmp.Compare(b.Weight, a.Weight) })
	out := make([]ID, min(n, len(edges)))
	for i := range out {
		out[i] = edges[i].KF
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
	m *Map
	// version is the global counter the view last validated against
	// (atomic: concurrent trackers sharing the cache re-arm it).
	version atomic.Uint64
	// touched is the activity-clock tick the window members were last
	// stamped at; cache hits re-stamp at most once per tick so a
	// region under active tracking never looks cold to the eviction
	// policy.
	touched atomic.Uint64
	// deps are the window members and vers their per-keyframe versions
	// at build time; the view stays valid while none of them move.
	deps []ID
	vers []uint64

	KFs    []ViewKF
	Points []ViewPoint
	index  map[ID]int32
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
	for i, id := range v.deps {
		if v.m.kfVersion(id) != v.vers[i] {
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
	if v.touched.Swap(now) != now {
		v.m.TouchKeyFrames(v.deps)
	}
}

// Point returns the snapshot copy of a map point by ID.
func (v *LocalView) Point(id ID) (ViewPoint, bool) {
	if i, ok := v.index[id]; ok {
		return v.Points[i], true
	}
	return ViewPoint{}, false
}

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
	v := &LocalView{m: m}
	// Load the global version before collecting: mutations that land
	// during the build force a dep check (or rebuild) next frame
	// instead of being masked.
	v.version.Store(m.version.Load())
	sc := m.getScratch()
	// Each member is read whole, with its version, under its stripe
	// read lock. A member missing here (an unknown keyframe, or one
	// just erased) is a dependency at its current version too, so the
	// view invalidates the moment it is inserted; one a concurrent cull
	// erases after its read fails the check through its tombstone.
	v.deps = m.windowIDs(kfID, maxKFs)
	v.vers = make([]uint64, len(v.deps))
	for i, id := range v.deps {
		s := m.stripe(id)
		s.mu.RLock()
		v.vers[i] = s.kfVer[id]
		if kf, ok := s.keyframes[id]; ok {
			v.KFs = append(v.KFs, ViewKF{ID: id, Tcw: kf.Tcw})
			for _, mpID := range kf.MapPoints {
				if _, dup := sc.seen[mpID]; mpID != 0 && !dup {
					sc.seen[mpID] = struct{}{}
					sc.ids = append(sc.ids, mpID)
				}
			}
		}
		s.mu.RUnlock()
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
	m.TouchKeyFrames(v.deps)
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
	if m.observer != nil {
		m.observer.Transformed(s)
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
		mp.Obs = nil
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
		kf.Conns = nil
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
