// Package lifecycle keeps the shared map's resident size bounded on a
// server that runs forever. Three mechanisms, all driven off the map's
// version counters and activity clock so the tracking hot path never
// stalls behind them:
//
//   - Keyframe culling: while the map is over budget, cold keyframes
//     that mapping.Redundancy calls redundant (the mapper's own rule)
//     are erased, best score first. Erases go through
//     smap.EraseKeyFrame and flow to the WAL through the map observer,
//     so crash recovery replays the same compact map.
//
//   - Map-point sparsification: points that no tracker ever re-found
//     after triangulation and that almost nothing observes are noise;
//     they are erased once their neighbourhood has gone cold.
//
//   - Cold-region eviction: a covisibility-connected cluster no
//     session has touched for EvictAfter frames is serialized to a
//     region checkpoint file (wire.EncodeRegion), journaled, and
//     dropped from memory. A ghost BoW index remembers what the
//     evicted keyframes looked like; when a session relocalizes into
//     the region, or a merge's place recognition lands there, the
//     region is transparently reloaded before the caller queries the
//     live map.
//
// The manager owns no locks of the map; the server serializes Step,
// MaybeReload, and RestoreEvicted against merges with its global merge
// mutex, and the manager's own mutex makes them safe against each
// other regardless.
package lifecycle

import (
	"sort"
	"sync"

	"slamshare/internal/bow"
	"slamshare/internal/mapping"
	"slamshare/internal/obs"
	"slamshare/internal/persist"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// Config tunes the lifecycle policies. The zero value disables
// everything.
type Config struct {
	// MaxKeyFrames is the resident keyframe budget. Culling and
	// sparsification run only while the map exceeds it; 0 disables
	// both (and eviction, which exists to serve the same budget).
	MaxKeyFrames int
	// EvictAfter is the age, in activity-clock ticks (handled frames,
	// across all sessions), after which an untouched covisibility
	// cluster is cold enough to evict. 0 disables eviction.
	EvictAfter uint64
}

const (
	// protectRecent shields anything touched within this many ticks
	// from culling and sparsification (fresh triangulations and the
	// windows trackers sit in are off limits).
	protectRecent = 30
	// cullBatch bounds keyframes culled per Step.
	cullBatch = 8
	// sparsifyMinObs: a never-re-found point with at most this many
	// observers is sparsified, at most sparsifyBatch of them per Step.
	sparsifyMinObs = 1
	sparsifyBatch  = 64
	// clusterMin..clusterMax bounds an evicted region's keyframe
	// count: a smaller cold cluster is not worth a region file.
	clusterMin = 3
	clusterMax = 40
	// reloadScore is the minimum BoW similarity against a ghost
	// keyframe for MaybeReload to pull its region back in.
	reloadScore = 0.05
)

// Journal is the slice of the WAL the manager records boundaries to;
// *persist.Journal implements it. The entity erases and re-inserts
// themselves flow through the map observer, which the map calls in
// place: their records precede the boundary record that follows them.
type Journal interface {
	RegionEvicted(id uint64, kfIDs, mpIDs []smap.ID)
	RegionReloaded(id uint64)
}

// Stats are the manager's monotonic counters, exported on /debug/vars.
type Stats struct {
	CulledKeyFrames  obs.Counter
	SparsifiedPoints obs.Counter
	EvictedRegions   obs.Counter
	EvictedKeyFrames obs.Counter
	ReloadedRegions  obs.Counter
	DroppedRegions   obs.Counter // corrupt/unreadable region files abandoned
	Steps            obs.Counter
}

// region is one evicted cluster the manager can bring back.
type region struct {
	id    uint64
	kfIDs []smap.ID
	mpIDs []smap.ID
}

// Manager runs the lifecycle policies over one shared map.
type Manager struct {
	cfg     Config
	m       *smap.Map
	journal Journal // may be nil (no persistence)
	dir     string  // region files; empty disables eviction

	mu      sync.Mutex
	regions map[uint64]*region
	ghostKF map[smap.ID]uint64 // evicted keyframe -> region holding it
	ghosts  *bow.Database      // BoW index over evicted keyframes
	nextID  uint64
	lastVer uint64 // map version at the previous Step (skip idle steps)

	stats Stats
}

// New builds a manager over m. Region files live in dir, normally the
// persist checkpoint directory; an empty dir disables eviction. journal
// may be nil when the server runs without persistence.
func New(cfg Config, m *smap.Map, journal Journal, dir string) *Manager {
	return &Manager{
		cfg:     cfg,
		m:       m,
		journal: journal,
		dir:     dir,
		regions: make(map[uint64]*region),
		ghostKF: make(map[smap.ID]uint64),
		ghosts:  bow.NewDatabase(),
		nextID:  1,
	}
}

// Stats returns the manager's counters.
func (lm *Manager) Stats() *Stats { return &lm.stats }

// EvictedRegionCount returns how many regions are currently on disk
// instead of in memory.
func (lm *Manager) EvictedRegionCount() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.regions)
}

// EvictedKeyFrameCount returns how many keyframes the evicted regions
// hold between them.
func (lm *Manager) EvictedKeyFrameCount() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.ghostKF)
}

// Step runs one bounded maintenance pass: cull redundant keyframes
// while over budget, sparsify dead points, evict at most one cold
// region. The caller (the mapper's post-BA hook) invokes it off the
// frame hot path and serializes it against merges; now is the current
// activity-clock tick. It returns true if it mutated the map.
func (lm *Manager) Step(now uint64) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.cfg.MaxKeyFrames <= 0 {
		return false
	}
	if v := lm.m.Version(); v == lm.lastVer {
		return false // map unchanged since last pass; nothing new to score
	}
	lm.stats.Steps.Inc()

	mutated := false
	if lm.m.NKeyFrames() > lm.cfg.MaxKeyFrames {
		if lm.cullPass(now) {
			mutated = true
		}
		if lm.sparsifyPass(now) {
			mutated = true
		}
	}
	if lm.cfg.EvictAfter > 0 && lm.dir != "" {
		if lm.evictPass(now) {
			mutated = true
		}
	}
	// Record the post-pass version so our own mutations don't make the
	// next Step look like new activity.
	lm.lastVer = lm.m.Version()
	return mutated
}

// ---- culling ----

type cullCand struct {
	id    smap.ID
	score float64
}

// cullPass erases up to cullBatch redundant keyframes, never dropping
// the map below budget.
func (lm *Manager) cullPass(now uint64) bool {
	cands := make([]cullCand, 0, 32)
	for _, kf := range lm.m.KeyFrames() {
		if lm.protected(kf.ID, now) {
			continue
		}
		if score, redundant := mapping.Redundancy(lm.m, kf.ID); redundant {
			cands = append(cands, cullCand{kf.ID, score})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	culled := 0
	for _, c := range cands {
		if culled >= cullBatch || lm.m.NKeyFrames() <= lm.cfg.MaxKeyFrames {
			break
		}
		if !lm.m.EraseKeyFrame(c.id) {
			continue
		}
		culled++
		lm.stats.CulledKeyFrames.Inc()
	}
	return culled > 0
}

// ---- sparsification ----

// sparsifyPass erases up to sparsifyBatch map points that were never
// re-found by any tracker, have at most sparsifyMinObs observers, and
// whose observers have all gone cold — the lowest IDs first, as
// Map.MapPoints lists them, so the pass repeats run to run.
func (lm *Manager) sparsifyPass(now uint64) bool {
	var dead []smap.ID
	for _, mp := range lm.m.MapPoints() {
		found, nobs, _, ok := lm.m.PointStats(mp.ID)
		if !ok || found > 0 || nobs > sparsifyMinObs {
			continue
		}
		_, obs, ok := lm.m.PointObs(mp.ID)
		if !ok {
			continue
		}
		hot := false
		for _, o := range obs {
			if !lm.cold(o.KF, now, protectRecent) {
				hot = true
				break
			}
		}
		if !hot {
			dead = append(dead, mp.ID)
		}
	}
	if len(dead) > sparsifyBatch {
		dead = dead[:sparsifyBatch]
	}
	for _, id := range dead {
		lm.m.EraseMapPoint(id)
		lm.stats.SparsifiedPoints.Inc()
	}
	return len(dead) > 0
}

// ---- eviction ----

// evictPass finds the coldest unprotected keyframe, grows the cold
// covisibility cluster around it, and evicts the cluster to a region
// file. At most one region per Step keeps the pause bounded.
func (lm *Manager) evictPass(now uint64) bool {
	if now < lm.cfg.EvictAfter {
		return false
	}
	seed, seedTouch := smap.ID(0), now
	for _, kf := range lm.m.KeyFrames() {
		t := lm.m.LastTouch(kf.ID)
		if !lm.evictable(kf.ID, now) {
			continue
		}
		if seed == 0 || t < seedTouch || (t == seedTouch && kf.ID < seed) {
			seed, seedTouch = kf.ID, t
		}
	}
	if seed == 0 {
		return false
	}
	cluster := lm.m.CovisCluster(seed, clusterMax, func(id smap.ID) bool {
		return lm.evictable(id, now)
	})
	if len(cluster) < clusterMin {
		return false
	}
	return lm.evictCluster(cluster)
}

// evictCluster erases the cluster from the map and parks it in a
// region file. A keyframe a concurrent cull erased first is left out.
func (lm *Manager) evictCluster(cluster []smap.ID) bool {
	var (
		kfObjs []*smap.KeyFrame
		kfIDs  []smap.ID
	)
	for _, id := range cluster {
		kf, ok := lm.m.KeyFrame(id)
		if !ok || !lm.m.EraseKeyFrame(id) {
			continue
		}
		// Erased from every table, so the object is quiescent (all map
		// mutators go through ID lookups); safe to serialize directly.
		kfObjs = append(kfObjs, kf)
		kfIDs = append(kfIDs, id)
	}
	if len(kfIDs) == 0 {
		return false
	}

	// Cluster-private map points: after the keyframe erases detached
	// their observations, a point observed only inside the cluster has
	// no observers left. Shared points keep their resident observers
	// and stay.
	var (
		mpObjs []*smap.MapPoint
		mpIDs  []smap.ID
		seen   = make(map[smap.ID]bool)
	)
	for _, kf := range kfObjs {
		for _, mpID := range kf.MapPoints {
			if mpID == 0 || seen[mpID] {
				continue
			}
			seen[mpID] = true
			if n, ok := lm.m.PointObsCount(mpID); ok && n == 0 {
				if mp, ok := lm.m.MapPoint(mpID); ok {
					lm.m.EraseMapPoint(mpID)
					mpObjs = append(mpObjs, mp)
					mpIDs = append(mpIDs, mpID)
				}
			}
		}
	}

	id := lm.nextID
	blob := wire.EncodeRegion(id, kfObjs, mpObjs)
	if err := persist.WriteRegion(lm.dir, id, blob); err != nil {
		// Disk refused the region: the entities are already out of the
		// map, so put them back rather than lose them.
		lm.m.Relink(kfObjs, mpObjs)
		return false
	}
	lm.nextID++
	if lm.journal != nil {
		lm.journal.RegionEvicted(id, kfIDs, mpIDs)
	}
	lm.regions[id] = &region{id: id, kfIDs: kfIDs, mpIDs: mpIDs}
	for _, kf := range kfObjs {
		lm.ghostKF[kf.ID] = id
		lm.ghosts.Add(uint64(kf.ID), kf.Bow)
	}
	lm.stats.EvictedRegions.Inc()
	lm.stats.EvictedKeyFrames.Add(int64(len(kfIDs)))
	return true
}

// ---- reload ----

// MaybeReload checks a query BoW vector against the ghost index and
// reloads any region a strong match points into. Trackers call it just
// before relocalization candidate search, the merger just before
// common-region detection, so the subsequent live QueryBow sees the
// reloaded keyframes. Returns the number of regions brought back.
func (lm *Manager) MaybeReload(bv bow.Vec) int {
	if len(bv) == 0 {
		return 0
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.regions) == 0 {
		return 0
	}
	hits := lm.ghosts.Query(bv, 3, nil)
	want := make([]uint64, 0, 2)
	for _, h := range hits {
		if h.Score < reloadScore {
			continue
		}
		rid, ok := lm.ghostKF[smap.ID(h.ID)]
		if !ok {
			continue
		}
		dup := false
		for _, w := range want {
			if w == rid {
				dup = true
			}
		}
		if !dup {
			want = append(want, rid)
		}
	}
	n := 0
	for _, rid := range want {
		if lm.reload(rid) {
			n++
		}
	}
	return n
}

// ReloadAll brings every evicted region back into memory (used by
// shutdown checkpoints and tests that want the whole world resident).
func (lm *Manager) ReloadAll() int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	ids := make([]uint64, 0, len(lm.regions))
	for id := range lm.regions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := 0
	for _, id := range ids {
		if lm.reload(id) {
			n++
		}
	}
	return n
}

// reload (mu held) reads one region file back into the live map. A
// corrupt or missing file abandons the region — the area is re-mapped
// from scratch next time a session goes there — never a panic.
func (lm *Manager) reload(id uint64) bool {
	reg, ok := lm.regions[id]
	if !ok {
		return false
	}
	kfs, mps, err := lm.readRegion(id)
	lm.forget(reg)
	if err != nil {
		lm.stats.DroppedRegions.Inc()
		persist.RemoveRegion(lm.dir, id)
		return false
	}
	// Observations and covisibility were detached at eviction; Relink
	// re-establishes them from the keyframes' bindings.
	kfIDs := lm.m.Relink(kfs, mps)
	lm.m.TouchKeyFrames(kfIDs)
	if lm.journal != nil {
		lm.journal.RegionReloaded(id)
	}
	persist.RemoveRegion(lm.dir, id)
	lm.stats.ReloadedRegions.Inc()
	return true
}

// readRegion reads and decodes one region file, rejecting a blob that
// names another region.
func (lm *Manager) readRegion(id uint64) ([]*smap.KeyFrame, []*smap.MapPoint, error) {
	blob, err := persist.ReadRegion(lm.dir, id)
	if err != nil {
		return nil, nil, err
	}
	gotID, kfs, mps, err := wire.DecodeRegion(blob)
	if err == nil && gotID != id {
		err = wire.ErrCorrupt
	}
	return kfs, mps, err
}

// forget (mu held) drops a region from the reload index.
func (lm *Manager) forget(reg *region) {
	for _, kfID := range reg.kfIDs {
		delete(lm.ghostKF, kfID)
		lm.ghosts.Remove(uint64(kfID))
	}
	delete(lm.regions, reg.id)
}

// ---- recovery ----

// RestoreEvicted seeds the reload index after crash recovery: evicted
// is persist.Recovery.EvictedRegions (region id -> keyframe ids still
// on disk at crash time). Region files the WAL does not vouch for are
// deleted — a crash between the file write and the WAL record left the
// entities live in the replayed map, so the file is stale. Unreadable
// vouched-for files are abandoned (and journaled as reloaded so the
// next recovery forgets them too).
func (lm *Manager) RestoreEvicted(evicted map[uint64][]smap.ID) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.dir == "" {
		return
	}
	onDisk, _ := persist.ListRegions(lm.dir)
	for _, id := range onDisk {
		if id >= lm.nextID {
			lm.nextID = id + 1
		}
		if _, ok := evicted[id]; !ok {
			persist.RemoveRegion(lm.dir, id)
		}
	}
	ids := make([]uint64, 0, len(evicted))
	for id := range evicted {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if id >= lm.nextID {
			lm.nextID = id + 1
		}
		kfs, mps, err := lm.readRegion(id)
		if err != nil {
			lm.stats.DroppedRegions.Inc()
			persist.RemoveRegion(lm.dir, id)
			if lm.journal != nil {
				lm.journal.RegionReloaded(id)
			}
			continue
		}
		reg := &region{id: id}
		for _, kf := range kfs {
			reg.kfIDs = append(reg.kfIDs, kf.ID)
			lm.ghostKF[kf.ID] = id
			lm.ghosts.Add(uint64(kf.ID), kf.Bow)
		}
		for _, mp := range mps {
			reg.mpIDs = append(reg.mpIDs, mp.ID)
		}
		lm.regions[id] = reg
	}
}

// ---- helpers ----

// protected reports whether the keyframe must not be culled: recently
// touched, or currently unknown.
func (lm *Manager) protected(id smap.ID, now uint64) bool {
	return !lm.cold(id, now, protectRecent)
}

// evictable reports whether the keyframe is cold enough to leave
// memory.
func (lm *Manager) evictable(id smap.ID, now uint64) bool {
	if _, ghost := lm.ghostKF[id]; ghost {
		return false // already parked in a region file
	}
	return lm.cold(id, now, lm.cfg.EvictAfter)
}

// EstimateResidentBytes approximates the map's in-memory footprint
// for the /debug/vars gauge: per-entity struct overheads plus the
// dominant per-keypoint payload (descriptor, geometry, binding). It
// reads only immutable fields and atomic counters, so it is safe to
// call concurrently with tracking.
func EstimateResidentBytes(m *smap.Map) int64 {
	const (
		kfFixed = 256 // struct, pose, bow vector
		kpBytes = 104 // keypoint fields + descriptor + binding slot
		mpBytes = 224 // struct, descriptor, position, observer list
	)
	var b int64
	for _, kf := range m.KeyFrames() {
		b += kfFixed + int64(len(kf.Keypoints))*kpBytes
	}
	b += int64(m.NMapPoints()) * mpBytes
	return b
}

// cold reports whether the keyframe's last touch is at least age ticks
// ago. An unknown stamp (zero) counts as cold only when the clock has
// itself advanced past age, so a fresh map is never evicted wholesale.
func (lm *Manager) cold(id smap.ID, now, age uint64) bool {
	t := lm.m.LastTouch(id)
	return now >= age && t <= now-age
}
