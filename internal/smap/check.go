package smap

// Invariant checker: a structural audit of a Map, run by the chaos
// harness (internal/chaos) after fault scenarios and at quiescent sync
// points. Every rule here is an invariant the mutation API maintains
// at rest — i.e. when no mutators are mid-flight. The checker takes a
// consistent snapshot under every stripe read lock (ascending order,
// per the package lock hierarchy) plus the insertion-order/BoW lock,
// then audits the copy without holding any lock.

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"slamshare/internal/bow"
	"slamshare/internal/geom"
)

// Violation is one detected invariant breach, reported as a structured
// diff: the rule that failed, the entities involved, and a
// human-readable detail of expected-versus-found.
type Violation struct {
	// Rule names the invariant, e.g. "kf-binding-dangling".
	Rule string
	// KF and MP identify the involved entities (0 when not applicable).
	KF ID
	MP ID
	// Detail is the expected-vs-found diff.
	Detail string
}

func (v Violation) String() string {
	s := v.Rule
	if v.KF != 0 {
		s += fmt.Sprintf(" kf=%d", v.KF)
	}
	if v.MP != 0 {
		s += fmt.Sprintf(" mp=%d", v.MP)
	}
	return s + ": " + v.Detail
}

// CheckReport summarizes one CheckInvariants run.
type CheckReport struct {
	KeyFrames  int
	MapPoints  int
	Violations []Violation
}

// OK reports whether the audit found no violations.
func (r CheckReport) OK() bool { return len(r.Violations) == 0 }

// Summary renders the report as one line.
func (r CheckReport) Summary() string {
	if r.OK() {
		return fmt.Sprintf("ok (%d KFs, %d MPs)", r.KeyFrames, r.MapPoints)
	}
	return fmt.Sprintf("%d violations (%d KFs, %d MPs); first: %s",
		len(r.Violations), r.KeyFrames, r.MapPoints, r.Violations[0])
}

// rlockAll acquires every stripe read lock in ascending index order;
// rUnlockAll releases them in reverse.
func (m *Map) rlockAll() {
	for i := range m.stripes {
		m.stripes[i].mu.RLock()
	}
}

func (m *Map) rUnlockAll() {
	for i := numStripes - 1; i >= 0; i-- {
		m.stripes[i].mu.RUnlock()
	}
}

// checkSnapshot is the consistent copy the audit runs over.
type checkSnapshot struct {
	kfs        map[ID]*KeyFrame // snapshot copies
	mps        map[ID]*MapPoint // snapshot copies
	order      []ID
	bowIDs     []ID
	bowOrphans []ID // posting-list entries with no stored vector
	bowMissing []ID // stored vectors with a word not posted
	pins       map[ID]int
	nkf        int
	nmp        int
}

func (m *Map) snapshotForCheck() checkSnapshot {
	m.rlockAll()
	snap := checkSnapshot{
		kfs: make(map[ID]*KeyFrame, m.nkf.Load()),
		mps: make(map[ID]*MapPoint, m.nmp.Load()),
		nkf: int(m.nkf.Load()),
		nmp: int(m.nmp.Load()),
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		for id, kf := range s.keyframes {
			snap.kfs[id] = snapshotKF(kf)
		}
		for id, mp := range s.points {
			snap.mps[id] = snapshotMP(mp)
		}
	}
	// The imu lock may be taken while stripe locks are held (never the
	// reverse), matching the package lock-ordering rule.
	m.imu.RLock()
	snap.order = append([]ID(nil), m.order...)
	snap.bowIDs = m.bowDB.IDs()
	orphans, missing := m.bowDB.CheckIndex()
	m.imu.RUnlock()
	m.rUnlockAll()
	snap.bowOrphans = append(snap.bowOrphans, orphans...)
	snap.bowMissing = append(snap.bowMissing, missing...)
	snap.pins, _ = m.lifecycleSnapshot()
	return snap
}

// add records one violation.
func (r *CheckReport) add(rule string, kf, mp ID, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Rule: rule, KF: kf, MP: mp, Detail: fmt.Sprintf(format, args...),
	})
}

// sortedIDs returns m's keys in ascending order: deterministic
// iteration keeps reports stable run to run.
func sortedIDs[V any](m map[ID]V) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ascending reports whether rel's keys are strictly ascending (relation-order).
func ascending[E any, K cmp.Ordered](rel []E, key func(E) K) bool {
	for i := 1; i < len(rel); i++ {
		if key(rel[i-1]) >= key(rel[i]) {
			return false
		}
	}
	return true
}

// auditEntities holds every entity of a snapshot (kfs, mps) to the
// per-entity rules of the catalog on CheckInvariants — the one place
// they are spelled. A reference between two snapshot entities is checked
// in full (backrefs, covisibility symmetry and weight); a reference that
// leaves the snapshot is checked for existence only, against existsKF /
// existsMP, which the caller gathered under the same lock hold as the
// snapshot. The whole-map audit passes nil sets: its snapshot is the
// map, so whatever is not in it is missing.
func (r *CheckReport) auditEntities(kfs map[ID]*KeyFrame, mps map[ID]*MapPoint, existsKF, existsMP map[ID]bool) {
	for _, id := range sortedIDs(kfs) {
		kf := kfs[id]
		if id == 0 {
			r.add("id-zero", id, 0, "keyframe with reserved ID 0")
		}
		if _, both := mps[id]; both {
			r.add("id-cross", id, id, "ID names both a keyframe and a map point")
		}
		if !finiteSE3(kf.Tcw) {
			r.add("kf-pose-notfinite", id, 0, "Tcw not finite: %+v", kf.Tcw)
		}
		if len(kf.MapPoints) != len(kf.Keypoints) {
			r.add("kf-binding-len", id, 0, "%d bindings for %d keypoints",
				len(kf.MapPoints), len(kf.Keypoints))
		}
		if !ascending(kf.Conns, Conn.key) || !ascending(kf.Bow, func(e bow.Entry) bow.WordID { return e.Word }) {
			r.add("relation-order", id, 0, "edges %v or BoW words not strictly ascending", kf.Conns)
		}
		for i, mpID := range kf.MapPoints {
			if mpID == 0 {
				continue
			}
			mp, ok := mps[mpID]
			if !ok {
				if !existsMP[mpID] {
					r.add("kf-binding-dangling", id, mpID, "keypoint %d binds missing map point", i)
				}
				continue
			}
			if j, ok := find(mp.Obs, id); !ok {
				r.add("kf-binding-backref", id, mpID, "keypoint %d bound but point has no observation of this keyframe", i)
			} else if got := mp.Obs[j].Idx; got != i {
				r.add("kf-binding-backref", id, mpID, "keypoint %d bound but point records keypoint %d", i, got)
			}
		}
		for _, c := range kf.Conns {
			other, w := c.KF, c.Weight
			if other == id {
				r.add("covis-self", id, 0, "self edge with weight %d", w)
				continue
			}
			okf, ok := kfs[other]
			if !ok {
				if !existsKF[other] {
					r.add("covis-dangling", id, 0, "edge to missing keyframe %d (weight %d)", other, w)
				}
				continue
			}
			j, ok := find(okf.Conns, id)
			if !ok {
				r.add("covis-asymmetric", id, 0, "edge to %d (weight %d) has no reverse edge", other, w)
			} else if ow := okf.Conns[j].Weight; ow != w {
				r.add("covis-weight", id, 0, "edge to %d weighs %d forward, %d reverse", other, w, ow)
			}
		}
	}

	for _, id := range sortedIDs(mps) {
		mp := mps[id]
		if id == 0 {
			r.add("id-zero", 0, id, "map point with reserved ID 0")
		}
		if !finiteVec3(mp.Pos) {
			r.add("mp-pos-notfinite", 0, id, "position not finite: %+v", mp.Pos)
		}
		if mp.RefKF == 0 {
			r.add("mp-refkf-zero", 0, id, "reference keyframe ID is 0")
		}
		if !ascending(mp.Obs, ObsEntry.key) {
			r.add("relation-order", 0, id, "observers not strictly ascending: %v", mp.Obs)
		}
		for _, o := range mp.Obs {
			kfID, idx := o.KF, o.Idx
			kf, ok := kfs[kfID]
			if !ok {
				if !existsKF[kfID] {
					r.add("mp-obs-dangling", kfID, id, "observed by missing keyframe (keypoint %d)", idx)
				}
				continue
			}
			if idx < 0 || idx >= len(kf.MapPoints) {
				r.add("mp-obs-backref", kfID, id, "keypoint index %d out of range (%d keypoints)",
					idx, len(kf.MapPoints))
				continue
			}
			if got := kf.MapPoints[idx]; got != id {
				r.add("mp-obs-backref", kfID, id, "keyframe keypoint %d binds %d, not this point", idx, got)
			}
		}
	}
}

// CheckInvariants audits the map's structural invariants and returns a
// report of every violation found. Per entity (auditEntities, shared
// with CheckSubgraph):
//
//   - kf-binding-dangling: a keyframe keypoint binds a map point ID
//     that is not in the map.
//   - kf-binding-backref: a bound map point exists but does not record
//     the observation back to that keyframe/keypoint.
//   - kf-binding-len: the binding slice is not sized to the keypoints.
//   - mp-obs-dangling: a map point records an observation by a
//     keyframe that is not in the map.
//   - mp-obs-backref: the observing keyframe exists but its keypoint
//     does not bind the point back (index out of range or bound
//     elsewhere).
//   - covis-dangling / covis-asymmetric / covis-weight: covisibility
//     edges must reference live keyframes, exist in both directions,
//     and agree on the shared-observation weight.
//   - covis-self: a keyframe lists itself as covisible.
//   - relation-order: a point's observers, a keyframe's covisibility
//     edges or its BoW words are not in strictly ascending ID order
//     (the order every walk over them relies on, DESIGN §4).
//   - id-zero / id-cross: entity IDs must be non-zero and never name
//     both a keyframe and a map point (per-client allocators hand out
//     disjoint IDs, which is what makes merge renumbering sound).
//   - mp-refkf-zero: a map point's reference keyframe ID is zero.
//   - kf-pose-notfinite / mp-pos-notfinite: poses and positions must
//     be finite (NaN/Inf poison every downstream solve).
//
// Over the whole map only:
//
//   - bow-missing / bow-stale: the BoW place-recognition index must
//     contain exactly the live keyframes.
//   - bow-index-orphan / bow-index-missing: inside the BoW database,
//     the inverted posting lists and the stored vectors must agree
//     (erase paths can tear one side without disturbing the id set).
//   - pin-leak: a lifecycle pin count survives on a keyframe that is
//     no longer in the map (unbalanced Pin/Unpin).
//   - order-missing / order-dup: the insertion-order list must contain
//     every live keyframe exactly once (erased IDs may linger, live
//     duplicates may not).
//   - count-mismatch: the atomic entity counters must match the
//     stripe contents.
//
// The checker is safe to run concurrently with readers; run it at
// quiescent points (no in-flight mutators) for a meaningful audit, as
// several invariants are transiently relaxed mid-mutation by design.
func (m *Map) CheckInvariants() CheckReport {
	snap := m.snapshotForCheck()
	rep := CheckReport{KeyFrames: len(snap.kfs), MapPoints: len(snap.mps)}

	if snap.nkf != len(snap.kfs) {
		rep.add("count-mismatch", 0, 0, "keyframe counter %d, stripes hold %d", snap.nkf, len(snap.kfs))
	}
	if snap.nmp != len(snap.mps) {
		rep.add("count-mismatch", 0, 0, "map-point counter %d, stripes hold %d", snap.nmp, len(snap.mps))
	}

	rep.auditEntities(snap.kfs, snap.mps, nil, nil)
	kfIDs := sortedIDs(snap.kfs)

	// BoW index <-> live keyframes.
	inBow := make(map[ID]bool, len(snap.bowIDs))
	for _, id := range snap.bowIDs {
		inBow[id] = true
		if _, ok := snap.kfs[id]; !ok {
			rep.add("bow-stale", id, 0, "BoW index entry for missing keyframe")
		}
	}
	for _, id := range kfIDs {
		if !inBow[id] {
			rep.add("bow-missing", id, 0, "live keyframe absent from BoW index")
		}
	}
	// Inverted-index-level audit: the erase paths (culling, eviction,
	// merge rollback) must never tear the posting lists away from the
	// vector table.
	for _, id := range snap.bowOrphans {
		rep.add("bow-index-orphan", id, 0, "posting-list entry with no stored vector")
	}
	for _, id := range snap.bowMissing {
		rep.add("bow-index-missing", id, 0, "stored vector with an unposted word")
	}

	// Pin table: a pin on a missing keyframe means a Pin without a
	// matching Unpin survived past the entity it protected.
	for _, id := range sortedIDs(snap.pins) {
		if _, live := snap.kfs[id]; !live {
			rep.add("pin-leak", id, 0, "pin count %d on missing keyframe", snap.pins[id])
		}
	}

	// Insertion order: every live keyframe exactly once. Erased IDs may
	// linger in the list by design (lookups skip them).
	seenOrder := make(map[ID]int, len(snap.order))
	for _, id := range snap.order {
		if _, live := snap.kfs[id]; !live {
			continue
		}
		seenOrder[id]++
	}
	for _, id := range kfIDs {
		switch n := seenOrder[id]; {
		case n == 0:
			rep.add("order-missing", id, 0, "live keyframe absent from insertion order")
		case n > 1:
			rep.add("order-dup", id, 0, "live keyframe appears %d times in insertion order", n)
		}
	}

	return rep
}

// CheckSubgraph audits only the given entities — the merge
// transaction's pre-commit validation. A merge must not run the
// whole-map audit: other sessions' mappers mutate untouched regions of
// the global map concurrently (the per-frame path does not serialize
// against merges), so only the subgraph this merge inserted or rewrote
// can be held to the at-rest invariants. It is auditEntities alone:
// references from a touched entity to an untouched one are checked for
// existence, and the whole-map rules (BoW, insertion order, counters,
// pins) are not run.
func (m *Map) CheckSubgraph(kfIDs, mpIDs []ID) CheckReport {
	// Snapshot the touched entities plus the existence of everything
	// they reference, under every stripe read lock for one consistent
	// instant.
	m.rlockAll()
	kfs := make(map[ID]*KeyFrame, len(kfIDs))
	mps := make(map[ID]*MapPoint, len(mpIDs))
	for _, id := range kfIDs {
		if kf, ok := m.stripe(id).keyframes[id]; ok {
			kfs[id] = snapshotKF(kf)
		}
	}
	for _, id := range mpIDs {
		if mp, ok := m.stripe(id).points[id]; ok {
			mps[id] = snapshotMP(mp)
		}
	}
	existsKF := make(map[ID]bool)
	existsMP := make(map[ID]bool)
	for _, kf := range kfs {
		for _, b := range kf.MapPoints {
			if b != 0 {
				_, existsMP[b] = m.stripe(b).points[b]
			}
		}
		for _, c := range kf.Conns {
			_, existsKF[c.KF] = m.stripe(c.KF).keyframes[c.KF]
		}
	}
	for _, mp := range mps {
		for _, o := range mp.Obs {
			_, existsKF[o.KF] = m.stripe(o.KF).keyframes[o.KF]
		}
	}
	m.rUnlockAll()

	rep := CheckReport{KeyFrames: len(kfs), MapPoints: len(mps)}
	rep.auditEntities(kfs, mps, existsKF, existsMP)
	return rep
}

func finiteVec3(v geom.Vec3) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

func finiteSE3(p geom.SE3) bool {
	q := p.R
	for _, c := range []float64{q.W, q.X, q.Y, q.Z} {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return false
		}
	}
	return finiteVec3(p.T)
}
