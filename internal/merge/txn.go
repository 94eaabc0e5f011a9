package merge

import (
	"fmt"

	"slamshare/internal/geom"
	"slamshare/internal/smap"
)

// RollbackError reports a merge whose pre-commit validation found the
// touched subgraph violating the map invariants: every mutation was
// rolled back and the global map is as it was before the attempt. The
// server treats it as evidence of a poisonous client map and counts it
// toward quarantine rather than retrying immediately.
type RollbackError struct {
	Violations []smap.Violation
}

func (e *RollbackError) Error() string {
	if len(e.Violations) == 0 {
		return "merge: validation failed; rolled back"
	}
	return fmt.Sprintf("merge: validation failed (%d violations, first: %s); rolled back",
		len(e.Violations), e.Violations[0])
}

// SabotageContext exposes the recorded mutation paths of an in-flight
// merge transaction. A Sabotage failpoint corrupts the map exactly the
// way a buggy pipeline stage would — through the undo log — so the
// rollback machinery it is exercising can also restore what it broke.
type SabotageContext interface {
	SetKeyFramePose(id smap.ID, pose geom.SE3)
	SetMapPointPos(id smap.ID, pos geom.Vec3)
	InsertedKFs() []smap.ID
}

// txn is the merge transaction's undo log. Every mutation the pipeline
// makes to the global map is routed through it: the staged insert
// records the inserted IDs, each fuse records the pre-fuse observation
// snapshots, and the seam BA / essential-graph pose writes record the
// first-write old values. rollback replays the log backwards; commit
// publishes the staged keyframes for place recognition.
type txn struct {
	g           *smap.Map
	insertedKFs []smap.ID
	insertedMPs []smap.ID
	kfPoses     map[smap.ID]geom.SE3  // first-write old poses
	mpPos       map[smap.ID]geom.Vec3 // first-write old positions
	fused       []fuseUndo
}

type fuseUndo struct {
	from, to smap.ID
	fromObs  []smap.ObsEntry
	toObs    []smap.ObsEntry
}

func newTxn(g *smap.Map) *txn {
	return &txn{
		g:       g,
		kfPoses: make(map[smap.ID]geom.SE3),
		mpPos:   make(map[smap.ID]geom.Vec3),
	}
}

func (tx *txn) insertAll(cmap *smap.Map) {
	tx.insertedKFs, tx.insertedMPs = tx.g.InsertAllStaged(cmap)
}

// fusePoint snapshots both points' observation state, then fuses.
func (tx *txn) fusePoint(from, to smap.ID) bool {
	_, fromObs, okF := tx.g.PointObs(from)
	_, toObs, okT := tx.g.PointObs(to)
	fused := tx.g.FusePoint(from, to)
	// With one side already gone FusePoint is a no-op, with nothing to
	// undo.
	if fused && okF && okT {
		tx.fused = append(tx.fused, fuseUndo{from: from, to: to, fromObs: fromObs, toObs: toObs})
	}
	return fused
}

// SetKeyFramePose writes a pose through the undo log (SabotageContext).
func (tx *txn) SetKeyFramePose(id smap.ID, pose geom.SE3) {
	if _, rec := tx.kfPoses[id]; !rec {
		if old, _, ok := tx.g.KeyFrameState(id); ok {
			tx.kfPoses[id] = old
		}
	}
	tx.g.SetKeyFramePose(id, pose)
}

// SetMapPointPos writes a position through the undo log.
func (tx *txn) SetMapPointPos(id smap.ID, pos geom.Vec3) {
	if _, rec := tx.mpPos[id]; !rec {
		if old, _, ok := tx.g.PointMatchState(id); ok {
			tx.mpPos[id] = old
		}
	}
	tx.g.SetMapPointPos(id, pos)
}

// InsertedKFs returns the keyframes the staged insert contributed.
func (tx *txn) InsertedKFs() []smap.ID { return tx.insertedKFs }

// touched returns the subgraph the pre-commit validation must audit:
// everything inserted plus every entity whose state the pipeline
// rewrote (BA'd keyframes, moved points, fuse survivors).
func (tx *txn) touched() (kfs, mps []smap.ID) {
	kfSet := make(map[smap.ID]bool, len(tx.insertedKFs)+len(tx.kfPoses))
	for _, id := range tx.insertedKFs {
		kfSet[id] = true
	}
	for id := range tx.kfPoses {
		kfSet[id] = true
	}
	mpSet := make(map[smap.ID]bool, len(tx.insertedMPs)+len(tx.mpPos))
	for _, id := range tx.insertedMPs {
		mpSet[id] = true
	}
	for id := range tx.mpPos {
		mpSet[id] = true
	}
	for _, f := range tx.fused {
		mpSet[f.to] = true
	}
	kfs = make([]smap.ID, 0, len(kfSet))
	for id := range kfSet {
		kfs = append(kfs, id)
	}
	mps = make([]smap.ID, 0, len(mpSet))
	for id := range mpSet {
		mps = append(mps, id)
	}
	return kfs, mps
}

// commit publishes the staged keyframes to the BoW index; the merge is
// now fully visible to other sessions' place recognition.
func (tx *txn) commit() { tx.g.PublishKeyFrames(tx.insertedKFs) }

// rollback restores the global map to its pre-merge state and, when
// the client map was transformed into global coordinates, carries it
// back so a later retry starts clean:
//
//  1. every recorded pose/position is restored (and journaled, so a
//     WAL replay of the aborted merge converges to the same state);
//  2. each fuse's binding redirects are reversed, newest first;
//  3. the inserted entities are unlinked from the global map without
//     detaching the shared objects' cross-references;
//  4. the client map is mapped through the inverse transform.
//
// In the WAL the aborted merge nets out: the staged insert's add
// records are cancelled by the unlink's erase records, and replay's
// detaching erase scrubs the observation entries the fuse redirects
// added to surviving global points.
func (tx *txn) rollback(cmap *smap.Map, tf geom.Sim3, transformed bool, j Journal) {
	for id, pose := range tx.kfPoses {
		tx.g.SetKeyFramePose(id, pose)
	}
	for id, pos := range tx.mpPos {
		tx.g.SetMapPointPos(id, pos)
	}
	if j != nil && (len(tx.kfPoses) > 0 || len(tx.mpPos) > 0) {
		j.PosesCorrected(tx.kfPoses, tx.mpPos)
	}
	for i := len(tx.fused) - 1; i >= 0; i-- {
		f := tx.fused[i]
		tx.g.UndoFuse(f.from, f.to, f.fromObs, f.toObs)
	}
	tx.g.RemoveEntities(tx.insertedKFs, tx.insertedMPs)
	if transformed {
		cmap.ApplyTransform(tf.Inverse())
	}
}
