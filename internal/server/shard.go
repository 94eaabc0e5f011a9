package server

// Cluster-mode message handlers: the shard side of the spatially
// sharded global map. A slamshare-front router owns session placement;
// shards own disjoint covisibility regions of the world map and move
// ownership between each other with a two-phase handoff the front
// coordinates:
//
//	front -> A  HandoffBegin       export the session's boundary region
//	A -> front  BoundaryRegion     deep-copied snapshot, map untouched
//	front -> B  BoundaryRegion     import: merge or adopt, WAL-bracketed
//	B -> front  HandoffAck/Nack    committed (end marker durable) or rolled back
//	front -> A  HandoffCommit      erase the exported cluster
//	A -> front  HandoffCommitAck   ownership disjoint again
//
// The export mutates nothing, so an abort at any step before the
// commit leaves shard A authoritative. The import journals an
// opShardImport bracket around the merge: a crash between Begin and
// End makes recovery truncate the WAL at the begin marker (see
// persist.Recover), so the half-merge never survives a restart and the
// peer — which only erases on HandoffCommit, sent strictly after the
// Ack — still owns the region. Between B's commit and A's erase the
// cluster transiently double-owns the exported keyframes; the
// cross-shard disjointness invariant is asserted at quiescent points
// only, never mid-handoff.

import (
	"errors"
	"fmt"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/holo"
	"slamshare/internal/merge"
	"slamshare/internal/protocol"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// shardPeer is the identity a connection assumes after a valid
// ShardHello: the front door, a sibling shard, or an admin probe.
type shardPeer struct {
	role   byte
	sender uint32
}

// boundaryClusterLimit caps how many keyframes one handoff exports.
// The covisibility cluster around the session's newest keyframe is
// what the target shard needs to keep tracking seamless; the rest of
// the trajectory stays behind and is reachable through relocalization.
const boundaryClusterLimit = 40

// exportKey identifies one offered-but-uncommitted boundary export.
type exportKey struct {
	client uint32
	epoch  uint64
}

// exportRecord remembers what a HandoffBegin exported so the later
// HandoffCommit erases exactly that — no more, no less — even if the
// map changed in between.
type exportRecord struct {
	kfIDs []smap.ID
	mpIDs []smap.ID
}

// handleHandoff serves the source-shard half of the protocol: Begin
// (export) and Commit (erase). Returns false to drop the connection.
func (s *Server) handleHandoff(peer *shardPeer, payload []byte, writeMsg func(byte, []byte) bool) bool {
	msg, err := protocol.DecodeHandoffMsg(payload)
	if err != nil {
		return false
	}
	switch msg.Phase {
	case protocol.HandoffBegin:
		return s.exportBoundary(msg, writeMsg)
	case protocol.HandoffCommit:
		return s.commitExport(msg, writeMsg)
	default:
		// Ack/Nack/CommitAck travel shard->front; receiving one here is
		// a protocol violation.
		return false
	}
}

// exportBoundary snapshots the covisibility cluster around the
// client's newest keyframe plus the client's anchors, remembers the
// exported IDs for the commit, and answers with a BoundaryRegionMsg.
// The map is not mutated: until HandoffCommit arrives this shard
// remains the region's owner.
func (s *Server) exportBoundary(msg *protocol.HandoffMsg, writeMsg func(byte, []byte) bool) bool {
	var (
		kfs []*smap.KeyFrame
		mps []*smap.MapPoint
	)
	s.gmu.RLock()
	// The client's newest keyframe seeds the cluster. smap.MaxSeq mixes
	// keyframe and map-point sequence numbers, so scan the keyframes.
	var seed smap.ID
	for _, kf := range s.global.KeyFrames() {
		if kf.Client == int(msg.ClientID) && (seed == 0 || smap.SeqOf(kf.ID) > smap.SeqOf(seed)) {
			seed = kf.ID
		}
	}
	if seed != 0 {
		ids := s.global.CovisCluster(seed, boundaryClusterLimit, nil)
		kfs, mps = s.global.SnapshotRegion(ids)
	}
	s.gmu.RUnlock()

	rec := &exportRecord{}
	for _, kf := range kfs {
		rec.kfIDs = append(rec.kfIDs, kf.ID)
	}
	for _, mp := range mps {
		rec.mpIDs = append(rec.mpIDs, mp.ID)
	}
	s.shardMu.Lock()
	// A re-offer for the same client supersedes any older pending
	// export: the front retries with a fresh epoch after an abort.
	for k := range s.pendingExports {
		if k.client == msg.ClientID {
			delete(s.pendingExports, k)
		}
	}
	s.pendingExports[exportKey{msg.ClientID, msg.Epoch}] = rec
	s.shardMu.Unlock()
	s.noteHandoffEpoch(msg.ClientID, msg.Epoch)

	reply := &protocol.BoundaryRegionMsg{
		ClientID: msg.ClientID,
		Epoch:    msg.Epoch,
		RegionID: msg.Epoch,
		Region:   wire.EncodeRegion(msg.Epoch, kfs, mps),
		Anchors:  holo.EncodeAnchors(s.anchors.OwnedBy(msg.ClientID)),
	}
	return writeMsg(protocol.TypeBoundaryRegion, reply.Encode())
}

// commitExport erases the previously exported cluster: the target
// shard has committed the import, so keeping the copy here would
// violate cross-shard ownership disjointness. Map points are erased
// only once orphaned — a point observed from a keyframe that stayed
// behind is still this shard's.
func (s *Server) commitExport(msg *protocol.HandoffMsg, writeMsg func(byte, []byte) bool) bool {
	s.shardMu.Lock()
	rec, ok := s.pendingExports[exportKey{msg.ClientID, msg.Epoch}]
	delete(s.pendingExports, exportKey{msg.ClientID, msg.Epoch})
	s.shardMu.Unlock()
	if !ok {
		// Unknown epoch: a duplicate or stale commit. Ack idempotently —
		// the erase it asks for already happened or was superseded.
		return s.writeHandoff(writeMsg, protocol.HandoffCommitAck, msg, "")
	}
	s.gmu.Lock()
	for _, id := range rec.kfIDs {
		s.global.EraseKeyFrame(id)
	}
	for _, id := range rec.mpIDs {
		if n, ok := s.global.PointObsCount(id); ok && n == 0 {
			s.global.EraseMapPoint(id)
		}
	}
	s.gmu.Unlock()
	return s.writeHandoff(writeMsg, protocol.HandoffCommitAck, msg, "")
}

// handleBoundaryRegion serves the target-shard half: import the peer's
// boundary region under a WAL bracket and answer Ack or Nack. Returns
// false to drop the connection.
func (s *Server) handleBoundaryRegion(peer *shardPeer, payload []byte, writeMsg func(byte, []byte) bool) bool {
	msg, err := protocol.DecodeBoundaryRegionMsg(payload)
	if err != nil {
		return false
	}
	hm := &protocol.HandoffMsg{
		ClientID:  msg.ClientID,
		Epoch:     msg.Epoch,
		FromShard: peer.sender,
		ToShard:   s.cfg.Shard.ID,
	}
	// Import quarantine mirrors the per-session merge quarantine: a
	// peer whose exports keep failing validation stops being believed.
	s.shardMu.Lock()
	blocked := s.importBlocked[peer.sender] >= maxMergeRollbacks
	s.shardMu.Unlock()
	if blocked {
		return s.writeHandoff(writeMsg, protocol.HandoffNack, hm, "peer quarantined after repeated import rollbacks")
	}
	_, kfs, mps, err := wire.DecodeRegion(msg.Region)
	if err != nil {
		return s.writeHandoff(writeMsg, protocol.HandoffNack, hm, "corrupt boundary region: "+err.Error())
	}
	anchors, err := holo.DecodeAnchors(msg.Anchors)
	if err != nil {
		return s.writeHandoff(writeMsg, protocol.HandoffNack, hm, "corrupt anchor payload: "+err.Error())
	}

	s.importsInFlight.Add(1)
	defer s.importsInFlight.Add(-1)
	s.gmu.Lock()
	mergeErr := s.importRegion(msg.Epoch, msg.ClientID, kfs, mps)
	if mergeErr != nil {
		s.gmu.Unlock()
		s.importsRolled.Add(1)
		s.net.MergeRollbacks.Inc()
		s.shardMu.Lock()
		s.importBlocked[peer.sender]++
		s.shardMu.Unlock()
		return s.writeHandoff(writeMsg, protocol.HandoffNack, hm, mergeErr.Error())
	}
	s.gmu.Unlock()
	// The end marker must be durable before the Ack: once the peer sees
	// the Ack it will erase its copy, so from that moment a crash here
	// must NOT roll the import back.
	if s.pmgr != nil {
		if err := s.pmgr.Flush(); err != nil {
			s.importsRolled.Add(1)
			return s.writeHandoff(writeMsg, protocol.HandoffNack, hm, "journal flush: "+err.Error())
		}
	}
	for _, a := range anchors {
		s.anchors.Restore(a)
	}
	s.importsDone.Add(1)
	s.noteHandoffEpoch(msg.ClientID, msg.Epoch)
	return s.writeHandoff(writeMsg, protocol.HandoffAck, hm, "")
}

// importRegion (gmu held) rebuilds the snapshot into a standalone map
// and runs it through the transactional merge machinery. Clients track
// against world-frame priors, so the imported region is already in the
// cluster's shared coordinate frame: if it overlaps this shard's map
// the merger aligns and fuses duplicates; if it is disjoint (the
// common case — regions are spatially sharded) it is adopted at
// identity. Either path validates pre-commit and rolls back through
// the undo log on violation. The whole import sits inside an
// opShardImport WAL bracket so a crash mid-import is rolled back by
// recovery.
func (s *Server) importRegion(epoch uint64, client uint32, kfs []*smap.KeyFrame, mps []*smap.MapPoint) error {
	if s.pmgr != nil {
		s.pmgr.Journal().ShardImportBegin(epoch, client)
	}
	cmap := buildImportMap(s.voc, kfs, mps)
	merger := merge.New(s.global, camera.EuRoCIntrinsics(), s.cfg.MergeCfg)
	_, err := merger.Merge(cmap) // adopts into an empty map
	if errors.Is(err, merge.ErrNoOverlap) {
		_, err = merger.Adopt(cmap)
	}
	committed := err == nil
	if committed && s.cfg.Shard.ImportStall > 0 {
		// Crash-window failpoint: make the open bracket and the merge's
		// inserts durable, then hold the import open (gmu still held).
		// A SIGKILL lands exactly in the state recovery must undo.
		if s.pmgr != nil {
			s.pmgr.Flush()
		}
		s.importsStalled.Add(1)
		time.Sleep(s.cfg.Shard.ImportStall)
	}
	if s.pmgr != nil {
		s.pmgr.Journal().ShardImportEnd(epoch, committed)
	}
	if err != nil {
		return fmt.Errorf("boundary import rolled back: %w", err)
	}
	return nil
}

// buildImportMap rebuilds a wire-decoded snapshot into a standalone
// map the merger can consume; smap.Relink — the routine the lifecycle
// manager's region reload runs — re-establishes observations and
// covisibility.
func buildImportMap(voc *bow.Vocabulary, kfs []*smap.KeyFrame, mps []*smap.MapPoint) *smap.Map {
	m := smap.NewMap(voc)
	m.Relink(kfs, mps)
	return m
}

// handleShardControl answers admin probes. Returns false to drop the
// connection.
func (s *Server) handleShardControl(payload []byte, writeMsg func(byte, []byte) bool) bool {
	msg, err := protocol.DecodeShardControlMsg(payload)
	if err != nil || msg.Token != s.cfg.Shard.Token {
		return false
	}
	st := &protocol.ShardStatusMsg{Op: msg.Op, OK: true}
	switch msg.Op {
	case protocol.ShardOpCheck:
		s.gmu.RLock()
		rep := s.global.CheckInvariants()
		s.gmu.RUnlock()
		st.OK = rep.OK()
		for _, v := range rep.Violations {
			st.Violations = append(st.Violations, v.String())
		}
	case protocol.ShardOpOwnership:
		s.gmu.RLock()
		for _, kf := range s.global.KeyFrames() {
			st.KFIDs = append(st.KFIDs, uint64(kf.ID))
		}
		s.gmu.RUnlock()
		for _, a := range s.anchors.All() {
			st.Anchors = append(st.Anchors, protocol.AnchorState{ID: a.ID, Pose: a.Pose})
		}
	case protocol.ShardOpResume:
		// Per-client epoch under its own mutex — never gmu, so an
		// adopting front can probe while an import stall holds the map.
		st.ResumeEpoch = s.resumeEpochFor(msg.ClientID)
	case protocol.ShardOpStats:
		// Atomics and striped counters only — never gmu, so this probe
		// works while an import stall holds the global-map lock.
		st.Stats = protocol.ShardStats{
			KeyFrames:       uint64(s.global.NKeyFrames()),
			MapPoints:       uint64(s.global.NMapPoints()),
			Sessions:        uint64(s.NSessions()),
			ImportsInFlight: uint64(s.importsInFlight.Load()),
			Imports:         uint64(s.importsDone.Load()),
			ImportRollbacks: uint64(s.importsRolled.Load()),
			ImportsStalled:  uint64(s.importsStalled.Load()),
		}
	}
	return writeMsg(protocol.TypeShardStatus, st.Encode())
}

// writeHandoff sends one handoff step with this shard's identity
// filled in.
func (s *Server) writeHandoff(writeMsg func(byte, []byte) bool, phase byte, base *protocol.HandoffMsg, reason string) bool {
	out := &protocol.HandoffMsg{
		Phase:     phase,
		ClientID:  base.ClientID,
		Epoch:     base.Epoch,
		FromShard: base.FromShard,
		ToShard:   base.ToShard,
		Reason:    reason,
	}
	return writeMsg(protocol.TypeHandoff, out.Encode())
}
