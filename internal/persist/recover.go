package persist

import (
	"hash/crc32"
	"os"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/codec"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// Recovery is the result of rebuilding a session from disk.
type Recovery struct {
	// Map is the restored global map with covisibility and BoW indexes
	// rebuilt; returning clients relocalize against it.
	Map *smap.Map
	// Anchors is the restored hologram anchor registry.
	Anchors *holo.Registry
	// CheckpointLoaded reports whether a checkpoint seeded the map (as
	// opposed to a pure journal replay from empty).
	CheckpointLoaded bool
	// CheckpointSeq is the journal sequence the checkpoint covered.
	CheckpointSeq uint64
	// LastSeq is the highest journal sequence applied; a new journal
	// must continue from it.
	LastSeq uint64
	// ReplayedRecords counts journal records applied on top of the
	// checkpoint.
	ReplayedRecords int
	// ReplayTime is the wall time spent loading and replaying.
	ReplayTime time.Duration
	// EvictedRegions maps the region ids still evicted at crash time to
	// the keyframe ids each region holds on disk. The lifecycle manager
	// seeds its reload index from this set, so sessions can relocalize
	// into regions evicted before the crash.
	EvictedRegions map[uint64][]smap.ID
	// ImportRolledBack reports that the crash interrupted a cross-shard
	// boundary import (an opShardImport bracket was never closed) and
	// recovery discarded the journal from that point: the half-merge is
	// rolled back and the peer shard still owns the region.
	ImportRolledBack bool
	// ImportEpoch is the handoff epoch of the rolled-back import.
	ImportEpoch uint64
}

// Recover rebuilds the global map and anchor registry from the
// checkpoint directory: load the newest valid checkpoint (corrupt ones
// are skipped, falling back to older snapshots), replay every journal
// record with a later sequence number, stop at the first torn or
// corrupt record, and rebuild the covisibility graph. An empty or
// missing directory yields an empty map, so servers can pass their
// checkpoint dir unconditionally.
func Recover(dir string, voc *bow.Vocabulary) (*Recovery, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rec := &Recovery{EvictedRegions: make(map[uint64][]smap.ID)}

	ckpts, err := listCheckpoints(dir)
	if err != nil {
		return nil, err
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		m, anchors, seq, err := readCheckpoint(checkpointPath(dir, ckpts[i]), voc)
		if err != nil {
			continue // corrupt or stale-format checkpoint: fall back
		}
		rec.Map, rec.Anchors = m, anchors
		rec.CheckpointSeq = seq
		rec.CheckpointLoaded = true
		break
	}
	if rec.Map == nil {
		rec.Map = smap.NewMap(voc)
	}
	if rec.Anchors == nil {
		rec.Anchors = holo.NewRegistry()
	}
	rec.LastSeq = rec.CheckpointSeq

	journals, err := listJournals(dir)
	if err != nil {
		return nil, err
	}

	// Cross-shard import atomicity: an opShardImport bracket that was
	// never closed means the crash landed mid boundary-import — the
	// journal tail holds a half-merge. Committed imports flush their
	// end marker before acking the peer, so an open bracket is by
	// definition unacknowledged and safe to discard: physically
	// truncate the journal at the begin marker and drop the later
	// files. Physical truncation (not just skipping during this
	// replay) matters: replay stops at the first file that does not
	// end cleanly, so a merely-skipped tail would mask the journal
	// written after this recovery from the *next* recovery.
	if h, ok := scanImportHorizon(dir, journals); ok && h.seq > rec.CheckpointSeq {
		if err := os.Truncate(journalPath(dir, journals[h.fileIdx]), h.off); err != nil {
			return nil, err
		}
		for _, base := range journals[h.fileIdx+1:] {
			if err := os.Remove(journalPath(dir, base)); err != nil {
				return nil, err
			}
		}
		journals = journals[:h.fileIdx+1]
		rec.ImportRolledBack = true
		rec.ImportEpoch = h.epoch
	}

	for _, base := range journals {
		ok := replayJournal(journalPath(dir, base), rec)
		if !ok {
			// A corrupt record means everything after it is suspect;
			// the torn tail of the crash-time journal ends replay.
			break
		}
	}

	// The journal captures observations as they happened, but the
	// covisibility edges of replayed keyframes reflect insert-time
	// state. Recompute them all (minShared 15, the system-wide default)
	// so merge candidate search and local-map tracking see the same
	// graph the live map had. The BoW index was rebuilt incrementally
	// by AddKeyFrame during checkpoint decode and replay.
	for _, kf := range rec.Map.KeyFrames() {
		rec.Map.UpdateConnections(kf.ID, 15)
	}
	rec.ReplayTime = time.Since(start)
	return rec, nil
}

// importHorizon locates an unclosed cross-shard import bracket: the
// sequence, file, byte offset, and epoch of the last opShardImport
// with no matching opShardImportEnd. Everything from that record on
// must be discarded.
type importHorizon struct {
	seq     uint64
	epoch   uint64
	fileIdx int
	off     int64
}

// scanImportHorizon walks the journal files (read-only, same record
// validation as replay, stopping at the first torn or corrupt record
// exactly where replay would) and reports the open import bracket, if
// any. Imports are serialized under the server's global-map lock, so
// at most one bracket can be open.
func scanImportHorizon(dir string, journals []uint64) (importHorizon, bool) {
	var open *importHorizon
	for idx, base := range journals {
		clean := forEachRecord(journalPath(dir, base), func(off int64, seq uint64, op byte, body []byte) {
			switch op {
			case opShardImport:
				r := codec.NewReader(body)
				open = &importHorizon{seq: seq, epoch: r.U64(), fileIdx: idx, off: off}
			case opShardImportEnd:
				open = nil
			}
		})
		if !clean {
			break // replay stops here too; an earlier open bracket still counts
		}
	}
	if open == nil {
		return importHorizon{}, false
	}
	return *open, true
}

// forEachRecord walks one journal file, handing fn each valid record
// with its byte offset in the file. It stops at the first torn or
// corrupt record and reports whether the file ended cleanly — if not,
// everything after it is suspect (later files would have sequence
// gaps).
func forEachRecord(path string, fn func(off int64, seq uint64, op byte, body []byte)) (clean bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	r := codec.NewReader(data)
	magic, version := r.U32(), r.U8()
	r.U64() // base sequence; the file name carries it too
	if r.Err() != nil || magic != journalMagic || version != journalVersion {
		return false
	}
	for r.Len() >= recordHeaderBytes {
		off := r.Offset()
		n, crc := int(r.U32()), r.U32()
		if n < 8+1 || n > maxRecordBytes {
			return false
		}
		covered := r.Raw(n)
		if r.Err() != nil || crc32.ChecksumIEEE(covered) != crc {
			return false // torn or corrupt record
		}
		rec := codec.NewReader(covered)
		fn(int64(off), rec.U64(), rec.U8(), covered[8+1:])
	}
	return r.Len() == 0
}

// replayJournal applies one journal file's records with seq beyond the
// checkpoint. Returns false if it hit a corrupt record (replay must
// stop).
func replayJournal(path string, rec *Recovery) bool {
	return forEachRecord(path, func(_ int64, seq uint64, op byte, body []byte) {
		if seq <= rec.CheckpointSeq {
			return // already in the checkpoint snapshot
		}
		applyRecord(rec, op, body)
		if seq > rec.LastSeq {
			rec.LastSeq = seq
		}
		rec.ReplayedRecords++
	})
}

// applyRecord replays one journal record onto the map. All operations
// are idempotent or tolerant of missing entities, because the
// checkpoint snapshot may already include mutations journaled just
// after the snapshot's sequence point. A record whose body is short is
// skipped.
func applyRecord(rec *Recovery, op byte, body []byte) {
	m := rec.Map
	r := codec.NewReader(body)
	switch op {
	case opKeyFrame:
		if kf, _, err := wire.DecodeKeyFrame(body); err == nil {
			m.AddKeyFrame(kf)
		}
	case opMapPoint:
		if mp, _, err := wire.DecodeMapPoint(body); err == nil {
			m.AddMapPoint(mp)
		}
	case opEraseKeyFrame:
		if id := r.U64(); r.Err() == nil {
			m.EraseKeyFrame(id)
		}
	case opEraseMapPoint:
		if id := r.U64(); r.Err() == nil {
			m.EraseMapPoint(id)
		}
	case opObservation:
		kfID, mpID, kpIdx := r.U64(), r.U64(), int(r.U32())
		if r.Err() == nil {
			_ = m.AddObservation(kfID, mpID, kpIdx) // entities may be gone
		}
	case opFuse:
		// Repeat the fuse: redirect from's bindings to to, then erase
		// from. The erase record the live fuse wrote next is a no-op.
		from, to := r.U64(), r.U64()
		if r.Err() == nil {
			m.FusePoint(from, to)
		}
	case opPoses:
		if kfs, mps, ok := readPoses(&r); ok {
			m.SetPoses(kfs, mps)
		}
	case opDetach:
		kfID, mpID, kpIdx := r.U64(), r.U64(), int(r.U32())
		if r.Err() == nil {
			m.DetachObservation(kfID, mpID, kpIdx)
		}
	case opTransform:
		pose, scale := r.Pose(), r.F64()
		if r.Err() == nil {
			m.ApplyTransform(geom.Sim3{S: scale, R: pose.R, T: pose.T})
		}
	case opShardImport, opShardImportEnd:
		// Closed import brackets are informational here: the entities
		// between them are ordinary records. Open brackets never reach
		// applyRecord — Recover truncated the journal at the begin
		// marker before replay.
	case opEvictRegion:
		// The erases were journaled as their own records (the map is
		// already compact); this marker restores the evicted-region set
		// so the lifecycle manager can serve reloads after the restart.
		id := r.U64()
		kfIDs := make([]smap.ID, r.Count(8))
		for i := range kfIDs {
			kfIDs[i] = r.U64()
		}
		if r.Err() == nil {
			rec.EvictedRegions[id] = kfIDs
		}
	case opReloadRegion:
		if id := r.U64(); r.Err() == nil {
			delete(rec.EvictedRegions, id)
		}
	}
}

// readPoses decodes an opPoses body, refusing one that is short or not
// by strictly ascending ID, as SetPoses writes it.
func readPoses(r *codec.Reader) ([]smap.KeyFramePose, []smap.PointPos, bool) {
	kfs := make([]smap.KeyFramePose, r.Count(poseEntryBytes))
	for i := range kfs {
		kfs[i] = smap.KeyFramePose{ID: r.U64(), Tcw: r.Pose()}
	}
	mps := make([]smap.PointPos, r.Count(posEntryBytes))
	for i := range mps {
		mps[i] = smap.PointPos{ID: r.U64(), Pos: r.Vec3()}
	}
	ok := r.Err() == nil
	for i := 1; ok && i < len(kfs); i++ {
		ok = kfs[i-1].ID < kfs[i].ID
	}
	for i := 1; ok && i < len(mps); i++ {
		ok = mps[i-1].ID < mps[i].ID
	}
	return kfs, mps, ok
}
