// Package persist makes the shared-memory global map durable without
// touching the zero-copy hot path: the map reports every mutation to
// its one observer, an append-only write-ahead journal (inserts,
// erases, bindings and their detaches, fusions, pose batches,
// transforms), which feeds crash recovery; periodic asynchronous
// checkpoints (internal/wire snapshots of the arena-resident map plus
// the hologram anchor registry) bound replay time and let the journal
// be truncated.
//
// The paper's design (§4.3) keeps the global map in shared memory with
// zero serialization on the merge path — which also means one server
// crash destroys the map every client spent minutes building. This
// package restores the map on restart: load the latest checkpoint,
// replay the journal tail, rebuild the covisibility and BoW indexes,
// and returning clients resume by BoW relocalization against the
// restored map instead of starting from scratch.
package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"slamshare/internal/codec"
	"slamshare/internal/geom"
	"slamshare/internal/obs"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// ErrCorrupt reports an undecodable journal or checkpoint.
var ErrCorrupt = errors.New("persist: corrupt file")

// Journal file layout:
//
//	header: u32 magic "SLWJ" | u8 version | u64 baseSeq
//	record: u32 len | u32 crc32(rest) | u64 seq | u8 op | body
//
// Records are written asynchronously: a mutator — the map calling an
// observer callback in place, under the stripe locks it wrote, or the
// shard importer or the lifecycle manager writing a bracket or region
// marker, which are not map state — encodes the record into an
// in-memory buffer, and a writer goroutine drains batches to disk, so
// the tracking/merge hot path never blocks on I/O.
// That buffer is the one queue between the map and the disk. A torn
// tail (crash mid-write) fails the CRC and replay stops there —
// exactly the WAL contract.
//
// Ordering: j.mu sequences a record while its mutator still holds the
// lock that ordered the mutation (the stripe locks for map records, the
// server's gmu for the markers), so sequence order is mutation order
// and replaying the journal in sequence order rebuilds the live map.
const (
	journalMagic = 0x534C574A // "SLWJ"
	// journalVersion 2: keyframe records carry wire version 2's exact
	// keyframes, which a version-1 reader would misparse.
	journalVersion byte = 2

	journalHeaderBytes = 4 + 1 + 8
	recordHeaderBytes  = 4 + 4 + 8 + 1
	maxRecordBytes     = 64 << 20
)

// Journal record op codes.
const (
	opKeyFrame byte = iota + 1
	opMapPoint
	opEraseKeyFrame
	opEraseMapPoint
	opObservation
	opFuse
	opPoses
	// opMerge marked a merge boundary. Nothing writes it any more, and
	// replay skips it; the number stays taken so no other op moves.
	opMerge
	opEvictRegion
	opReloadRegion
	// opShardImport / opShardImportEnd bracket a cross-shard boundary
	// import. The insert records between them are ordinary entity
	// records; the bracket is what recovery needs to tell a committed
	// import from a half-merge the crash interrupted (see Recover).
	opShardImport
	opShardImportEnd
	opDetach
	opTransform
)

// Journal is the write-ahead log of global-map mutations. It
// implements smap.Observer, the one path from a map mutation to disk;
// records are sequenced under an internal mutex and flushed by a
// background goroutine.
type Journal struct {
	dir   string
	fsync bool
	stats *Stats
	// stWAL, when non-nil, records a "wal.append" span per drained
	// batch (seq = latest record sequence covered by the batch). The
	// spans live on the writer goroutine: the hot-path append only
	// queues bytes.
	stWAL *obs.Stage

	mu      sync.Mutex // guards seq, pending, f, closed
	f       *os.File
	seq     uint64
	pending []byte
	closed  bool
	err     error

	// wmu serializes the actual file writes so Flush and the writer
	// goroutine drain batches in order.
	wmu  sync.Mutex
	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

// openJournal starts a new journal file in dir whose records continue
// from lastSeq.
func openJournal(dir string, lastSeq uint64, fsync bool, stats *Stats) (*Journal, error) {
	j := &Journal{
		dir:   dir,
		fsync: fsync,
		stats: stats,
		seq:   lastSeq,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	f, err := createJournalFile(dir, lastSeq)
	if err != nil {
		return nil, err
	}
	j.f = f
	go j.writeLoop()
	return j, nil
}

func journalPath(dir string, baseSeq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%016d.wal", baseSeq))
}

// createJournalFile creates the journal file for baseSeq and writes
// its header.
func createJournalFile(dir string, baseSeq uint64) (*os.File, error) {
	f, err := os.OpenFile(journalPath(dir, baseSeq), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := codec.Writer{B: make([]byte, 0, journalHeaderBytes)}
	hdr.U32(journalMagic)
	hdr.U8(journalVersion)
	hdr.U64(baseSeq)
	if _, err := f.Write(hdr.B); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Seq returns the sequence number of the latest record.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Err returns the first write error the journal hit, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// append sequences one record and queues it for the writer goroutine.
// It does no I/O — observer callbacks reach it holding a map stripe
// lock — and this is the only work mutation hot paths pay.
func (j *Journal) append(op byte, body []byte) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.seq++
	// The CRC covers what follows it: sequence, op, body.
	covered := codec.Writer{B: make([]byte, 0, 8+1)}
	covered.U64(j.seq)
	covered.U8(op)
	crc := crc32.Update(crc32.ChecksumIEEE(covered.B), crc32.IEEETable, body)
	w := codec.Writer{B: j.pending}
	w.U32(uint32(len(covered.B) + len(body)))
	w.U32(crc)
	w.Raw(covered.B)
	w.Raw(body)
	j.pending = w.B
	j.mu.Unlock()
	if j.stats != nil {
		j.stats.JournalRecords.Inc()
		j.stats.JournalBytes.Add(int64(recordHeaderBytes + len(body)))
	}
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// writeLoop drains pending batches to the journal file.
func (j *Journal) writeLoop() {
	defer close(j.done)
	for {
		select {
		case <-j.wake:
			j.drain()
		case <-j.quit:
			j.drain()
			return
		}
	}
}

// drain writes everything queued so far. Write order is preserved by
// taking wmu before snapshotting pending.
func (j *Journal) drain() {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	j.mu.Lock()
	buf := j.pending
	j.pending = nil
	f := j.f
	seq := j.seq
	j.mu.Unlock()
	if len(buf) == 0 || f == nil {
		return
	}
	sp := j.stWAL.Start(0, seq)
	defer sp.End()
	_, err := f.Write(buf)
	if err == nil && j.fsync {
		err = f.Sync()
	}
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = err
		}
		j.mu.Unlock()
	}
}

// Flush synchronously writes all queued records to disk.
func (j *Journal) Flush() error {
	j.drain()
	return j.Err()
}

// rotate switches to a fresh journal file based at the sequence number
// of a cut, and returns that base. cut must call seal once: every
// record sequenced before seal goes to the old file, every later one
// to the new. The checkpointer seals inside the map's snapshot, so the
// snapshot holds exactly the records up to the base and the old file
// can be deleted once the snapshot is durable. The file work runs after
// cut returns; the writer goroutine stays off the files throughout.
func (j *Journal) rotate(cut func(seal func())) (uint64, error) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	var (
		base   uint64
		buf    []byte
		f      *os.File
		closed bool
	)
	cut(func() {
		j.mu.Lock()
		base, f, closed = j.seq, j.f, j.closed
		if !closed {
			buf, j.pending = j.pending, nil
		}
		j.mu.Unlock()
	})
	if closed {
		return base, nil
	}
	if f != nil {
		if len(buf) > 0 {
			if _, err := f.Write(buf); err != nil {
				return 0, err
			}
		}
		if j.fsync {
			f.Sync()
		}
		f.Close()
	}
	// Create the next file outside j.mu: appenders wait on j.mu holding
	// a map stripe lock, so nothing under it may touch the disk. wmu
	// keeps the writer goroutine (and a concurrent close's final drain)
	// off j.f meanwhile; records sequenced since base wait in pending
	// for the new file.
	next, err := createJournalFile(j.dir, base)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f = next
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return 0, err
	}
	return base, nil
}

// close stops the writer goroutine and closes the file after a final
// drain. Queued records are durable on return.
func (j *Journal) close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.quit)
	<-j.done
	j.mu.Lock()
	f := j.f
	j.f = nil
	err := j.err
	j.mu.Unlock()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ---- smap.Observer ----

// KeyFrameAdded journals a keyframe insert with its full payload.
func (j *Journal) KeyFrameAdded(kf *smap.KeyFrame) { j.append(opKeyFrame, wire.EncodeKeyFrame(kf)) }

// MapPointAdded journals a map-point insert with its full payload.
func (j *Journal) MapPointAdded(mp *smap.MapPoint) { j.append(opMapPoint, wire.EncodeMapPoint(mp)) }

// KeyFrameErased journals a keyframe cull.
func (j *Journal) KeyFrameErased(id smap.ID) { j.appendIDs(opEraseKeyFrame, id) }

// MapPointErased journals a map-point cull.
func (j *Journal) MapPointErased(id smap.ID) { j.appendIDs(opEraseMapPoint, id) }

// appendIDs journals a record whose body is a fixed list of IDs.
func (j *Journal) appendIDs(op byte, ids ...smap.ID) {
	w := codec.Writer{B: make([]byte, 0, 8*len(ids))}
	for _, id := range ids {
		w.U64(id)
	}
	j.append(op, w.B)
}

// ObservationAdded journals a keypoint-to-map-point binding.
func (j *Journal) ObservationAdded(kfID, mpID smap.ID, kpIdx int) {
	w := codec.Writer{B: make([]byte, 0, 20)}
	w.U64(kfID)
	w.U64(mpID)
	w.U32(uint32(kpIdx))
	j.append(opObservation, w.B)
}

// ObservationDetached journals a severed binding; replay detaches it
// again.
func (j *Journal) ObservationDetached(kfID, mpID smap.ID, kpIdx int) {
	w := codec.Writer{B: make([]byte, 0, 20)}
	w.U64(kfID)
	w.U64(mpID)
	w.U32(uint32(kpIdx))
	j.append(opDetach, w.B)
}

// PointFused journals a duplicate-point fusion before its first
// redirect; replay fuses again, which also erases from, so the erase
// record the fuse writes next is a no-op there.
func (j *Journal) PointFused(from, to smap.ID) { j.appendIDs(opFuse, from, to) }

// PosesSet journals a SetPoses batch, each list in the ascending ID
// order SetPoses requires, so the same batch always journals the same
// bytes.
func (j *Journal) PosesSet(kfs []smap.KeyFramePose, mps []smap.PointPos) {
	w := codec.Writer{B: make([]byte, 0, 8+len(kfs)*poseEntryBytes+len(mps)*posEntryBytes)}
	w.U32(uint32(len(kfs)))
	for _, p := range kfs {
		w.U64(p.ID)
		w.Pose(p.Tcw)
	}
	w.U32(uint32(len(mps)))
	for _, p := range mps {
		w.U64(p.ID)
		w.Vec3(p.Pos)
	}
	j.append(opPoses, w.B)
}

// Transformed journals a whole-map similarity transform.
func (j *Journal) Transformed(s geom.Sim3) {
	w := codec.Writer{B: make([]byte, 0, 8*8)}
	w.Pose(geom.SE3{R: s.R, T: s.T})
	w.F64(s.S)
	j.append(opTransform, w.B)
}

// ---- cross-shard import brackets ----

// ShardImportBegin journals the start of a cross-shard boundary
// import: the handoff epoch and the migrating client. Every entity
// record that follows, up to the matching ShardImportEnd, belongs to
// the import transaction; if the server dies before the end record is
// durable, recovery rolls the whole import back by discarding the
// journal from this record on (see Recover's import horizon).
func (j *Journal) ShardImportBegin(epoch uint64, client uint32) {
	w := codec.Writer{B: make([]byte, 0, 12)}
	w.U64(epoch)
	w.U32(client)
	j.append(opShardImport, w.B)
}

// ShardImportEnd journals the end of a cross-shard boundary import,
// committed or rolled back live. Either way the bracket is closed: the
// records between the markers are an accurate history (a live rollback
// journals its own compensating erase/restore records), so recovery
// must NOT discard them.
func (j *Journal) ShardImportEnd(epoch uint64, committed bool) {
	w := codec.Writer{B: make([]byte, 0, 9)}
	w.U64(epoch)
	w.Bool(committed)
	j.append(opShardImportEnd, w.B)
}

// Entry sizes of an opPoses body: an ID with a pose or a position.
const (
	poseEntryBytes = 8 + 7*8
	posEntryBytes  = 8 + 3*8
)
