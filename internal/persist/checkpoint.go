package persist

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"slamshare/internal/bow"
	"slamshare/internal/codec"
	"slamshare/internal/holo"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

// Checkpoint file layout:
//
//	u32 magic "SLCP" | u8 version | u64 seq
//	u32 mapLen  | wire.EncodeMap blob
//	u32 holoLen | holo.Registry.Encode blob
//	u32 crc32 over everything before it
//
// seq is the journal sequence number the snapshot is consistent with:
// recovery replays only journal records with seq greater than it.
// Because the map keeps mutating while the snapshot is encoded, the
// snapshot may already include a few records with later sequence
// numbers; replaying those is harmless (inserts and pose writes are
// idempotent, erases of absent entities are no-ops).
const (
	ckptMagic        = 0x534C4350 // "SLCP"
	ckptVersion byte = 1

	maxCheckpointBytes = 1 << 32
)

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.ckpt", seq))
}

// writeCheckpoint atomically persists a snapshot: write to a temp file,
// fsync, rename. A crash mid-write leaves no partial checkpoint behind
// under the durable name.
func writeCheckpoint(dir string, seq uint64, mapBlob, holoBlob []byte) (int, error) {
	w := codec.Writer{B: make([]byte, 0, 4+1+8+4+len(mapBlob)+4+len(holoBlob)+4)}
	w.U32(ckptMagic)
	w.U8(ckptVersion)
	w.U64(seq)
	w.Bytes(mapBlob)
	w.Bytes(holoBlob)
	w.U32(crc32.ChecksumIEEE(w.B))

	tmp, err := os.CreateTemp(dir, "checkpoint-*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(w.B); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), checkpointPath(dir, seq)); err != nil {
		return 0, err
	}
	return len(w.B), nil
}

// readCheckpoint validates and decodes one checkpoint file.
func readCheckpoint(path string, voc *bow.Vocabulary) (m *smap.Map, anchors *holo.Registry, seq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(data) < 4+1+8+4+4+4 || len(data) > maxCheckpointBytes {
		return nil, nil, 0, fmt.Errorf("%w: checkpoint %s: bad size %d", ErrCorrupt, filepath.Base(path), len(data))
	}
	body, tail := data[:len(data)-4], codec.NewReader(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != tail.U32() {
		return nil, nil, 0, fmt.Errorf("%w: checkpoint %s: crc mismatch", ErrCorrupt, filepath.Base(path))
	}
	r := codec.NewReader(body)
	if r.U32() != ckptMagic {
		return nil, nil, 0, fmt.Errorf("%w: checkpoint %s: bad magic", ErrCorrupt, filepath.Base(path))
	}
	if v := r.U8(); v != ckptVersion {
		return nil, nil, 0, fmt.Errorf("%w: checkpoint %s: version %d", wire.ErrVersion, filepath.Base(path), v)
	}
	seq = r.U64()
	mapBlob := r.Bytes(len(body))
	if r.Err() != nil {
		return nil, nil, 0, fmt.Errorf("%w: checkpoint %s: map blob overruns file", ErrCorrupt, filepath.Base(path))
	}
	m, err = wire.DecodeMap(mapBlob, voc)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	holoBlob := r.Bytes(len(body))
	if r.Err() != nil {
		return nil, nil, 0, fmt.Errorf("%w: checkpoint %s: anchor blob missing or overruns file", ErrCorrupt, filepath.Base(path))
	}
	if len(holoBlob) == 0 {
		// Sessions without an anchor registry checkpoint an empty blob.
		anchors = holo.NewRegistry()
	} else if anchors, err = holo.Decode(holoBlob); err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint %s: %w", filepath.Base(path), err)
	}
	return m, anchors, seq, nil
}

// listSeqFiles returns the sequence numbers of files in dir matching
// prefix<16-digit-seq>ext, ascending.
func listSeqFiles(dir, prefix, ext string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ext) {
			continue
		}
		mid := name[len(prefix) : len(name)-len(ext)]
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func listCheckpoints(dir string) ([]uint64, error) { return listSeqFiles(dir, "checkpoint-", ".ckpt") }
func listJournals(dir string) ([]uint64, error)    { return listSeqFiles(dir, "journal-", ".wal") }
