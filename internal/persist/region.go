package persist

import (
	"fmt"
	"os"
	"path/filepath"

	"slamshare/internal/codec"
	"slamshare/internal/smap"
)

// Evicted-region files. When the lifecycle manager drops a cold
// covisibility cluster from memory it serializes the cluster with
// wire.EncodeRegion and parks the blob here, next to the checkpoints
// and journals, as region-<id>.rgn. The write is atomic (temp, fsync,
// rename) like a checkpoint: a crash mid-eviction leaves either no
// region file — the WAL never recorded the eviction, so recovery keeps
// the entities live — or a complete one.

// RegionPath returns the on-disk path of an evicted region file.
func RegionPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("region-%016d.rgn", id))
}

// WriteRegion durably writes one evicted-region blob.
func WriteRegion(dir string, id uint64, blob []byte) error {
	tmp, err := os.CreateTemp(dir, "region-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), RegionPath(dir, id))
}

// ReadRegion reads one evicted-region blob; validation is the
// decoder's job (wire.DecodeRegion).
func ReadRegion(dir string, id uint64) ([]byte, error) {
	return os.ReadFile(RegionPath(dir, id))
}

// RemoveRegion deletes a region file after a successful reload. Best
// effort: a leftover file only wastes disk, and recovery trusts the
// WAL's evicted-region set over the directory contents.
func RemoveRegion(dir string, id uint64) {
	os.Remove(RegionPath(dir, id))
}

// ListRegions returns the region ids with files on disk, ascending.
func ListRegions(dir string) ([]uint64, error) {
	return listSeqFiles(dir, "region-", ".rgn")
}

// ---- journal records ----

// RegionEvicted journals a cold-region eviction boundary: the region
// file id plus the erased entity ids. The erases themselves flow
// through the observer as their own records (so replay compacts the
// map identically); this record is what lets recovery rebuild the
// lifecycle manager's evicted-region set and serve reloads after a
// restart.
func (j *Journal) RegionEvicted(id uint64, kfIDs, mpIDs []smap.ID) {
	w := codec.Writer{B: make([]byte, 0, 8+4+len(kfIDs)*8+4+len(mpIDs)*8)}
	w.U64(id)
	w.U32(uint32(len(kfIDs)))
	for _, kf := range kfIDs {
		w.U64(kf)
	}
	w.U32(uint32(len(mpIDs)))
	for _, mp := range mpIDs {
		w.U64(mp)
	}
	j.append(opEvictRegion, w.B)
}

// RegionReloaded journals that a region returned to memory; the
// re-inserted entities follow as their own records.
func (j *Journal) RegionReloaded(id uint64) {
	j.appendIDs(opReloadRegion, id)
}
