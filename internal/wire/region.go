package wire

import (
	"fmt"
	"hash/crc32"

	"slamshare/internal/codec"
	"slamshare/internal/smap"
)

// Region checkpoint codec. When the lifecycle manager evicts a cold
// covisibility cluster from the shared map, the cluster's keyframes
// and its cluster-private map points are serialized with the same
// per-entity encoders the journal uses, wrapped in a magic + version
// header and a trailing CRC so a truncated or corrupt evicted-region
// file is rejected on reload (the region is then re-mapped from
// scratch) rather than misparsed.

const regionMagic = 0x534C5247 // "SLRG"

// minRegionBytes is the smallest valid region encoding: header, region
// ID, two zero counts, CRC.
const minRegionBytes = 4 + 1 + 8 + 4 + 4 + 4

// EncodeRegion serializes one evicted region: its identifier, the
// cluster's keyframes, and the map points observed only inside the
// cluster.
func EncodeRegion(id uint64, kfs []*smap.KeyFrame, mps []*smap.MapPoint) []byte {
	w := codec.Writer{B: make([]byte, 0, 1<<16)}
	w.U32(regionMagic)
	w.U8(FormatVersion)
	w.U64(id)
	appendEntities(&w, nil, kfs, mps)
	w.U32(crc32.ChecksumIEEE(w.B))
	return w.B
}

// DecodeRegion reverses EncodeRegion. It returns an error — never
// panics, never over-allocates — on truncated, corrupt, or
// version-mismatched input; every allocation is bounded by the bytes
// actually present.
func DecodeRegion(data []byte) (id uint64, kfs []*smap.KeyFrame, mps []*smap.MapPoint, err error) {
	if len(data) < minRegionBytes {
		return 0, nil, nil, fmt.Errorf("%w: region too short (%d bytes)", ErrCorrupt, len(data))
	}
	body := data[:len(data)-4]
	tail := codec.NewReader(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != tail.U32() {
		return 0, nil, nil, fmt.Errorf("%w: region checksum mismatch", ErrCorrupt)
	}
	r := codec.NewReader(body)
	if err := checkHeader(&r, regionMagic); err != nil {
		return 0, nil, nil, err
	}
	id = r.U64()
	err = readEntities(&r,
		func(kf *smap.KeyFrame) { kfs = append(kfs, kf) },
		func(mp *smap.MapPoint) { mps = append(mps, mp) })
	if err != nil {
		return 0, nil, nil, err
	}
	return id, kfs, mps, nil
}
