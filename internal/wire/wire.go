// Package wire implements binary serialization of SLAM maps, keyframes,
// map points and evicted regions. It is the cost the baseline pays on
// every merge round (serialize → transfer → deserialize, Table 4 rows
// 2/4/5) and what SLAM-Share's shared-memory design eliminates; it also
// measures the map sizes of Table 1, and provides the per-entity
// encoders the persistence journal (internal/persist) records map
// mutations with.
//
// Every top-level encoding starts with a magic number and a format
// version byte; decoders reject mismatches instead of misparsing stale
// or corrupt checkpoints, and bound every allocation by the bytes
// actually present in the input so corrupt counts can neither panic
// nor over-allocate. A relation (BoW words, covisibility edges,
// observers) is written as stored, by strictly ascending ID, so equal
// maps encode to equal bytes; a decoder rejects one out of order.
package wire

import (
	"errors"
	"fmt"

	"slamshare/internal/bow"
	"slamshare/internal/codec"
	"slamshare/internal/feature"
	"slamshare/internal/smap"
)

// ErrCorrupt is returned when decoding fails.
var ErrCorrupt = errors.New("wire: corrupt map encoding")

// ErrVersion is returned when an encoding carries an unknown format
// version — a stale checkpoint or a newer writer.
var ErrVersion = errors.New("wire: unsupported format version")

// FormatVersion is the version byte every encoding carries after its
// magic number. Bump it whenever the layout changes. Version 2 carries
// every keyframe field exactly: keypoints as feature.AppendKeypoint
// records and BoW weights as float64, where version 1 narrowed both
// to float32.
const FormatVersion = 2

const mapMagic = 0x534C414D // "SLAM"

// Minimum encoded sizes per entity, used to bound allocations against
// the remaining input before trusting a decoded count.
const (
	minKeypointBytes = feature.KeypointRecordBytes + 8
	minKeyFrameBytes = 8 + 4 + 8 + 4 + 7*8 + 3*4
	minMapPointBytes = 8 + 4 + 3*8 + feature.DescriptorBytes + 3*8 + 8 + 4
	minBowBytes      = 4 + 8
	minConnBytes     = 8 + 4
	minObsBytes      = 8 + 4
)

// checkHeader consumes and validates a magic + version header.
func checkHeader(r *codec.Reader, magic uint32) error {
	if r.U32() != magic || r.Err() != nil {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.U8(); r.Err() != nil || v != FormatVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, v, FormatVersion)
	}
	return nil
}

func writeDesc(w *codec.Writer, d feature.Descriptor) {
	for _, word := range d {
		w.U64(word)
	}
}

func readDesc(r *codec.Reader) (d feature.Descriptor) {
	for i := range d {
		d[i] = r.U64()
	}
	return d
}

func appendKeyFrame(w *codec.Writer, kf *smap.KeyFrame) {
	w.U64(kf.ID)
	w.U32(uint32(kf.Client))
	w.F64(kf.Stamp)
	w.U32(uint32(kf.FrameIdx))
	w.Pose(kf.Tcw)
	w.U32(uint32(len(kf.Keypoints)))
	for i := range kf.Keypoints {
		feature.AppendKeypoint(w, &kf.Keypoints[i])
		w.U64(kf.MapPoints[i])
	}
	w.U32(uint32(len(kf.Bow)))
	for _, e := range kf.Bow {
		w.U32(uint32(e.Word))
		w.F64(e.Weight)
	}
	w.U32(uint32(len(kf.Conns)))
	for _, c := range kf.Conns {
		w.U64(c.KF)
		w.U32(uint32(c.Weight))
	}
}

func readKeyFrame(r *codec.Reader) (*smap.KeyFrame, error) {
	kf := &smap.KeyFrame{}
	kf.ID = r.U64()
	kf.Client = int(r.U32())
	kf.Stamp = r.F64()
	kf.FrameIdx = int(r.U32())
	kf.Tcw = r.Pose()
	nkp := r.Count(minKeypointBytes)
	kf.Keypoints = make([]feature.Keypoint, nkp)
	kf.MapPoints = make([]smap.ID, nkp)
	for i := 0; i < nkp; i++ {
		if err := feature.ReadKeypoint(r, &kf.Keypoints[i]); err != nil {
			return nil, fmt.Errorf("%w: keyframe %d keypoint %d: %v", ErrCorrupt, kf.ID, i, err)
		}
		kf.MapPoints[i] = r.U64()
	}
	// Non-nil even with no words: a decoded vector is never recomputed.
	kf.Bow = make(bow.Vec, r.Count(minBowBytes))
	ordered := true
	for i := range kf.Bow {
		kf.Bow[i] = bow.Entry{Word: bow.WordID(r.U32()), Weight: r.F64()}
		ordered = ordered && (i == 0 || kf.Bow[i].Word > kf.Bow[i-1].Word)
	}
	kf.Conns = make([]smap.Conn, r.Count(minConnBytes))
	for i := range kf.Conns {
		kf.Conns[i] = smap.Conn{KF: r.U64(), Weight: int(r.U32())}
		ordered = ordered && (i == 0 || kf.Conns[i].KF > kf.Conns[i-1].KF)
	}
	if r.Err() != nil || !ordered {
		return nil, ErrCorrupt
	}
	return kf, nil
}

func appendMapPoint(w *codec.Writer, mp *smap.MapPoint) {
	w.U64(mp.ID)
	w.U32(uint32(mp.Client))
	w.Vec3(mp.Pos)
	writeDesc(w, mp.Desc)
	w.Vec3(mp.Normal)
	w.U64(mp.RefKF)
	w.U32(uint32(len(mp.Obs)))
	for _, o := range mp.Obs {
		w.U64(o.KF)
		w.U32(uint32(o.Idx))
	}
}

func readMapPoint(r *codec.Reader) (*smap.MapPoint, error) {
	mp := &smap.MapPoint{}
	mp.ID = r.U64()
	mp.Client = int(r.U32())
	mp.Pos = r.Vec3()
	mp.Desc = readDesc(r)
	mp.Normal = r.Vec3()
	mp.RefKF = r.U64()
	mp.Obs = make([]smap.ObsEntry, r.Count(minObsBytes))
	ordered := true
	for i := range mp.Obs {
		mp.Obs[i] = smap.ObsEntry{KF: r.U64(), Idx: int(r.U32())}
		ordered = ordered && (i == 0 || mp.Obs[i].KF > mp.Obs[i-1].KF)
	}
	if r.Err() != nil || !ordered {
		return nil, ErrCorrupt
	}
	return mp, nil
}

// EncodeKeyFrame serializes one keyframe (pose, keypoints with
// descriptors, BoW vector, bindings, covisibility) — a journal record
// payload for the persistence layer.
func EncodeKeyFrame(kf *smap.KeyFrame) []byte {
	w := codec.Writer{B: make([]byte, 0, 256+len(kf.Keypoints)*(minKeypointBytes+feature.KeypointStereoBytes)+len(kf.Bow)*minBowBytes)}
	appendKeyFrame(&w, kf)
	return w.B
}

// DecodeKeyFrame reconstructs a keyframe serialized by EncodeKeyFrame
// and reports the number of bytes consumed.
func DecodeKeyFrame(data []byte) (*smap.KeyFrame, int, error) {
	r := codec.NewReader(data)
	kf, err := readKeyFrame(&r)
	if err != nil {
		return nil, 0, err
	}
	return kf, r.Offset(), nil
}

// EncodeMapPoint serializes one map point.
func EncodeMapPoint(mp *smap.MapPoint) []byte {
	w := codec.Writer{B: make([]byte, 0, minMapPointBytes+len(mp.Obs)*minObsBytes)}
	appendMapPoint(&w, mp)
	return w.B
}

// DecodeMapPoint reconstructs a map point serialized by EncodeMapPoint
// and reports the number of bytes consumed.
func DecodeMapPoint(data []byte) (*smap.MapPoint, int, error) {
	r := codec.NewReader(data)
	mp, err := readMapPoint(&r)
	if err != nil {
		return nil, 0, err
	}
	return mp, r.Offset(), nil
}

// appendEntities writes the two counted entity lists every container
// (whole map, evicted region) carries after its header. The entities
// are detached: a snapshot's copies or an evicted region's.
func appendEntities(w *codec.Writer, kfs []*smap.KeyFrame, mps []*smap.MapPoint) {
	w.U32(uint32(len(kfs)))
	for _, kf := range kfs {
		appendKeyFrame(w, kf)
	}
	w.U32(uint32(len(mps)))
	for _, mp := range mps {
		appendMapPoint(w, mp)
	}
}

// readEntities reverses appendEntities, handing each entity to the
// caller as it is decoded.
func readEntities(r *codec.Reader, addKF func(*smap.KeyFrame), addMP func(*smap.MapPoint)) error {
	nkf := r.Count(minKeyFrameBytes)
	for k := 0; k < nkf; k++ {
		kf, err := readKeyFrame(r)
		if err != nil {
			return err
		}
		addKF(kf)
	}
	nmp := r.Count(minMapPointBytes)
	for k := 0; k < nmp; k++ {
		mp, err := readMapPoint(r)
		if err != nil {
			return err
		}
		addMP(mp)
	}
	if r.Err() != nil {
		return ErrCorrupt
	}
	return nil
}

// EncodeMap serializes a map: keyframes (poses, keypoints with
// descriptors, BoW vectors, bindings, covisibility) and map points
// (positions, descriptors, observations) — everything the baseline
// must ship to the server for merging.
func EncodeMap(m *smap.Map) []byte {
	return EncodeSnapshot(m.Snapshot(nil))
}

// EncodeSnapshot serializes a map snapshot — smap.Map.Snapshot's
// keyframes and map points — in EncodeMap's format.
func EncodeSnapshot(kfs []*smap.KeyFrame, mps []*smap.MapPoint) []byte {
	w := codec.Writer{B: make([]byte, 0, 1<<20)}
	w.U32(mapMagic)
	w.U8(FormatVersion)
	appendEntities(&w, kfs, mps)
	return w.B
}

// DecodeMap reconstructs a map serialized by EncodeMap, using voc for
// the new map's BoW index. It returns an error — never panics, never
// over-allocates — on truncated, corrupt, or version-mismatched input.
func DecodeMap(data []byte, voc *bow.Vocabulary) (*smap.Map, error) {
	r := codec.NewReader(data)
	if err := checkHeader(&r, mapMagic); err != nil {
		return nil, err
	}
	m := smap.NewMap(voc)
	if err := readEntities(&r, m.AddKeyFrame, m.AddMapPoint); err != nil {
		return nil, err
	}
	return m, nil
}

// MapSize returns the serialized size of the map in bytes — the rows
// of Table 1.
func MapSize(m *smap.Map) int { return len(EncodeMap(m)) }
