// Package wire implements binary serialization of SLAM maps, poses and
// frames. It is the cost the baseline pays on every merge round
// (serialize → transfer → deserialize, Table 4 rows 2/4/5) and what
// SLAM-Share's shared-memory design eliminates; it also measures the
// map sizes of Table 1, and provides the per-entity encoders the
// persistence journal (internal/persist) records map mutations with.
//
// Every top-level encoding starts with a magic number and a format
// version byte; decoders reject mismatches instead of misparsing stale
// or corrupt checkpoints, and bound every allocation by the bytes
// actually present in the input so corrupt counts can neither panic
// nor over-allocate.
package wire

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"slamshare/internal/bow"
	"slamshare/internal/codec"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/smap"
)

// ErrCorrupt is returned when decoding fails.
var ErrCorrupt = errors.New("wire: corrupt map encoding")

// ErrVersion is returned when an encoding carries an unknown format
// version — a stale checkpoint or a newer writer.
var ErrVersion = errors.New("wire: unsupported format version")

// FormatVersion is the version byte every encoding carries after its
// magic number. Bump it whenever the layout changes.
const FormatVersion = 1

const (
	mapMagic  = 0x534C414D // "SLAM"
	poseMagic = 0x534C5053 // "SLPS"
)

// Minimum encoded sizes per entity, used to bound allocations against
// the remaining input before trusting a decoded count.
const (
	minKeypointBytes = 7*4 + feature.DescriptorBytes + 8
	minKeyFrameBytes = 8 + 4 + 8 + 4 + 7*8 + 3*4
	minMapPointBytes = 8 + 4 + 3*8 + feature.DescriptorBytes + 3*8 + 8 + 4
	minBowBytes      = 4 + 4
	minConnBytes     = 8 + 4
	minObsBytes      = 8 + 4
)

// keyScratch holds key slices for canonical (sorted-key) map emission,
// reused across entities to keep EncodeMap allocation-flat.
type keyScratch struct {
	u32 []uint32
	u64 []uint64
}

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

func appendKeyFrame(w *codec.Writer, sc *keyScratch, kf *smap.KeyFrame) {
	w.U64(kf.ID)
	w.U32(uint32(kf.Client))
	w.F64(kf.Stamp)
	w.U32(uint32(kf.FrameIdx))
	w.Pose(kf.Tcw)
	w.U32(uint32(len(kf.Keypoints)))
	for i, kp := range kf.Keypoints {
		w.F32(kp.X)
		w.F32(kp.Y)
		w.U32(uint32(kp.Level))
		w.F32(kp.Angle)
		w.F32(kp.Score)
		w.F32(kp.Right)
		w.F32(kp.Depth)
		writeDesc(w, kp.Desc)
		w.U64(kf.MapPoints[i])
	}
	// Map-valued fields are emitted in sorted key order so the same
	// map state always encodes to the same bytes — what lets crash
	// recovery be verified byte-for-byte and checkpoints be diffed.
	words := sc.u32[:0]
	for wid := range kf.Bow {
		words = append(words, uint32(wid))
	}
	slices.Sort(words)
	sc.u32 = words
	w.U32(uint32(len(words)))
	for _, wid := range words {
		w.U32(wid)
		w.F32(kf.Bow[bow.WordID(wid)])
	}
	conns := sc.u64[:0]
	for id := range kf.Conns {
		conns = append(conns, id)
	}
	slices.Sort(conns)
	sc.u64 = conns
	w.U32(uint32(len(conns)))
	for _, id := range conns {
		w.U64(id)
		w.U32(uint32(kf.Conns[id]))
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
		kp := &kf.Keypoints[i]
		kp.X = r.F32()
		kp.Y = r.F32()
		kp.Level = int(r.U32())
		kp.Angle = r.F32()
		kp.Score = r.F32()
		kp.Right = r.F32()
		kp.Depth = r.F32()
		kp.Desc = readDesc(r)
		kf.MapPoints[i] = r.U64()
	}
	nbow := r.Count(minBowBytes)
	kf.Bow = make(bow.Vec, nbow)
	for i := 0; i < nbow; i++ {
		wid := bow.WordID(r.U32())
		kf.Bow[wid] = r.F32()
	}
	nconn := r.Count(minConnBytes)
	kf.Conns = make(map[smap.ID]int, nconn)
	for i := 0; i < nconn; i++ {
		id := r.U64()
		kf.Conns[id] = int(r.U32())
	}
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	return kf, nil
}

func appendMapPoint(w *codec.Writer, sc *keyScratch, mp *smap.MapPoint) {
	w.U64(mp.ID)
	w.U32(uint32(mp.Client))
	w.Vec3(mp.Pos)
	writeDesc(w, mp.Desc)
	w.Vec3(mp.Normal)
	w.U64(mp.RefKF)
	obs := sc.u64[:0]
	for kfID := range mp.Obs {
		obs = append(obs, kfID)
	}
	slices.Sort(obs)
	sc.u64 = obs
	w.U32(uint32(len(obs)))
	for _, kfID := range obs {
		w.U64(kfID)
		w.U32(uint32(mp.Obs[kfID]))
	}
}

func readMapPoint(r *codec.Reader) (*smap.MapPoint, error) {
	mp := &smap.MapPoint{Obs: make(map[smap.ID]int)}
	mp.ID = r.U64()
	mp.Client = int(r.U32())
	mp.Pos = r.Vec3()
	mp.Desc = readDesc(r)
	mp.Normal = r.Vec3()
	mp.RefKF = r.U64()
	nobs := r.Count(minObsBytes)
	for i := 0; i < nobs; i++ {
		kfID := r.U64()
		mp.Obs[kfID] = int(r.U32())
	}
	if r.Err() != nil {
		return nil, ErrCorrupt
	}
	return mp, nil
}

// EncodeKeyFrame serializes one keyframe (pose, keypoints with
// descriptors, BoW vector, bindings, covisibility) — a journal record
// payload for the persistence layer.
func EncodeKeyFrame(kf *smap.KeyFrame) []byte {
	w := codec.Writer{B: make([]byte, 0, 256+len(kf.Keypoints)*(minKeypointBytes+4))}
	appendKeyFrame(&w, &keyScratch{}, kf)
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
	appendMapPoint(&w, &keyScratch{}, mp)
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
// (whole map, evicted region) carries after its header.
func appendEntities(w *codec.Writer, kfs []*smap.KeyFrame, mps []*smap.MapPoint) {
	var sc keyScratch
	w.U32(uint32(len(kfs)))
	for _, kf := range kfs {
		appendKeyFrame(w, &sc, kf)
	}
	w.U32(uint32(len(mps)))
	for _, mp := range mps {
		appendMapPoint(w, &sc, mp)
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
	w := codec.Writer{B: make([]byte, 0, 1<<20)}
	w.U32(mapMagic)
	w.U8(FormatVersion)
	mps := m.MapPoints()
	// KeyFrames() is already deterministic (insertion order); the map
	// points come out of the stripes unordered, so sort them by ID to
	// keep the whole-map encoding canonical.
	slices.SortFunc(mps, func(a, b *smap.MapPoint) int { return cmp.Compare(a.ID, b.ID) })
	appendEntities(&w, m.KeyFrames(), mps)
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

// EncodePose packs the 4x4 homogeneous pose matrix the server returns
// to clients (the paper: "a small 4x4 matrix"), with the frame index
// it answers.
func EncodePose(frameIdx int, pose geom.SE3) []byte {
	w := codec.Writer{B: make([]byte, 0, 4+1+8+16*8)}
	w.U32(poseMagic)
	w.U8(FormatVersion)
	w.U64(uint64(frameIdx))
	for _, v := range pose.Mat4() {
		w.F64(v)
	}
	return w.B
}

// DecodePose reverses EncodePose.
func DecodePose(data []byte) (frameIdx int, pose geom.SE3, err error) {
	r := codec.NewReader(data)
	if err := checkHeader(&r, poseMagic); err != nil {
		return 0, geom.SE3{}, err
	}
	frameIdx = int(r.U64())
	var m geom.Mat4
	for i := range m {
		m[i] = r.F64()
	}
	if r.Err() != nil {
		return 0, geom.SE3{}, ErrCorrupt
	}
	return frameIdx, geom.SE3FromMat4(m), nil
}
