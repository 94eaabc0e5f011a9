package feature

import (
	"errors"
	"fmt"
	"math"

	"slamshare/internal/codec"
)

// The keypoint record carries a keypoint exactly, and only what the
// extractor leaves free: X and Y as its level-grid corner (ToGrid), a
// byte holding the level and a stereo-matched bit, the integer score,
// the raw angle and descriptor, and Right and Depth as raw bits only
// when the keypoint is matched. An unmatched keypoint is one whose
// Right is -1 and Depth +0, the extractor's defaults. The split-mode
// uplink and the map entity codec both write keypoints with it.
const (
	recLevelMask = 0x07 // the level's bits in the level byte
	recMatched   = 0x80 // the stereo-matched bit
	// KeypointRecordBytes is an unmatched keypoint's record: grid x and
	// y, level byte, score, angle, descriptor. A matched one adds
	// KeypointStereoBytes.
	KeypointRecordBytes = 2 + 2 + 1 + 2 + 8 + DescriptorBytes
	KeypointStereoBytes = 8 + 8
)

// unmatched reports whether kp carries the extractor's no-stereo
// defaults bit for bit, and so travels without Right and Depth.
func unmatched(kp *Keypoint) bool {
	return math.Float64bits(kp.Right) == math.Float64bits(-1) && math.Float64bits(kp.Depth) == 0
}

// KeypointRecordLen returns the length of kp's record.
func KeypointRecordLen(kp *Keypoint) int {
	if unmatched(kp) {
		return KeypointRecordBytes
	}
	return KeypointRecordBytes + KeypointStereoBytes
}

// AppendKeypoint appends kp's record to w. Only the extractor makes
// keypoints, so one the record cannot carry exactly — a level past
// LevelScale's pyramid, X or Y off that level's grid, a score that is
// not an integer in [0, 65535] — is a bug, and AppendKeypoint panics
// naming the field.
func AppendKeypoint(w *codec.Writer, kp *Keypoint) {
	scale, ok := LevelScale(kp.Level)
	if !ok {
		panic(fmt.Sprintf("feature: keypoint Level %d is past the pyramid", kp.Level))
	}
	cx, ok := ToGrid(kp.X, scale)
	if !ok {
		panic(fmt.Sprintf("feature: keypoint X %v is off level %d's grid", kp.X, kp.Level))
	}
	cy, ok := ToGrid(kp.Y, scale)
	if !ok {
		panic(fmt.Sprintf("feature: keypoint Y %v is off level %d's grid", kp.Y, kp.Level))
	}
	score := uint16(kp.Score)
	if kp.Score < 0 || kp.Score > math.MaxUint16 || math.Float64bits(float64(score)) != math.Float64bits(kp.Score) {
		panic(fmt.Sprintf("feature: keypoint Score %v is not a u16", kp.Score))
	}
	lb := byte(kp.Level)
	matched := !unmatched(kp)
	if matched {
		lb |= recMatched
	}
	w.U16(uint16(cx))
	w.U16(uint16(cy))
	w.U8(lb)
	w.U16(score)
	w.F64(kp.Angle)
	for _, word := range kp.Desc {
		w.U64(word)
	}
	if matched {
		w.F64(kp.Right)
		w.F64(kp.Depth)
	}
}

// ReadKeypoint reads one record into kp. It is strict — a level past
// the pyramid, unknown bits in the level byte and a matched record
// holding the unmatched defaults are errors — so a record it accepts
// re-encodes to the same bytes. A short record leaves r failed.
func ReadKeypoint(r *codec.Reader, kp *Keypoint) error {
	cx, cy := r.U16(), r.U16()
	lb := r.U8()
	if lb&^(recLevelMask|recMatched) != 0 {
		return fmt.Errorf("unknown level bits %#x", lb)
	}
	kp.Level = int(lb & recLevelMask)
	scale, ok := LevelScale(kp.Level)
	if !ok {
		return fmt.Errorf("level %d is past the pyramid", kp.Level)
	}
	kp.X = FromGrid(int(cx), scale)
	kp.Y = FromGrid(int(cy), scale)
	kp.Score = float64(r.U16())
	kp.Angle = r.F64()
	for j := range kp.Desc {
		kp.Desc[j] = r.U64()
	}
	kp.Right, kp.Depth = -1, 0
	if lb&recMatched != 0 {
		kp.Right = r.F64()
		kp.Depth = r.F64()
		if unmatched(kp) {
			return errors.New("matched record holds no match")
		}
	}
	return nil
}
