// Package protocol frames the client-server messages of both systems:
// SLAM-Share's uplink video frames with IMU deltas and downlink poses
// (§4.1 steps 2 and 4), and the baseline's serialized map exchanges.
// Messages are length-prefixed with a one-byte type over any net.Conn.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/imu"
)

// Message types.
const (
	// TypeHello introduces a client (payload: clientID uint32).
	TypeHello = byte(iota + 1)
	// TypeFrame carries an encoded video frame plus the IMU delta
	// since the previous frame.
	TypeFrame
	// TypePose carries a server-computed pose for a frame index.
	TypePose
	// TypeMapUpload carries a serialized client map (baseline).
	TypeMapUpload
	// TypeMapPortion carries a serialized global-map subset (baseline).
	TypeMapPortion
	// TypeBye closes the session.
	TypeBye
	// TypeModeSwitch carries a server-initiated offload-mode change
	// (full / split / shadow). Only sent to clients that advertised
	// capability bits in their hello; legacy clients never see it.
	TypeModeSwitch
	// TypeKeypoint carries a split-mode uplink frame: client-extracted
	// keypoints + descriptors instead of encoded video. With the
	// sync-only flag set it is a shadow-mode ping (IMU delta only).
	TypeKeypoint
)

// MaxMessageSize bounds a single message (64 MiB fits any map the
// experiments produce).
const MaxMessageSize = 64 << 20

// UplinkWindow is how many uplinks one device session may have
// unanswered at once: the depth of a server's (or front's)
// per-connection inbound queue, and therefore the bound on an open-loop
// client's ledger — a device that keeps within it never blocks the
// socket reader at the other end.
const UplinkWindow = 64

// ErrTooLarge is returned for messages beyond MaxMessageSize.
var ErrTooLarge = errors.New("protocol: message too large")

// WriteMessage frames one message onto w.
func WriteMessage(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxMessageSize {
		return ErrTooLarge
	}
	var hdr [5]byte
	hdr[0] = msgType
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (msgType byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxMessageSize {
		return 0, nil, ErrTooLarge
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// ReadMessageDeadlines reads one framed message from a connection with
// two distinct read deadlines: idle bounds the wait for the message
// header (a healthy session may legitimately pause between frames up
// to this long), while stall bounds the wait for the remainder once
// the header has arrived (a peer that freezes mid-message is stuck,
// not idle). A zero duration disables that deadline. The deadline is
// cleared before returning so later undeadlined reads are unaffected.
func ReadMessageDeadlines(c net.Conn, idle, stall time.Duration) (msgType byte, payload []byte, err error) {
	setDeadline := func(d time.Duration) error {
		if d <= 0 {
			return c.SetReadDeadline(time.Time{})
		}
		return c.SetReadDeadline(time.Now().Add(d))
	}
	if err := setDeadline(idle); err != nil {
		return 0, nil, err
	}
	var hdr [5]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxMessageSize {
		return 0, nil, ErrTooLarge
	}
	if err := setDeadline(stall); err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(c, payload); err != nil {
		return 0, nil, err
	}
	c.SetReadDeadline(time.Time{})
	return hdr[0], payload, nil
}

// Hello capability bits: offload modes the client can run locally. A
// client with no capability bits (including every legacy client) is
// pinned to full offload and never receives a ModeSwitchMsg.
const (
	// CapSplit: the client can extract FAST/ORB keypoints itself and
	// uplink KeypointMsg frames instead of video.
	CapSplit = byte(1 << iota)
	// CapShadow: the client can dead-reckon locally on map-only sync
	// pings when the server cannot afford to track it.
	CapShadow
)

// HelloMsg introduces a client: its ID, camera mode, and optionally
// the rig calibration and QoS/capability block. The legacy 5-byte
// form (ID + mode) is still accepted; without calibration the server
// assumes the EuRoC rig, and without a QoS block the session is
// pinned to full offload.
type HelloMsg struct {
	ClientID uint32
	Mode     camera.Mode
	// HasRig reports whether the calibration fields are meaningful.
	HasRig   bool
	Intr     camera.Intrinsics
	Baseline float64 // metres; 0 for monocular rigs
	// HasQoS reports whether the QoS/capability block is present.
	HasQoS bool
	QoS    byte // 0 headset (highest), 1 handheld, 2 mapping drone
	Caps   byte // CapSplit | CapShadow
}

// Rig materializes the advertised calibration (or the EuRoC default
// for legacy hellos).
func (m *HelloMsg) Rig() camera.Rig {
	intr := m.Intr
	if !m.HasRig {
		intr = camera.EuRoCIntrinsics()
	}
	if m.Mode == camera.Stereo {
		base := m.Baseline
		if !m.HasRig {
			base = 0.11
		}
		return camera.NewStereoRig(intr, base)
	}
	return camera.NewMonoRig(intr)
}

// Hello extension block tags. Blocks are appended after the legacy
// 5-byte prefix in strictly ascending tag order, each optional, so a
// decoder written for tag N keeps parsing hellos that stop before
// tag N+1 and errors loudly on anything it does not know.
const (
	helloBlockRig = 1
	helloBlockQoS = 2
)

// Encode serializes the hello message.
func (m *HelloMsg) Encode() []byte {
	buf := make([]byte, 0, 5+1+6*8+2*4+3)
	buf = binary.LittleEndian.AppendUint32(buf, m.ClientID)
	buf = append(buf, byte(m.Mode))
	if m.HasRig {
		buf = append(buf, helloBlockRig)
		for _, v := range []float64{m.Intr.Fx, m.Intr.Fy, m.Intr.Cx, m.Intr.Cy} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Intr.Width))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Intr.Height))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Baseline))
	}
	if m.HasQoS {
		buf = append(buf, helloBlockQoS, m.QoS, m.Caps)
	}
	return buf
}

// DecodeHelloMsg reverses HelloMsg.Encode, accepting the legacy
// 5-byte form, the calibration-extended form, and the QoS-extended
// form (in any combination, tags ascending).
func DecodeHelloMsg(data []byte) (*HelloMsg, error) {
	r := &byteReader{buf: data}
	m := &HelloMsg{}
	m.ClientID = r.u32()
	m.Mode = camera.Mode(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	if r.off == len(data) {
		return m, nil // legacy hello: no extensions
	}
	flag := r.u8()
	if flag == helloBlockRig {
		m.HasRig = true
		m.Intr.Fx = r.f64()
		m.Intr.Fy = r.f64()
		m.Intr.Cx = r.f64()
		m.Intr.Cy = r.f64()
		m.Intr.Width = int(r.u32())
		m.Intr.Height = int(r.u32())
		m.Baseline = r.f64()
		if r.err != nil {
			return nil, r.err
		}
		if r.off == len(data) {
			return m, nil
		}
		flag = r.u8()
	}
	if flag != helloBlockQoS {
		return nil, fmt.Errorf("protocol: bad hello calibration flag %d", flag)
	}
	m.HasQoS = true
	m.QoS = r.u8()
	m.Caps = r.u8()
	if r.err != nil {
		return nil, r.err
	}
	if m.QoS > 2 {
		return nil, fmt.Errorf("protocol: bad hello qos class %d", m.QoS)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("protocol: %d trailing bytes in hello", len(data)-r.off)
	}
	return m, nil
}

// FrameMsg is the per-frame uplink payload.
type FrameMsg struct {
	ClientID uint32
	FrameIdx uint32
	Stamp    float64
	// Delta is the preintegrated IMU motion since the previous frame.
	Delta imu.FrameDelta
	// Video is the encoded left frame; VideoRight the right eye (may
	// be empty for monocular clients).
	Video      []byte
	VideoRight []byte
	// Prior optionally carries the client's body-to-world pose
	// estimate; the first frame of a session uses it to anchor the
	// server-side map in the client's local frame.
	Prior    geom.SE3
	HasPrior bool
	// SentNanos is the client's wall clock at send time; the server
	// echoes it on the answering PoseMsg so the client can measure
	// round-trip time. RTTNanos is the client's current RTT estimate,
	// fed to the server's offload-mode controller. Both are 0 from
	// legacy clients (the decoder tolerates the missing tail).
	SentNanos uint64
	RTTNanos  uint64
}

// Encode serializes the frame message.
func (m *FrameMsg) Encode() []byte {
	buf := make([]byte, 0, 16+len(m.Video)+len(m.VideoRight)+100)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	u32(m.ClientID)
	u32(m.FrameIdx)
	f64(m.Stamp)
	f64(m.Delta.RotDelta.W)
	f64(m.Delta.RotDelta.X)
	f64(m.Delta.RotDelta.Y)
	f64(m.Delta.RotDelta.Z)
	f64(m.Delta.PosDelta.X)
	f64(m.Delta.PosDelta.Y)
	f64(m.Delta.PosDelta.Z)
	f64(m.Delta.VelDelta.X)
	f64(m.Delta.VelDelta.Y)
	f64(m.Delta.VelDelta.Z)
	f64(m.Delta.DT)
	u32(uint32(len(m.Video)))
	buf = append(buf, m.Video...)
	u32(uint32(len(m.VideoRight)))
	buf = append(buf, m.VideoRight...)
	if m.HasPrior {
		buf = append(buf, 1)
		f64(m.Prior.R.W)
		f64(m.Prior.R.X)
		f64(m.Prior.R.Y)
		f64(m.Prior.R.Z)
		f64(m.Prior.T.X)
		f64(m.Prior.T.Y)
		f64(m.Prior.T.Z)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, m.SentNanos)
	buf = binary.LittleEndian.AppendUint64(buf, m.RTTNanos)
	return buf
}

// DecodeFrameMsg reverses FrameMsg.Encode.
func DecodeFrameMsg(data []byte) (*FrameMsg, error) {
	r := &byteReader{buf: data}
	m := &FrameMsg{}
	m.ClientID = r.u32()
	m.FrameIdx = r.u32()
	m.Stamp = r.f64()
	m.Delta.RotDelta.W = r.f64()
	m.Delta.RotDelta.X = r.f64()
	m.Delta.RotDelta.Y = r.f64()
	m.Delta.RotDelta.Z = r.f64()
	m.Delta.PosDelta.X = r.f64()
	m.Delta.PosDelta.Y = r.f64()
	m.Delta.PosDelta.Z = r.f64()
	m.Delta.VelDelta.X = r.f64()
	m.Delta.VelDelta.Y = r.f64()
	m.Delta.VelDelta.Z = r.f64()
	m.Delta.DT = r.f64()
	m.Video = r.bytes()
	m.VideoRight = r.bytes()
	if flag := r.u8(); flag == 1 {
		m.HasPrior = true
		m.Prior.R.W = r.f64()
		m.Prior.R.X = r.f64()
		m.Prior.R.Y = r.f64()
		m.Prior.R.Z = r.f64()
		m.Prior.T.X = r.f64()
		m.Prior.T.Y = r.f64()
		m.Prior.T.Z = r.f64()
	}
	// Timing tail (absent from legacy senders; decoders have always
	// ignored trailing bytes here, so appending is safe).
	if r.err == nil && len(data)-r.off >= 16 {
		m.SentNanos = r.u64()
		m.RTTNanos = r.u64()
	}
	if r.err != nil {
		return nil, r.err
	}
	return m, nil
}

// PoseMsg is the downlink pose answer: the paper's "small 4x4 matrix".
type PoseMsg struct {
	FrameIdx uint32
	Pose     geom.SE3 // world-to-camera
	Tracked  bool     // false when the server lost tracking that frame
	// Shed marks a frame the overloaded server dropped without
	// processing (process-latest load shedding): the pose fields carry
	// no information and the client should keep dead-reckoning on its
	// IMU (Alg. 1) until the next tracked answer.
	Shed bool
	// HasEcho/EchoNanos return the SentNanos stamp of the uplink frame
	// this pose answers, letting the client measure round-trip time.
	// Only sent to sessions that advertised capability bits, so legacy
	// decoders (which reject unknown lengths) never see it.
	HasEcho   bool
	EchoNanos uint64
	// Token is the front's updated session token (encoded
	// SessionTokenMsg bytes), piggybacked so a CapResume client holds a
	// current token after every answered frame. Only sent to sessions
	// that advertised CapResume, so legacy decoders never see it.
	Token []byte
}

// poseMsgLegacyLen is the pre-Shed encoding: frame index + 4x4 matrix
// + tracked byte. Tails append in ascending flag order: shed is one
// 0x01 flag byte, echo a 0x02 flag byte plus the 8-byte stamp, and a
// session token a 0x03 flag byte plus a length-prefixed blob.
// Non-shed, non-echo, token-less answers keep the legacy form so old
// decoders still parse them.
const poseMsgLegacyLen = 4 + 16*8 + 1

// maxPoseTokenLen bounds the token tail: a full token is well under
// 200 bytes, so anything near the bound is forged.
const maxPoseTokenLen = 4096

// Encode serializes the pose message.
func (m *PoseMsg) Encode() []byte {
	buf := make([]byte, 0, poseMsgLegacyLen+1)
	buf = binary.LittleEndian.AppendUint32(buf, m.FrameIdx)
	mat := m.Pose.Mat4()
	for _, v := range mat {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	if m.Tracked {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	if m.Shed {
		buf = append(buf, 1)
	}
	if m.HasEcho {
		buf = append(buf, 2)
		buf = binary.LittleEndian.AppendUint64(buf, m.EchoNanos)
	}
	if m.Token != nil {
		buf = append(buf, 3)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Token)))
		buf = append(buf, m.Token...)
	}
	return buf
}

// DecodePoseMsg reverses PoseMsg.Encode: the legacy fixed-length body
// followed by optional tails in strictly ascending flag order (1 shed,
// 2 echo + 8-byte stamp, 3 token + length-prefixed blob). Every tail
// must be complete and the final offset exact, so forged or truncated
// tails never parse; the four pre-token forms decode byte-identically
// to the old exact-length decoder.
func DecodePoseMsg(data []byte) (*PoseMsg, error) {
	if len(data) < poseMsgLegacyLen {
		return nil, fmt.Errorf("protocol: bad pose message length %d", len(data))
	}
	m := &PoseMsg{}
	m.FrameIdx = binary.LittleEndian.Uint32(data)
	var mat geom.Mat4
	for i := range mat {
		mat[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[4+8*i:]))
	}
	m.Pose = geom.SE3FromMat4(mat)
	m.Tracked = data[4+16*8] == 1
	off, prev := poseMsgLegacyLen, byte(0)
	for off < len(data) {
		flag := data[off]
		if flag <= prev || flag > 3 {
			return nil, fmt.Errorf("protocol: bad pose tail flag %d", flag)
		}
		prev = flag
		off++
		switch flag {
		case 1:
			m.Shed = true
		case 2:
			if off+8 > len(data) {
				return nil, errors.New("protocol: short pose echo tail")
			}
			m.HasEcho = true
			m.EchoNanos = binary.LittleEndian.Uint64(data[off:])
			off += 8
		case 3:
			if off+4 > len(data) {
				return nil, errors.New("protocol: short pose token tail")
			}
			n := int(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if n < 0 || n > maxPoseTokenLen || off+n > len(data) {
				return nil, fmt.Errorf("protocol: pose token length %d exceeds payload", n)
			}
			m.Token = data[off : off+n : off+n]
			off += n
		}
	}
	return m, nil
}

type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.err = errors.New("protocol: short message")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *byteReader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.err = errors.New("protocol: short message")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *byteReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.err = errors.New("protocol: short message")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *byteReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.err = errors.New("protocol: short message")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *byteReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = errors.New("protocol: short message")
		}
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// KeypointMsg flag bits.
const (
	// KeypointSyncOnly marks a shadow-mode map-sync ping: Kps is empty
	// and the server only integrates the IMU delta into the session's
	// motion model so a later mode upgrade re-enters tracking with a
	// usable prior.
	KeypointSyncOnly = byte(1 << iota)
)

// keypointWireBytes is the serialized size of one keypoint: X, Y,
// level, angle, score, descriptor, right, depth.
const keypointWireBytes = 8 + 8 + 4 + 8 + 8 + feature.DescriptorBytes + 8 + 8

// KeypointMsg is the split-mode uplink frame: the client ran FAST/ORB
// extraction (and stereo matching) itself and ships keypoints +
// descriptors instead of encoded video, skipping the video encode /
// decode stages and the server's extract stage. All float fields are
// raw IEEE-754 bits so a split-mode session tracks bit-identically to
// a full-offload one fed the same pixels.
type KeypointMsg struct {
	ClientID uint32
	FrameIdx uint32
	Stamp    float64
	// Delta is the preintegrated IMU motion since the previous frame.
	Delta imu.FrameDelta
	Flags byte
	// SentNanos / RTTNanos mirror FrameMsg's timing tail.
	SentNanos uint64
	RTTNanos  uint64
	// Kps are the extracted keypoints; Right/Depth are filled when the
	// client stereo-matched them.
	Kps []feature.Keypoint
	// Prior mirrors FrameMsg.Prior.
	Prior    geom.SE3
	HasPrior bool
}

// Encode serializes the keypoint message.
func (m *KeypointMsg) Encode() []byte {
	buf := make([]byte, 0, 4+4+8+11*8+1+16+4+len(m.Kps)*keypointWireBytes+1+7*8)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u32(m.ClientID)
	u32(m.FrameIdx)
	f64(m.Stamp)
	f64(m.Delta.RotDelta.W)
	f64(m.Delta.RotDelta.X)
	f64(m.Delta.RotDelta.Y)
	f64(m.Delta.RotDelta.Z)
	f64(m.Delta.PosDelta.X)
	f64(m.Delta.PosDelta.Y)
	f64(m.Delta.PosDelta.Z)
	f64(m.Delta.VelDelta.X)
	f64(m.Delta.VelDelta.Y)
	f64(m.Delta.VelDelta.Z)
	f64(m.Delta.DT)
	buf = append(buf, m.Flags)
	u64(m.SentNanos)
	u64(m.RTTNanos)
	u32(uint32(len(m.Kps)))
	for i := range m.Kps {
		kp := &m.Kps[i]
		f64(kp.X)
		f64(kp.Y)
		u32(uint32(int32(kp.Level)))
		f64(kp.Angle)
		f64(kp.Score)
		d := kp.Desc.Bytes()
		buf = append(buf, d[:]...)
		f64(kp.Right)
		f64(kp.Depth)
	}
	if m.HasPrior {
		buf = append(buf, 1)
		f64(m.Prior.R.W)
		f64(m.Prior.R.X)
		f64(m.Prior.R.Y)
		f64(m.Prior.R.Z)
		f64(m.Prior.T.X)
		f64(m.Prior.T.Y)
		f64(m.Prior.T.Z)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// DecodeKeypointMsg reverses KeypointMsg.Encode. Unlike FrameMsg this
// is strict: trailing bytes are an error.
func DecodeKeypointMsg(data []byte) (*KeypointMsg, error) {
	r := &byteReader{buf: data}
	m := &KeypointMsg{}
	m.ClientID = r.u32()
	m.FrameIdx = r.u32()
	m.Stamp = r.f64()
	m.Delta.RotDelta.W = r.f64()
	m.Delta.RotDelta.X = r.f64()
	m.Delta.RotDelta.Y = r.f64()
	m.Delta.RotDelta.Z = r.f64()
	m.Delta.PosDelta.X = r.f64()
	m.Delta.PosDelta.Y = r.f64()
	m.Delta.PosDelta.Z = r.f64()
	m.Delta.VelDelta.X = r.f64()
	m.Delta.VelDelta.Y = r.f64()
	m.Delta.VelDelta.Z = r.f64()
	m.Delta.DT = r.f64()
	m.Flags = r.u8()
	m.SentNanos = r.u64()
	m.RTTNanos = r.u64()
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n < 0 || n*keypointWireBytes > len(data)-r.off {
		return nil, fmt.Errorf("protocol: keypoint count %d exceeds payload", n)
	}
	if n > 0 {
		m.Kps = make([]feature.Keypoint, n)
	}
	for i := 0; i < n; i++ {
		kp := &m.Kps[i]
		kp.X = r.f64()
		kp.Y = r.f64()
		kp.Level = int(int32(r.u32()))
		kp.Angle = r.f64()
		kp.Score = r.f64()
		var d [feature.DescriptorBytes]byte
		if r.err == nil && r.off+feature.DescriptorBytes <= len(data) {
			copy(d[:], data[r.off:])
			r.off += feature.DescriptorBytes
		} else if r.err == nil {
			r.err = errors.New("protocol: short message")
		}
		kp.Desc = feature.DescriptorFromBytes(d)
		kp.Right = r.f64()
		kp.Depth = r.f64()
	}
	if flag := r.u8(); flag == 1 {
		m.HasPrior = true
		m.Prior.R.W = r.f64()
		m.Prior.R.X = r.f64()
		m.Prior.R.Y = r.f64()
		m.Prior.R.Z = r.f64()
		m.Prior.T.X = r.f64()
		m.Prior.T.Y = r.f64()
		m.Prior.T.Z = r.f64()
	} else if flag != 0 && r.err == nil {
		return nil, fmt.Errorf("protocol: bad keypoint prior flag %d", flag)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("protocol: %d trailing bytes in keypoint message", len(data)-r.off)
	}
	return m, nil
}

// ModeSwitchMsg is the server-initiated offload-mode change for a
// session: 0 full, 1 split, 2 shadow. Epoch increments on every
// switch so a reordered stale switch can be discarded by the client.
type ModeSwitchMsg struct {
	Mode   byte
	Epoch  uint32
	Reason byte // advisory: 0 policy, 1 server load, 2 RTT
	// SentNanos is the server's wall clock at send time. Mode switches
	// are gated by the policy's hysteresis dwell, but the client's
	// reader can drain several queued downlinks back to back, so only
	// this stamp preserves the true switch spacing for diagnostics.
	// Zero from a server that predates the field.
	SentNanos uint64
}

// modeSwitchLen is the ModeSwitchMsg encoding size without the
// send-timestamp tail (what pre-timestamp servers emit).
const modeSwitchLen = 1 + 4 + 1

// Encode serializes the mode-switch message.
func (m *ModeSwitchMsg) Encode() []byte {
	buf := make([]byte, 0, modeSwitchLen+8)
	buf = append(buf, m.Mode)
	buf = binary.LittleEndian.AppendUint32(buf, m.Epoch)
	buf = append(buf, m.Reason)
	buf = binary.LittleEndian.AppendUint64(buf, m.SentNanos)
	return buf
}

// DecodeModeSwitchMsg reverses ModeSwitchMsg.Encode. The 8-byte
// send-timestamp tail is optional: a legacy 6-byte message decodes
// with SentNanos zero.
func DecodeModeSwitchMsg(data []byte) (*ModeSwitchMsg, error) {
	if len(data) != modeSwitchLen && len(data) != modeSwitchLen+8 {
		return nil, fmt.Errorf("protocol: bad mode switch length %d", len(data))
	}
	m := &ModeSwitchMsg{}
	m.Mode = data[0]
	if m.Mode > 2 {
		return nil, fmt.Errorf("protocol: bad offload mode %d", m.Mode)
	}
	m.Epoch = binary.LittleEndian.Uint32(data[1:])
	m.Reason = data[5]
	if len(data) == modeSwitchLen+8 {
		m.SentNanos = binary.LittleEndian.Uint64(data[6:])
	}
	return m, nil
}
