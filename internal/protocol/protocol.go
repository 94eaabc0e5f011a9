// Package protocol frames the client-server messages of both systems:
// SLAM-Share's uplink video frames with IMU deltas and downlink poses
// (§4.1 steps 2 and 4), and the baseline's serialized map exchanges.
// Messages are length-prefixed with a one-byte type over any net.Conn.
package protocol

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/codec"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/imu"
	"slamshare/internal/offload"
)

// Message types.
const (
	// TypeHello introduces a client (payload: HelloMsg).
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
	// (full / split / shadow). Only sent to clients whose hello names
	// split or shadow among its capability bits.
	TypeModeSwitch
)

// TypeKeypoint carries a split-mode uplink frame: client-extracted
// keypoints + descriptors instead of encoded video. With the sync-only
// flag set it is a shadow-mode ping (IMU delta only). Type 8, which
// carried an older keypoint layout, reads as an unknown message; do not
// reuse it.
const TypeKeypoint = byte(15)

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

// headerLen is the stream framing ahead of every payload: the type
// byte and the payload's u32 length.
const headerLen = 1 + 4

// WriteMessage frames one message onto w.
func WriteMessage(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxMessageSize {
		return ErrTooLarge
	}
	hdr := codec.Writer{B: make([]byte, 0, headerLen)}
	hdr.U8(msgType)
	hdr.U32(uint32(len(payload)))
	if _, err := w.Write(hdr.B); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readHeader reads one message header and returns a payload buffer of
// the announced (bounded) size for the caller to fill.
func readHeader(r io.Reader) (msgType byte, payload []byte, err error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	h := codec.NewReader(hdr[:])
	msgType = h.U8()
	n := h.U32()
	if n > MaxMessageSize {
		return 0, nil, ErrTooLarge
	}
	return msgType, make([]byte, n), nil
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (msgType byte, payload []byte, err error) {
	msgType, payload, err = readHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return msgType, payload, nil
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
	msgType, payload, err = readHeader(c)
	if err != nil {
		return 0, nil, err
	}
	if err := setDeadline(stall); err != nil {
		return 0, nil, err
	}
	if _, err := io.ReadFull(c, payload); err != nil {
		return 0, nil, err
	}
	c.SetReadDeadline(time.Time{})
	return msgType, payload, nil
}

// HelloMsg introduces a client: its ID, camera mode, rig calibration,
// QoS class and capability bits. Every field is on the wire.
type HelloMsg struct {
	ClientID uint32
	Mode     camera.Mode
	// HasRig is not consulted: Encode ignores it. Assigned by the frozen
	// bench/devices.go; delete with the next `benchmark` PR.
	HasRig   bool
	Intr     camera.Intrinsics
	Baseline float64 // metres; 0 for monocular rigs
	QoS      offload.QoS
	Caps     offload.Caps
}

// helloVersion opens every hello. The device protocol's first layouts
// carried no version byte; this is its second.
const helloVersion = 2

// helloLen is the hello's one length: version, client ID, mode, four
// float intrinsics, width, height, baseline, QoS and caps.
const helloLen = 1 + 4 + 1 + 4*8 + 2*4 + 8 + 1 + 1

// Rig materializes the advertised calibration.
func (m *HelloMsg) Rig() camera.Rig {
	if m.Mode == camera.Stereo {
		return camera.NewStereoRig(m.Intr, m.Baseline)
	}
	return camera.NewMonoRig(m.Intr)
}

// Encode serializes the hello message.
func (m *HelloMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, helloLen)}
	w.U8(helloVersion)
	w.U32(m.ClientID)
	w.U8(byte(m.Mode))
	w.F64(m.Intr.Fx)
	w.F64(m.Intr.Fy)
	w.F64(m.Intr.Cx)
	w.F64(m.Intr.Cy)
	w.U32(uint32(m.Intr.Width))
	w.U32(uint32(m.Intr.Height))
	w.F64(m.Baseline)
	w.U8(byte(m.QoS))
	w.U8(byte(m.Caps))
	return w.B
}

// DecodeHelloMsg reverses HelloMsg.Encode. It refuses a foreign
// version, any other length, an unknown QoS class, and a rig no camera
// has (camera.Rig.Validate, which also refuses an unknown camera mode).
func DecodeHelloMsg(data []byte) (*HelloMsg, error) {
	r := codec.NewReader(data)
	if v := r.U8(); v != helloVersion {
		return nil, fmt.Errorf("protocol: hello version %d, want %d", v, helloVersion)
	}
	m := &HelloMsg{}
	m.ClientID = r.U32()
	m.Mode = camera.Mode(r.U8())
	m.Intr.Fx = r.F64()
	m.Intr.Fy = r.F64()
	m.Intr.Cx = r.F64()
	m.Intr.Cy = r.F64()
	m.Intr.Width = int(r.U32())
	m.Intr.Height = int(r.U32())
	m.Baseline = r.F64()
	m.QoS = offload.QoS(r.U8())
	m.Caps = offload.Caps(r.U8())
	switch {
	case !r.Done():
		return nil, fmt.Errorf("protocol: hello is %d bytes, want %d", len(data), helloLen)
	case m.QoS > offload.QoSDrone:
		return nil, fmt.Errorf("protocol: bad hello qos class %d", m.QoS)
	}
	// The baseline is validated as sent, also on a mono rig.
	rig := camera.Rig{Intr: m.Intr, Mode: m.Mode, Baseline: m.Baseline}
	if err := rig.Validate(); err != nil {
		return nil, fmt.Errorf("protocol: bad hello: %w", err)
	}
	return m, nil
}

// UplinkHeader is what every device uplink carries, whichever offload
// mode built it; FrameMsg and KeypointMsg embed it.
type UplinkHeader struct {
	ClientID uint32
	FrameIdx uint32
	Stamp    float64
	// Delta is the preintegrated IMU motion since the previous frame.
	Delta imu.FrameDelta
	// Prior optionally carries the client's body-to-world pose
	// estimate: the first frame of a session uses it to anchor the
	// server-side map in the client's local frame, and a front routes
	// every uplink to the shard owning its position.
	Prior    geom.SE3
	HasPrior bool
	// SentNanos is the client's wall clock at send time; the server
	// echoes it on the answering PoseMsg so the client can measure
	// round-trip time. RTTNanos is the client's current RTT estimate,
	// fed to the server's offload-mode controller. 0 is no value.
	SentNanos uint64
	RTTNanos  uint64
}

// Header returns the header itself: through it both uplink messages
// implement Uplink.
func (h *UplinkHeader) Header() *UplinkHeader { return h }

// Uplink is one device frame message: a FrameMsg (full offload) or a
// KeypointMsg (split offload, or a shadow-mode sync ping).
type Uplink interface {
	Header() *UplinkHeader
	// Type is the message's framing type: TypeFrame or TypeKeypoint.
	Type() byte
	Encode() []byte
}

// DecodeUplink decodes an uplink of framing type mt.
func DecodeUplink(mt byte, payload []byte) (Uplink, error) {
	switch mt {
	case TypeFrame:
		m, err := DecodeFrameMsg(payload)
		if err != nil {
			return nil, err
		}
		return m, nil
	case TypeKeypoint:
		m, err := DecodeKeypointMsg(payload)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("protocol: message type %d is not an uplink", mt)
}

// PeekUplink reads what a router needs of an uplink without decoding
// its payload: the header and, for a FrameMsg, the two encoded eyes,
// aliasing payload. A KeypointMsg is read up to its prior, which
// precedes the keypoints, and no further. It fails where DecodeFrameMsg
// fails and on a keypoint message cut short of its prior.
func PeekUplink(mt byte, payload []byte) (h UplinkHeader, left, right []byte, err error) {
	switch mt {
	case TypeFrame:
		var m FrameMsg
		if err := decodeFrame(payload, &m); err != nil {
			return h, nil, nil, err
		}
		return m.UplinkHeader, m.Video, m.VideoRight, nil
	case TypeKeypoint:
		r := codec.NewReader(payload)
		readUplinkHead(&r, mt, &h)
		if r.Err() != nil {
			return h, nil, nil, errShort
		}
		return h, nil, nil, nil
	}
	return h, nil, nil, fmt.Errorf("protocol: message type %d is not an uplink", mt)
}

// FrameMsg is the full-offload uplink: the encoded stereo video frame.
type FrameMsg struct {
	UplinkHeader
	// Video is the encoded left frame; VideoRight the right eye (may
	// be empty for monocular clients).
	Video      []byte
	VideoRight []byte
}

// errShort reports a message that ends before its fields do, or whose
// counts and lengths claim more than the payload holds.
var errShort = errors.New("protocol: short message")

// writeUplinkHead writes what both uplinks open with: client, frame
// index, stamp, the 11-float IMU delta, a keypoint message's flags
// byte, the timing pair, and the prior — a flag byte, then the 7-float
// pose when the flag is 1.
func writeUplinkHead(w *codec.Writer, mt byte, h *UplinkHeader, flags byte) {
	w.U32(h.ClientID)
	w.U32(h.FrameIdx)
	w.F64(h.Stamp)
	d := &h.Delta
	w.Pose(geom.SE3{R: d.RotDelta, T: d.PosDelta})
	w.Vec3(d.VelDelta)
	w.F64(d.DT)
	if mt == TypeKeypoint {
		w.U8(flags)
	}
	w.U64(h.SentNanos)
	w.U64(h.RTTNanos)
	w.Bool(h.HasPrior)
	if h.HasPrior {
		w.Pose(h.Prior)
	}
}

// readUplinkHead reverses writeUplinkHead and returns the flags and the
// prior's flag byte, which the decoders validate.
func readUplinkHead(r *codec.Reader, mt byte, h *UplinkHeader) (flags, prior byte) {
	h.ClientID = r.U32()
	h.FrameIdx = r.U32()
	h.Stamp = r.F64()
	d := &h.Delta
	p := r.Pose()
	d.RotDelta, d.PosDelta = p.R, p.T
	d.VelDelta = r.Vec3()
	d.DT = r.F64()
	if mt == TypeKeypoint {
		flags = r.U8()
	}
	h.SentNanos = r.U64()
	h.RTTNanos = r.U64()
	if prior = r.U8(); prior == 1 {
		h.HasPrior = true
		h.Prior = r.Pose()
	}
	return flags, prior
}

// uplinkHeadBytes is writeUplinkHead's size for a frame without a
// prior: a keypoint message adds its flags byte, a prior 7 floats.
const uplinkHeadBytes = 4 + 4 + 8 + 11*8 + 8 + 8 + 1

// PeekFrameIdx returns the frame index a payload opens with, for
// routers that forward payloads without decoding them: FrameMsg and
// KeypointMsg open with ClientID then FrameIdx, PoseMsg with FrameIdx.
func PeekFrameIdx(msgType byte, payload []byte) (idx uint32, ok bool) {
	r := codec.NewReader(payload)
	if msgType != TypePose {
		r.U32()
	}
	idx = r.U32()
	return idx, r.Err() == nil
}

// Type returns TypeFrame.
func (m *FrameMsg) Type() byte { return TypeFrame }

// Encode serializes the frame message: the uplink head, then the two
// length-prefixed eyes.
func (m *FrameMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, uplinkHeadBytes+7*8+8+len(m.Video)+len(m.VideoRight))}
	writeUplinkHead(&w, TypeFrame, &m.UplinkHeader, 0)
	w.Bytes(m.Video)
	w.Bytes(m.VideoRight)
	return w.B
}

// DecodeFrameMsg reverses FrameMsg.Encode. The video payloads alias
// data.
func DecodeFrameMsg(data []byte) (*FrameMsg, error) {
	m := &FrameMsg{}
	if err := decodeFrame(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeFrame is strict, like every device decoder: a bad prior flag, a
// short message or trailing bytes are errors, so any frame it accepts
// re-encodes to the same bytes.
func decodeFrame(data []byte, m *FrameMsg) error {
	r := codec.NewReader(data)
	_, prior := readUplinkHead(&r, TypeFrame, &m.UplinkHeader)
	m.Video = r.Bytes(MaxMessageSize)
	m.VideoRight = r.Bytes(MaxMessageSize)
	switch {
	case r.Err() != nil:
		return errShort
	case prior > 1:
		return fmt.Errorf("protocol: bad frame prior flag %d", prior)
	case r.Len() != 0:
		return fmt.Errorf("protocol: %d trailing bytes in frame message", r.Len())
	}
	return nil
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
	// EchoNanos is the SentNanos stamp of the uplink this pose answers,
	// letting the client measure round-trip time.
	EchoNanos uint64
	// Token is the front's session token (encoded SessionTokenMsg
	// bytes), piggybacked on a CapResume client's first pose and on the
	// first after its shard or epoch changed; nil on every other pose.
	Token []byte
}

// PoseMsg flag bits.
const (
	poseTracked = byte(1 << iota)
	poseShed
)

// poseMsgLen is a token-less pose's length: frame index, the 4x4
// matrix, the flags byte, the echo stamp and the token's u32 length.
const poseMsgLen = 4 + 16*8 + 1 + 8 + 4

// maxPoseTokenLen bounds the token: a full token is well under 200
// bytes, so anything near the bound is forged.
const maxPoseTokenLen = 4096

// Encode serializes the pose message.
func (m *PoseMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, poseMsgLen+len(m.Token))}
	w.U32(m.FrameIdx)
	for _, v := range m.Pose.Mat4() {
		w.F64(v)
	}
	var flags byte
	if m.Tracked {
		flags |= poseTracked
	}
	if m.Shed {
		flags |= poseShed
	}
	w.U8(flags)
	w.U64(m.EchoNanos)
	w.Bytes(m.Token)
	return w.B
}

// DecodePoseMsg reverses PoseMsg.Encode. It refuses unknown flag bits,
// a matrix whose bottom row is not (0, 0, 0, 1), a token past
// maxPoseTokenLen and any other length.
func DecodePoseMsg(data []byte) (*PoseMsg, error) {
	r := codec.NewReader(data)
	m := &PoseMsg{FrameIdx: r.U32()}
	var mat geom.Mat4
	for i := range mat {
		mat[i] = r.F64()
	}
	flags := r.U8()
	m.EchoNanos = r.U64()
	if tok := r.Bytes(maxPoseTokenLen); len(tok) > 0 {
		m.Token = tok
	}
	if !r.Done() {
		return nil, fmt.Errorf("protocol: bad pose message length %d", len(data))
	}
	if flags&^(poseTracked|poseShed) != 0 {
		return nil, fmt.Errorf("protocol: bad pose flags %#x", flags)
	}
	if math.Float64bits(mat[12])|math.Float64bits(mat[13])|math.Float64bits(mat[14]) != 0 || mat[15] != 1 {
		return nil, fmt.Errorf("protocol: pose matrix bottom row %v", mat[12:])
	}
	m.Pose = geom.SE3FromMat4(mat)
	m.Tracked = flags&poseTracked != 0
	m.Shed = flags&poseShed != 0
	return m, nil
}

// KeypointMsg flag bits.
const (
	// KeypointSyncOnly marks a shadow-mode map-sync ping: Kps is empty
	// and the server only integrates the IMU delta into the session's
	// motion model so a later mode upgrade re-enters tracking with a
	// usable prior.
	KeypointSyncOnly = byte(1 << iota)
)

// KeypointMsg is the split-mode uplink frame: the client ran FAST/ORB
// extraction (and stereo matching) itself and ships keypoints +
// descriptors instead of encoded video, skipping the video encode /
// decode stages and the server's extract stage. Every keypoint field
// decodes to the bits the client's extractor produced, so a split-mode
// session tracks bit-identically to a full-offload one fed the same
// pixels.
//
// Layout: the uplink head (its flags byte included), then a u32 count
// and one feature.AppendKeypoint record per keypoint.
type KeypointMsg struct {
	UplinkHeader
	Flags byte
	// Kps are the extracted keypoints; Right/Depth are filled when the
	// client stereo-matched them.
	Kps []feature.Keypoint
}

// Type returns TypeKeypoint.
func (m *KeypointMsg) Type() byte { return TypeKeypoint }

// EncodedLen returns len(m.Encode()) without encoding.
func (m *KeypointMsg) EncodedLen() int {
	n := uplinkHeadBytes + 1 + 4
	if m.HasPrior {
		n += 7 * 8
	}
	for i := range m.Kps {
		n += feature.KeypointRecordLen(&m.Kps[i])
	}
	return n
}

// Encode serializes the keypoint message. Like feature.AppendKeypoint
// it panics naming the field of a keypoint the record cannot carry
// exactly.
func (m *KeypointMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, m.EncodedLen())}
	writeUplinkHead(&w, TypeKeypoint, &m.UplinkHeader, m.Flags)
	w.U32(uint32(len(m.Kps)))
	for i := range m.Kps {
		feature.AppendKeypoint(&w, &m.Kps[i])
	}
	return w.B
}

// DecodeKeypointMsg reverses KeypointMsg.Encode. It is strict — a bad
// prior flag, a record feature.ReadKeypoint refuses, a short record or
// trailing bytes are errors — so any message it accepts re-encodes to
// the same bytes.
func DecodeKeypointMsg(data []byte) (*KeypointMsg, error) {
	r := codec.NewReader(data)
	m := &KeypointMsg{}
	flags, prior := readUplinkHead(&r, TypeKeypoint, &m.UplinkHeader)
	m.Flags = flags
	n := r.Count(feature.KeypointRecordBytes)
	if r.Err() != nil {
		return nil, errShort
	}
	if prior > 1 {
		return nil, fmt.Errorf("protocol: bad keypoint prior flag %d", prior)
	}
	if n > 0 {
		m.Kps = make([]feature.Keypoint, n)
	}
	for i := range m.Kps {
		if err := feature.ReadKeypoint(&r, &m.Kps[i]); err != nil {
			return nil, fmt.Errorf("protocol: keypoint %d: %w", i, err)
		}
	}
	if r.Err() != nil {
		return nil, errShort
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in keypoint message", r.Len())
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
	SentNanos uint64
}

// modeSwitchLen is the ModeSwitchMsg's one length.
const modeSwitchLen = 1 + 4 + 1 + 8

// Encode serializes the mode-switch message.
func (m *ModeSwitchMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, modeSwitchLen)}
	w.U8(m.Mode)
	w.U32(m.Epoch)
	w.U8(m.Reason)
	w.U64(m.SentNanos)
	return w.B
}

// DecodeModeSwitchMsg reverses ModeSwitchMsg.Encode.
func DecodeModeSwitchMsg(data []byte) (*ModeSwitchMsg, error) {
	if len(data) != modeSwitchLen {
		return nil, fmt.Errorf("protocol: bad mode switch length %d", len(data))
	}
	r := codec.NewReader(data)
	m := &ModeSwitchMsg{Mode: r.U8(), Epoch: r.U32(), Reason: r.U8(), SentNanos: r.U64()}
	if m.Mode > 2 {
		return nil, fmt.Errorf("protocol: bad offload mode %d", m.Mode)
	}
	return m, nil
}
