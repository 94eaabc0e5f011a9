package protocol

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math"
	"net"
	"os"
	"strings"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/codec"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/imu"
	"slamshare/internal/offload"
)

func TestMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("frame data here")
	if err := WriteMessage(&buf, TypeFrame, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&buf, TypePose, nil); err != nil {
		t.Fatal(err)
	}
	mt, got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != TypeFrame || !bytes.Equal(got, payload) {
		t.Errorf("first message wrong: %d %q", mt, got)
	}
	mt, got, err = ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mt != TypePose || len(got) != 0 {
		t.Errorf("second message wrong: %d %q", mt, got)
	}
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Error("read from empty stream should fail")
	}
}

func TestMessageTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeFrame, make([]byte, MaxMessageSize+1)); err != ErrTooLarge {
		t.Errorf("oversized write: %v", err)
	}
	// Forged oversized header must be rejected on read.
	buf.Write([]byte{TypeFrame, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := ReadMessage(&buf); err != ErrTooLarge {
		t.Errorf("oversized read: %v", err)
	}
}

func TestFrameMsgRoundTrip(t *testing.T) {
	m := &FrameMsg{
		UplinkHeader: UplinkHeader{
			ClientID: 7,
			FrameIdx: 1234,
			Stamp:    41.125,
			Delta: imu.FrameDelta{
				RotDelta: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.01),
				PosDelta: geom.Vec3{X: 0.03, Y: -0.001, Z: 0.002},
				VelDelta: geom.Vec3{X: 0.9},
				DT:       1.0 / 30,
			},
		},
		Video:      []byte{1, 2, 3, 4, 5},
		VideoRight: []byte{9, 8},
	}
	got, err := DecodeFrameMsg(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != 7 || got.FrameIdx != 1234 || got.Stamp != 41.125 {
		t.Errorf("header fields wrong: %+v", got)
	}
	if got.Delta.RotDelta.AngleTo(m.Delta.RotDelta) > 1e-12 {
		t.Error("rotation delta corrupted")
	}
	if got.Delta.PosDelta != m.Delta.PosDelta || got.Delta.DT != m.Delta.DT {
		t.Error("IMU delta corrupted")
	}
	if !bytes.Equal(got.Video, m.Video) || !bytes.Equal(got.VideoRight, m.VideoRight) {
		t.Error("video payload corrupted")
	}
}

func TestFrameMsgMonoEmptyRight(t *testing.T) {
	m := &FrameMsg{Video: []byte{1}, UplinkHeader: UplinkHeader{Delta: imu.FrameDelta{RotDelta: geom.IdentityQuat()}}}
	got, err := DecodeFrameMsg(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VideoRight) != 0 {
		t.Error("mono frame grew a right eye")
	}
}

func TestFrameMsgCorrupt(t *testing.T) {
	m := &FrameMsg{Video: []byte{1, 2, 3}}
	data := m.Encode()
	if _, err := DecodeFrameMsg(data[:10]); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := DecodeFrameMsg(nil); err == nil {
		t.Error("empty frame accepted")
	}
}

func TestPoseMsgRoundTrip(t *testing.T) {
	m := &PoseMsg{
		FrameIdx: 99,
		Pose: geom.SE3{
			R: geom.QuatFromAxisAngle(geom.Vec3{X: 1, Y: -1, Z: 0.5}, 1.1),
			T: geom.Vec3{X: 2, Y: 3, Z: -1},
		},
		Tracked: true,
	}
	got, err := DecodePoseMsg(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameIdx != 99 || !got.Tracked {
		t.Errorf("fields wrong: %+v", got)
	}
	if got.Pose.T.Dist(m.Pose.T) > 1e-9 || got.Pose.R.AngleTo(m.Pose.R) > 1e-9 {
		t.Error("pose corrupted")
	}
	if _, err := DecodePoseMsg([]byte{1, 2}); err == nil {
		t.Error("short pose accepted")
	}
}

func TestPoseMsgShed(t *testing.T) {
	m := &PoseMsg{FrameIdx: 12, Pose: geom.IdentitySE3(), Shed: true}
	data := m.Encode()
	if len(data) != poseMsgLen {
		t.Fatalf("shed pose encodes to %d bytes, want %d", len(data), poseMsgLen)
	}
	got, err := DecodePoseMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shed || got.Tracked || got.FrameIdx != 12 {
		t.Errorf("shed fields wrong: %+v", got)
	}

	// Flag bits other than tracked and shed are refused.
	bad := append([]byte(nil), data...)
	bad[4+16*8] |= 4
	if _, err := DecodePoseMsg(bad); err == nil {
		t.Error("unknown pose flag bit accepted")
	}
}

func TestPoseMsgEcho(t *testing.T) {
	m := &PoseMsg{FrameIdx: 5, Pose: geom.IdentitySE3(), Tracked: true, EchoNanos: 987654321}
	got, err := DecodePoseMsg(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.EchoNanos != 987654321 || got.Shed || !got.Tracked || got.Token != nil {
		t.Errorf("echo fields wrong: %+v", got)
	}

	// Shed and echo share the one layout.
	both := (&PoseMsg{FrameIdx: 6, Pose: geom.IdentitySE3(), Shed: true, EchoNanos: 42}).Encode()
	gb, err := DecodePoseMsg(both)
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Shed || gb.Tracked || gb.EchoNanos != 42 {
		t.Errorf("shed+echo fields wrong: %+v", gb)
	}

	// A matrix whose bottom row is not (0, 0, 0, 1) is refused, -0 too.
	for _, i := range []int{12, 15} {
		bad := append([]byte(nil), both...)
		bad[4+8*i+7] ^= 0x80 // the float's sign bit
		if _, err := DecodePoseMsg(bad); err == nil {
			t.Errorf("pose matrix with element %d's sign flipped accepted", i)
		}
	}
}

// testHello is a valid hello: MH04's stereo rig, QoS 0, no capabilities.
func testHello(id uint32) *HelloMsg {
	return &HelloMsg{ClientID: id, Mode: camera.Stereo, Intr: camera.EuRoCIntrinsics(), Baseline: 0.11}
}

func TestHelloMsgQoS(t *testing.T) {
	m := testHello(21)
	m.QoS, m.Caps = 2, offload.CapSplit|offload.CapShadow
	data := m.Encode()
	if len(data) != helloLen {
		t.Fatalf("hello encodes to %d bytes, want %d", len(data), helloLen)
	}
	got, err := DecodeHelloMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Errorf("hello round trip: %+v, want %+v", got, m)
	}
	if rig := got.Rig(); rig.Mode != camera.Stereo || rig.Intr != m.Intr || rig.Baseline != 0.11 {
		t.Errorf("rig %+v", rig)
	}

	// A foreign version, a trailing byte and an out-of-range class are
	// errors.
	for name, edit := range map[string]func([]byte) []byte{
		"version 1":    func(b []byte) []byte { b[0] = 1; return b },
		"trailing":     func(b []byte) []byte { return append(b, 0) },
		"qos class 3":  func(b []byte) []byte { b[len(b)-2] = 3; return b },
		"camera mode2": func(b []byte) []byte { b[5] = 2; return b },
	} {
		if _, err := DecodeHelloMsg(edit(append([]byte(nil), data...))); err == nil {
			t.Errorf("%s: hello accepted", name)
		}
	}
}

// badRigs are hellos whose calibration no camera has.
func badRigs() map[string]*HelloMsg {
	bad := map[string]func(*HelloMsg){
		"width 0":            func(m *HelloMsg) { m.Intr.Width = 0 },
		"height 0":           func(m *HelloMsg) { m.Intr.Height = 0 },
		"2^31 pixels":        func(m *HelloMsg) { m.Intr.Width, m.Intr.Height = 1<<31, 1<<31 },
		"height past bound":  func(m *HelloMsg) { m.Intr.Height = camera.MaxRigSide + 1 },
		"fx 0":               func(m *HelloMsg) { m.Intr.Fx = 0 },
		"fy negative":        func(m *HelloMsg) { m.Intr.Fy = -458 },
		"fx NaN":             func(m *HelloMsg) { m.Intr.Fx = math.NaN() },
		"fy +Inf":            func(m *HelloMsg) { m.Intr.Fy = math.Inf(1) },
		"cx NaN":             func(m *HelloMsg) { m.Intr.Cx = math.NaN() },
		"cy -Inf":            func(m *HelloMsg) { m.Intr.Cy = math.Inf(-1) },
		"baseline NaN":       func(m *HelloMsg) { m.Baseline = math.NaN() },
		"stereo baseline 0":  func(m *HelloMsg) { m.Baseline = 0 },
		"stereo baseline <0": func(m *HelloMsg) { m.Baseline = -0.11 },
		"mono baseline Inf":  func(m *HelloMsg) { m.Mode, m.Baseline = camera.Mono, math.Inf(1) },
	}
	out := make(map[string]*HelloMsg, len(bad))
	for name, edit := range bad {
		m := testHello(7)
		edit(m)
		out[name] = m
	}
	return out
}

// TestHelloMsgRejectsBadRig: a rig no camera has is a malformed hello,
// and the edge of what is allowed still decodes.
func TestHelloMsgRejectsBadRig(t *testing.T) {
	for name, m := range badRigs() {
		if got, err := DecodeHelloMsg(m.Encode()); err == nil {
			t.Errorf("%s: hello accepted as %+v", name, got)
		}
	}
	edge := testHello(8)
	edge.Intr.Width, edge.Intr.Height, edge.Intr.Cx = camera.MaxRigSide, 1, -3
	mono := testHello(9)
	mono.Mode, mono.Baseline = camera.Mono, 0
	for _, m := range []*HelloMsg{edge, mono} {
		if _, err := DecodeHelloMsg(m.Encode()); err != nil {
			t.Errorf("hello %+v refused: %v", m, err)
		}
	}
}

// TestHelloCapsDistinct pins the one set of hello capability bits: the
// two offload modes and token resume are distinct single bits, and
// every combination survives a hello round trip unchanged.
func TestHelloCapsDistinct(t *testing.T) {
	bits := []offload.Caps{offload.CapSplit, offload.CapShadow, offload.CapResume}
	var seen offload.Caps
	for _, b := range bits {
		if b == 0 || b&(b-1) != 0 || seen&b != 0 {
			t.Fatalf("capability %#x is not a fresh single bit (seen %#x)", b, seen)
		}
		seen |= b
	}
	for caps := offload.Caps(0); caps <= seen; caps++ {
		m := testHello(4)
		m.Caps = caps
		got, err := DecodeHelloMsg(m.Encode())
		if err != nil || got.Caps != caps {
			t.Errorf("caps %#x came back as %+v, %v", caps, got, err)
		}
	}
}

// The level byte of a keypoint record (feature.AppendKeypoint): three
// level bits and the stereo-matched bit.
const (
	kpLevelMask = 0x07
	kpMatched   = 0x80
)

// gridKeypoint is an extractor-shaped keypoint: on corner (cx, cy) of
// level l's grid, with an integer score, stereo-matched when right >= 0.
func gridKeypoint(l, cx, cy int, score float64, right, depth float64) feature.Keypoint {
	s, ok := feature.LevelScale(l)
	if !ok {
		panic("level past the pyramid")
	}
	return feature.Keypoint{X: feature.FromGrid(cx, s), Y: feature.FromGrid(cy, s), Level: l,
		Angle: 0.1*float64(cx) - 1.3, Score: score,
		Desc:  feature.Descriptor{uint64(cx) << 40, uint64(cy), ^uint64(l), 0x9E3779B97F4A7C15 * uint64(cx+cy)},
		Right: right, Depth: depth}
}

// sameKeypoint reports whether two keypoints agree bit for bit.
func sameKeypoint(a, b *feature.Keypoint) bool {
	bits := math.Float64bits
	return bits(a.X) == bits(b.X) && bits(a.Y) == bits(b.Y) && a.Level == b.Level &&
		bits(a.Angle) == bits(b.Angle) && bits(a.Score) == bits(b.Score) && a.Desc == b.Desc &&
		bits(a.Right) == bits(b.Right) && bits(a.Depth) == bits(b.Depth)
}

func TestKeypointMsgRoundTrip(t *testing.T) {
	m := &KeypointMsg{
		UplinkHeader: UplinkHeader{
			ClientID: 3,
			FrameIdx: 17,
			Stamp:    1.25,
			Delta: imu.FrameDelta{
				RotDelta: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, 0.02),
				PosDelta: geom.Vec3{X: 0.05},
				DT:       1.0 / 30,
			},
			SentNanos: 111,
			RTTNanos:  222,
			Prior:     geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{Y: 2}},
			HasPrior:  true,
		},
		Kps: []feature.Keypoint{
			gridKeypoint(3, 31, 64, 55, 28.5, 2.4),
			gridKeypoint(0, 4, 9, 90, -1, 0),
			gridKeypoint(1, 377, 239, 3208, 0, 0),
		},
	}
	data := m.Encode()
	got, err := DecodeKeypointMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientID != 3 || got.FrameIdx != 17 || got.Stamp != 1.25 ||
		got.SentNanos != 111 || got.RTTNanos != 222 || !got.HasPrior {
		t.Errorf("header fields wrong: %+v", got)
	}
	if len(got.Kps) != 3 {
		t.Fatalf("keypoint count %d", len(got.Kps))
	}
	// Keypoints must survive bit-identically: split-mode tracking
	// equivalence depends on it.
	for i := range m.Kps {
		if !sameKeypoint(&got.Kps[i], &m.Kps[i]) {
			t.Errorf("keypoint %d corrupted: %+v != %+v", i, got.Kps[i], m.Kps[i])
		}
	}
	// Two matched records (Right 0 is a match) and one unmatched.
	if want := 182 + 3*feature.KeypointRecordBytes + 2*feature.KeypointStereoBytes; len(data) != want {
		t.Errorf("encoding is %d bytes, want %d", len(data), want)
	}

	// Sync-only ping: the same layout with a count of 0.
	ping := &KeypointMsg{Flags: KeypointSyncOnly, UplinkHeader: UplinkHeader{ClientID: 3, FrameIdx: 18, Stamp: 1.3,
		Delta: imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05}}}
	gp, err := DecodeKeypointMsg(ping.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gp.Flags&KeypointSyncOnly == 0 || len(gp.Kps) != 0 {
		t.Errorf("sync ping fields wrong: %+v", gp)
	}

	for _, km := range []*KeypointMsg{m, ping} {
		if n := len(km.Encode()); km.EncodedLen() != n {
			t.Errorf("EncodedLen() = %d, encoding is %d bytes", km.EncodedLen(), n)
		}
	}
}

// keypointRejects are malformed keypoint messages, each cut or patched
// from a valid one, that the strict decoder must refuse.
func keypointRejects() []struct {
	name string
	data []byte
} {
	m := &KeypointMsg{UplinkHeader: UplinkHeader{ClientID: 5, FrameIdx: 9, Stamp: 0.45,
		Delta:    imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05},
		Prior:    geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 3}},
		HasPrior: true},
		Kps: []feature.Keypoint{gridKeypoint(2, 100, 50, 40, -1, 0), gridKeypoint(1, 7, 8, 61, 12.5, 3.25)}}
	valid := m.Encode()
	recs := (&KeypointMsg{UplinkHeader: m.UplinkHeader}).EncodedLen() // first record
	lvl := recs + 4                                                   // its level byte
	patch := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	// A matched record holding the unmatched defaults: the first
	// record with its matched bit set and (-1, +0) spelled out.
	var stereo codec.Writer
	stereo.F64(-1)
	stereo.F64(0)
	fakeMatch := patch(func(b []byte) []byte {
		b[lvl] |= kpMatched
		end := recs + feature.KeypointRecordBytes
		return append(append(b[:end:end], stereo.B...), valid[end:]...)
	})
	return []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"level past the pyramid", patch(func(b []byte) []byte { b[lvl] = b[lvl]&^kpLevelMask | 4; return b })},
		{"level 7", patch(func(b []byte) []byte { b[lvl] |= kpLevelMask; return b })},
		{"unknown level bits", patch(func(b []byte) []byte { b[lvl] |= 0x10; return b })},
		{"count past the payload", patch(func(b []byte) []byte {
			b[recs-4] = 3 // 2 records hold 110 bytes: 3 × 47 do not fit
			return b
		})},
		{"huge count", patch(func(b []byte) []byte { b[recs-4], b[recs-3], b[recs-2], b[recs-1] = 0xFF, 0xFF, 0xFF, 0x7F; return b })},
		{"short record", valid[:len(valid)-1]},
		{"short head", valid[:recs-1]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"bad prior flag", patch(func(b []byte) []byte { b[uplinkHeadBytes] = 2; return b })},
		{"matched record holds no match", fakeMatch},
	}
}

// TestKeypointMsgRejects: the decoder refuses every malformed form.
func TestKeypointMsgRejects(t *testing.T) {
	for _, c := range keypointRejects() {
		if m, err := DecodeKeypointMsg(c.data); err == nil || m != nil {
			t.Errorf("%s: decoded %+v, %v", c.name, m, err)
		}
	}
}

// TestKeypointMsgEncodePanics: a keypoint the record cannot carry
// exactly is a bug, and Encode names its field.
func TestKeypointMsgEncodePanics(t *testing.T) {
	ok := gridKeypoint(2, 100, 50, 40, -1, 0)
	for _, c := range []struct {
		field string
		mut   func(k *feature.Keypoint)
	}{
		{"Level", func(k *feature.Keypoint) { k.Level = -1 }},
		{"Level", func(k *feature.Keypoint) { k.Level = 4 }},
		{"X", func(k *feature.Keypoint) { k.X = 10.5 }},
		{"X", func(k *feature.Keypoint) { k.X = -1 }},
		{"X", func(k *feature.Keypoint) { k.X = 94370 }},
		{"Y", func(k *feature.Keypoint) { k.Y = math.Nextafter(k.Y, 0) }},
		{"Y", func(k *feature.Keypoint) { k.Y = math.Inf(1) }},
		{"Score", func(k *feature.Keypoint) { k.Score = 65536 }},
		{"Score", func(k *feature.Keypoint) { k.Score = 1.5 }},
		{"Score", func(k *feature.Keypoint) { k.Score = -1 }},
		{"Score", func(k *feature.Keypoint) { k.Score = math.Copysign(0, -1) }},
		{"Score", func(k *feature.Keypoint) { k.Score = math.NaN() }},
		{"Score", func(k *feature.Keypoint) { k.Score = 1e300 }},
	} {
		kp := ok
		c.mut(&kp)
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "keypoint "+c.field+" ") {
					t.Errorf("%+v: panic %q does not name %s", kp, r, c.field)
				}
			}()
			(&KeypointMsg{Kps: []feature.Keypoint{ok, kp}}).Encode()
		}()
	}
}

// TestUplinkAllocs: a router's peek at a keypoint frame allocates
// nothing, and a full decode only the message and its keypoint slice.
func TestUplinkAllocs(t *testing.T) {
	m := &KeypointMsg{UplinkHeader: UplinkHeader{ClientID: 1, FrameIdx: 2,
		Prior: geom.SE3{R: geom.IdentityQuat()}, HasPrior: true}}
	for i := range 1000 {
		right := -1.0
		if i%2 == 0 {
			right = float64(i % 700)
		}
		m.Kps = append(m.Kps, gridKeypoint(i%4, i%600, i%400, float64(i), right, 0.5))
	}
	data := m.Encode()
	if n := testing.AllocsPerRun(20, func() {
		if _, _, _, err := PeekUplink(TypeKeypoint, data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PeekUplink on a keypoint frame: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeKeypointMsg(data); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("DecodeKeypointMsg: %v allocs, want <= 2", n)
	}
}

// TestPeekUplink: the router's peek reads the same header the decoders
// do, and a frame's eyes as sent, from both uplink messages.
func TestPeekUplink(t *testing.T) {
	head := UplinkHeader{ClientID: 4, FrameIdx: 21, Stamp: 0.7,
		Delta:     imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05},
		Prior:     geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 125}},
		HasPrior:  true,
		SentNanos: 5, RTTNanos: 6}
	kps := make([]feature.Keypoint, 3)
	// The keypoint message's prior ends where its count begins.
	priorEnd := (&KeypointMsg{UplinkHeader: head}).EncodedLen() - 4
	for _, c := range []struct {
		m   Uplink
		cut int // a length that ends inside the prior
	}{
		{&FrameMsg{UplinkHeader: head, Video: []byte{1, 2}, VideoRight: []byte{3}}, uplinkHeadBytes + 20},
		{&KeypointMsg{UplinkHeader: head, Kps: kps}, priorEnd - 1},
		{&KeypointMsg{UplinkHeader: head, Flags: KeypointSyncOnly}, priorEnd - 1},
	} {
		m := c.m
		data := m.Encode()
		h, left, right, err := PeekUplink(m.Type(), data)
		if err != nil || h != head {
			t.Errorf("type %d: peek = %+v, %v; want %+v", m.Type(), h, err, head)
		}
		if fm, ok := m.(*FrameMsg); ok && (string(left) != string(fm.Video) || string(right) != string(fm.VideoRight)) {
			t.Errorf("frame eyes peeked as %v / %v", left, right)
		}
		if _, _, _, err := PeekUplink(m.Type(), data[:c.cut]); err == nil {
			t.Errorf("type %d: uplink cut inside its prior peeked", m.Type())
		}
		got, err := DecodeUplink(m.Type(), data)
		if err != nil || *got.Header() != head {
			t.Errorf("type %d: decoded header %+v, %v", m.Type(), got, err)
		}
	}
	// The prior precedes the keypoints: a peek stops there.
	km := &KeypointMsg{UplinkHeader: head, Kps: kps}
	if h, _, _, err := PeekUplink(TypeKeypoint, km.Encode()[:priorEnd]); err != nil || h != head {
		t.Errorf("peek of the head and prior alone = %+v, %v", h, err)
	}
	if _, _, _, err := PeekUplink(TypePose, nil); err == nil {
		t.Error("a pose peeked as an uplink")
	}
	if _, _, _, err := PeekUplink(8, km.Encode()); err == nil {
		t.Error("type 8, the retired keypoint layout, peeked as an uplink")
	}
}

func TestModeSwitchMsgRoundTrip(t *testing.T) {
	m := &ModeSwitchMsg{Mode: 2, Epoch: 7, Reason: 1, SentNanos: 12345}
	data := m.Encode()
	got, err := DecodeModeSwitchMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Errorf("round trip: %+v != %+v", got, m)
	}
	if _, err := DecodeModeSwitchMsg(data[:6]); err == nil {
		t.Error("6-byte mode switch without its send stamp accepted")
	}
	data[0] = 3
	if _, err := DecodeModeSwitchMsg(data); err == nil {
		t.Error("out-of-range mode accepted")
	}
}

// TestFrameMsgTimingTail: the timing pair is required and sits next to
// the head, where a keypoint message has it too.
func TestFrameMsgTimingTail(t *testing.T) {
	m := &FrameMsg{Video: []byte{1, 2, 3}, UplinkHeader: UplinkHeader{
		Delta:     imu.FrameDelta{RotDelta: geom.IdentityQuat()},
		SentNanos: 5000, RTTNanos: 6000}}
	data := m.Encode()
	got, err := DecodeFrameMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.SentNanos != 5000 || got.RTTNanos != 6000 {
		t.Errorf("timing pair wrong: %+v", got)
	}
	// The pair ends where the prior flag, the head's last byte, begins.
	r := codec.NewReader(data[uplinkHeadBytes-1-16:])
	if sent, rtt := r.U64(), r.U64(); sent != 5000 || rtt != 6000 {
		t.Errorf("timing pair ahead of the prior flag reads %d, %d", sent, rtt)
	}
	if _, err := DecodeFrameMsg(data[:len(data)-16]); err == nil {
		t.Error("frame 16 bytes short accepted")
	}
}

func TestFramingOverSocket(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	m := &FrameMsg{Video: bytes.Repeat([]byte{0xAB}, 10000),
		UplinkHeader: UplinkHeader{ClientID: 1, Delta: imu.FrameDelta{RotDelta: geom.IdentityQuat()}}}
	go func() {
		WriteMessage(a, TypeFrame, m.Encode())
	}()
	mt, payload, err := ReadMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if mt != TypeFrame {
		t.Fatalf("type = %d", mt)
	}
	got, err := DecodeFrameMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Video) != 10000 {
		t.Errorf("video length %d", len(got.Video))
	}
}

// TestDecodersAreStrict holds every device message to one layout: for
// each hello, frame, keypoint, pose and mode-switch fixture in the
// codec's golden file, the fixture decodes, and every proper prefix of
// it and the fixture plus one byte are refused.
func TestDecodersAreStrict(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"hello":      func(b []byte) error { _, err := DecodeHelloMsg(b); return err },
		"frame":      func(b []byte) error { _, err := DecodeFrameMsg(b); return err },
		"keypoint":   func(b []byte) error { _, err := DecodeKeypointMsg(b); return err },
		"pose":       func(b []byte) error { _, err := DecodePoseMsg(b); return err },
		"modeswitch": func(b []byte) error { _, err := DecodeModeSwitchMsg(b); return err },
	}
	f, err := os.Open("../codec/testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, _ := strings.Cut(sc.Text(), " ")
		msg, _, _ := strings.Cut(name, ".")
		decode, ok := decoders[msg]
		if !ok {
			continue
		}
		seen[msg]++
		data, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := decode(data); err != nil {
			t.Errorf("%s: fixture refused: %v", name, err)
		}
		for n := range data {
			if decode(data[:n]) == nil {
				t.Errorf("%s: %d-byte prefix of %d accepted", name, n, len(data))
			}
		}
		if decode(append(data[:len(data):len(data)], 0)) == nil {
			t.Errorf("%s: one extra byte accepted", name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for msg := range decoders {
		if seen[msg] == 0 {
			t.Errorf("no %s fixture in the golden file", msg)
		}
	}
}
