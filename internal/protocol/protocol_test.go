package protocol

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"

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
	if len(data) != 4+16*8+2 {
		t.Fatalf("shed pose encodes to %d bytes", len(data))
	}
	got, err := DecodePoseMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Shed || got.Tracked || got.FrameIdx != 12 {
		t.Errorf("shed fields wrong: %+v", got)
	}

	// A non-shed pose keeps the legacy byte layout, and legacy bytes
	// (no shed flag) still decode.
	legacy := (&PoseMsg{FrameIdx: 3, Pose: geom.IdentitySE3(), Tracked: true}).Encode()
	if len(legacy) != 4+16*8+1 {
		t.Fatalf("non-shed pose encodes to %d bytes", len(legacy))
	}
	old, err := DecodePoseMsg(legacy)
	if err != nil {
		t.Fatalf("legacy pose rejected: %v", err)
	}
	if old.Shed || !old.Tracked {
		t.Errorf("legacy fields wrong: %+v", old)
	}

	// A trailing zero flag byte is non-canonical and rejected.
	if _, err := DecodePoseMsg(append(legacy, 0)); err == nil {
		t.Error("non-canonical shed byte accepted")
	}
}

func TestPoseMsgEcho(t *testing.T) {
	m := &PoseMsg{FrameIdx: 5, Pose: geom.IdentitySE3(), Tracked: true,
		HasEcho: true, EchoNanos: 987654321}
	data := m.Encode()
	if len(data) != poseMsgLegacyLen+9 {
		t.Fatalf("echoed pose encodes to %d bytes", len(data))
	}
	got, err := DecodePoseMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasEcho || got.EchoNanos != 987654321 || got.Shed || !got.Tracked {
		t.Errorf("echo fields wrong: %+v", got)
	}

	// Shed + echo stack in canonical order.
	both := (&PoseMsg{FrameIdx: 6, Pose: geom.IdentitySE3(), Shed: true,
		HasEcho: true, EchoNanos: 42}).Encode()
	if len(both) != poseMsgLegacyLen+10 {
		t.Fatalf("shed+echo pose encodes to %d bytes", len(both))
	}
	gb, err := DecodePoseMsg(both)
	if err != nil {
		t.Fatal(err)
	}
	if !gb.Shed || !gb.HasEcho || gb.EchoNanos != 42 {
		t.Errorf("shed+echo fields wrong: %+v", gb)
	}

	// Wrong flag bytes at the extension offsets are rejected.
	bad := append([]byte(nil), data...)
	bad[poseMsgLegacyLen] = 1 // shed flag where echo flag belongs
	if _, err := DecodePoseMsg(bad); err == nil {
		t.Error("echo-length message with shed flag accepted")
	}
}

func TestHelloMsgQoS(t *testing.T) {
	m := &HelloMsg{ClientID: 21, Mode: 1, HasQoS: true, QoS: 2,
		Caps: offload.CapSplit | offload.CapShadow}
	data := m.Encode()
	if len(data) != 5+3 {
		t.Fatalf("qos hello encodes to %d bytes", len(data))
	}
	got, err := DecodeHelloMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasQoS || got.QoS != 2 || got.Caps != offload.CapSplit|offload.CapShadow || got.HasRig {
		t.Errorf("qos fields wrong: %+v", got)
	}

	// The legacy 5-byte form still decodes, pinned to full offload.
	old, err := DecodeHelloMsg(data[:5])
	if err != nil {
		t.Fatalf("legacy hello rejected: %v", err)
	}
	if old.HasQoS || old.Caps != 0 {
		t.Errorf("legacy hello grew a qos block: %+v", old)
	}

	// Rig + QoS blocks stack in canonical (ascending-tag) order.
	rig := &HelloMsg{ClientID: 9, Mode: 1, HasRig: true,
		Intr: m.Intr, Baseline: 0.11, HasQoS: true, QoS: 1, Caps: offload.CapSplit}
	rd, err := DecodeHelloMsg(rig.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !rd.HasRig || !rd.HasQoS || rd.QoS != 1 || rd.Caps != offload.CapSplit || rd.Baseline != 0.11 {
		t.Errorf("rig+qos fields wrong: %+v", rd)
	}

	// Trailing garbage, out-of-range class, and unknown tags are errors.
	if _, err := DecodeHelloMsg(append(m.Encode(), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeHelloMsg(append(data[:5], helloBlockQoS, 3, 0)); err == nil {
		t.Error("qos class 3 accepted")
	}
	if _, err := DecodeHelloMsg(append(data[:5], 9, 0, 0)); err == nil {
		t.Error("unknown extension tag accepted")
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
		got, err := DecodeHelloMsg((&HelloMsg{ClientID: 4, HasQoS: true, Caps: caps}).Encode())
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
		{"bad prior flag", patch(func(b []byte) []byte { b[uplinkHeadBytes+1+16] = 2; return b })},
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
		{&FrameMsg{UplinkHeader: head, Video: []byte{1, 2}, VideoRight: []byte{3}}, -20},
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
		cut := c.cut
		if cut < 0 {
			cut += len(data)
		}
		if _, _, _, err := PeekUplink(m.Type(), data[:cut]); err == nil {
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
	got, err := DecodeModeSwitchMsg(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Errorf("round trip: %+v != %+v", got, m)
	}
	// A legacy 6-byte message (no send-timestamp tail) still decodes.
	legacy, err := DecodeModeSwitchMsg(m.Encode()[:modeSwitchLen])
	if err != nil {
		t.Fatal(err)
	}
	if legacy.SentNanos != 0 || legacy.Epoch != 7 || legacy.Mode != 2 {
		t.Errorf("legacy decode: %+v", legacy)
	}
	if _, err := DecodeModeSwitchMsg([]byte{1, 2}); err == nil {
		t.Error("short mode switch accepted")
	}
	if _, err := DecodeModeSwitchMsg([]byte{3, 0, 0, 0, 0, 0}); err == nil {
		t.Error("out-of-range mode accepted")
	}
}

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
		t.Errorf("timing tail wrong: %+v", got)
	}
	// Legacy frames (no 16-byte tail) still decode with zero timing.
	old, err := DecodeFrameMsg(data[:len(data)-16])
	if err != nil {
		t.Fatalf("legacy frame rejected: %v", err)
	}
	if old.SentNanos != 0 || old.RTTNanos != 0 {
		t.Errorf("legacy frame grew timing: %+v", old)
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
