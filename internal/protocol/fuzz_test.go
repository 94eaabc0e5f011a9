package protocol

import (
	"math"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/imu"
	"slamshare/internal/offload"
)

// FuzzDecodeFrameMsg hammers the uplink frame decoder with arbitrary
// bytes: it must return an error or a structurally sound message —
// never panic, and never alias slices beyond the input.
func FuzzDecodeFrameMsg(f *testing.F) {
	// Seed corpus: valid round-trip encodings of varied shapes plus
	// classic corruptions of each.
	seeds := []*FrameMsg{
		{UplinkHeader: UplinkHeader{ClientID: 1, FrameIdx: 0, Stamp: 0.05,
			Delta: imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05}},
			Video: []byte("intra-frame")},
		{UplinkHeader: UplinkHeader{ClientID: 7, FrameIdx: 42, Stamp: 2.1,
			Delta:    imu.FrameDelta{RotDelta: geom.IdentityQuat(), PosDelta: geom.Vec3{X: 0.1}, DT: 0.05},
			Prior:    geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{Z: 1}},
			HasPrior: true},
			Video:      make([]byte, 256),
			VideoRight: make([]byte, 256)},
	}
	for _, m := range seeds {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
		// Absurd video length with no backing bytes.
		off := uplinkHeadBytes
		if m.HasPrior {
			off += 7 * 8
		}
		huge := append([]byte(nil), data[:off+4]...)
		huge[off], huge[off+1], huge[off+2], huge[off+3] = 0xFF, 0xFF, 0xFF, 0x7F
		f.Add(huge)
	}
	f.Add([]byte{})
	f.Add([]byte("not a frame message"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeFrameMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		// Decoded slices alias the input; they can never exceed it.
		if len(m.Video)+len(m.VideoRight) > len(data) {
			t.Fatalf("decoded %d video bytes from a %d-byte message",
				len(m.Video)+len(m.VideoRight), len(data))
		}
		if got := m.Encode(); string(got) != string(data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

// FuzzDecodePoseMsg covers the downlink pose decoder: tracked, shed,
// echoed and tokened answers in the one layout.
func FuzzDecodePoseMsg(f *testing.F) {
	token := (&SessionTokenMsg{ClientID: 4, Shard: 1, Epoch: 3}).Encode()
	seeds := []*PoseMsg{
		{FrameIdx: 0, Pose: geom.IdentitySE3(), Tracked: true},
		{FrameIdx: 99, Pose: geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 1, Y: 2, Z: 3}}},
		{FrameIdx: 7, Pose: geom.IdentitySE3(), Shed: true},
		{FrameIdx: 8, Pose: geom.IdentitySE3(), Tracked: true, EchoNanos: 123456789},
		{FrameIdx: 9, Pose: geom.IdentitySE3(), Shed: true, EchoNanos: ^uint64(0)},
		{FrameIdx: 10, Pose: geom.IdentitySE3(), Tracked: true, Token: token},
		{FrameIdx: 11, Pose: geom.IdentitySE3(), Shed: true, EchoNanos: 5, Token: token},
	}
	for _, m := range seeds {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 0))
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0xFF
		f.Add(flipped)
	}
	f.Add([]byte{})

	// rotationless blanks the matrix's rotation block, the one part of a
	// pose that does not round trip bit for bit: SE3FromMat4 reads it as
	// a quaternion, and a forged block is no rotation.
	rotationless := func(b []byte) string {
		b = append([]byte(nil), b...)
		for row := 0; row < 3; row++ {
			clear(b[4+32*row : 4+32*row+24])
		}
		return string(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodePoseMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if len(m.Token) > len(data) {
			t.Fatalf("decoded %d token bytes from a %d-byte message", len(m.Token), len(data))
		}
		if got := m.Encode(); rotationless(got) != rotationless(data) {
			t.Fatalf("round-trip mismatch outside the rotation: %x -> %x", data, got)
		}
	})
}

// FuzzDecodeSessionToken covers the resumable-session-token decoder:
// the exact 16-byte form, no short or trailing bytes.
func FuzzDecodeSessionToken(f *testing.F) {
	for _, m := range []*SessionTokenMsg{
		{ClientID: 1, Shard: 0, Epoch: 0},
		{ClientID: 9, Shard: 1, Epoch: 12},
	} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 0))
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeSessionTokenMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if got := m.Encode(); string(got) != string(data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

// FuzzDecodeHelloMsg covers the session-opening hello decoder. The
// seeds are valid hellos, classic corruptions of each, and every
// refused rig of TestHelloMsgRejectsBadRig.
func FuzzDecodeHelloMsg(f *testing.F) {
	mono := testHello(9)
	mono.Mode, mono.Baseline = camera.Mono, 0
	adaptive := testHello(5)
	adaptive.QoS, adaptive.Caps = 2, offload.CapSplit|offload.CapShadow|offload.CapResume
	for _, m := range []*HelloMsg{testHello(3), mono, adaptive} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), 0xAB))
	}
	for _, m := range badRigs() {
		f.Add(m.Encode())
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeHelloMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		// Whatever decoded must re-encode to the same bytes (the format
		// has no redundancy).
		if got := m.Encode(); string(got) != string(data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

// FuzzDecodeKeypointMsg covers the split-mode uplink decoder. The
// encoding is canonical and the decoder strict, so any accepted
// message must re-encode byte-exactly; a forged keypoint count must
// never cause a panic or an outsized allocation. The seeds are valid
// messages, classic corruptions of each, and every malformed form
// TestKeypointMsgRejects pins.
func FuzzDecodeKeypointMsg(f *testing.F) {
	kps := []feature.Keypoint{
		gridKeypoint(2, 7, 14, 80, 8.75, 1.2),
		gridKeypoint(0, 99, 1, 40, -1, 0),
		gridKeypoint(3, 0, 277, 65535, math.Inf(-1), math.NaN()),
	}
	seeds := []*KeypointMsg{
		{UplinkHeader: UplinkHeader{ClientID: 1, FrameIdx: 3, Stamp: 0.15,
			Delta:     imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05},
			SentNanos: 1234, RTTNanos: 5678,
			Prior: geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{Z: 1}}, HasPrior: true}, Kps: kps},
		{UplinkHeader: UplinkHeader{ClientID: 2, FrameIdx: 0, Stamp: 0.05,
			Delta: imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05}},
			Flags: KeypointSyncOnly},
	}
	for _, m := range seeds {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), 0))
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)*2/3] ^= 0xFF
		f.Add(flipped)
		// Absurd keypoint count with no backing bytes.
		recs := (&KeypointMsg{UplinkHeader: m.UplinkHeader}).EncodedLen()
		huge := append([]byte(nil), data[:recs]...)
		huge[recs-4], huge[recs-3], huge[recs-2], huge[recs-1] = 0xFF, 0xFF, 0xFF, 0x7F
		f.Add(huge)
	}
	for _, c := range keypointRejects() {
		f.Add(c.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeKeypointMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if len(m.Kps)*feature.KeypointRecordBytes > len(data) {
			t.Fatalf("decoded %d keypoints from a %d-byte message", len(m.Kps), len(data))
		}
		if got := m.Encode(); string(got) != string(data) {
			t.Fatalf("round-trip mismatch: %d -> %d bytes", len(data), len(got))
		}
	})
}

// FuzzKeypointRoundTrip encodes extractor-shaped keypoints — a corner
// of any level's grid, any u16 score, any angle and descriptor, matched
// or not with Right and Depth of any bits — and requires each to decode
// bit for bit, in exactly 47 bytes unmatched and 63 matched.
func FuzzKeypointRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(0), uint16(0), uint64(0), uint64(0), false, uint64(0), uint64(0), true)
	f.Add(uint8(3), uint16(435), uint16(277), uint16(3208), math.Float64bits(-2.5), ^uint64(0), true,
		math.Float64bits(312.75), math.Float64bits(4.125), false)
	f.Add(uint8(1), uint16(65535), uint16(65535), uint16(65535), math.Float64bits(math.NaN()), uint64(1), true,
		math.Float64bits(-1), uint64(0), true) // "matched" with the unmatched defaults
	f.Add(uint8(2), uint16(1), uint16(2), uint16(17), uint64(0x8000000000000000), uint64(7), true,
		math.Float64bits(-1), uint64(0x8000000000000000), false) // Depth -0 is a match
	f.Add(uint8(7), uint16(9), uint16(9), uint16(1), uint64(0x7FF0000000000001), uint64(3), true,
		uint64(0xFFF8000000000001), math.Float64bits(math.Inf(1)), true)

	f.Fuzz(func(t *testing.T, level uint8, cx, cy, score uint16, angle, desc uint64,
		matched bool, right, depth uint64, prior bool) {
		l := int(level) % feature.DefaultConfig().Levels
		s, _ := feature.LevelScale(l)
		kp := feature.Keypoint{X: feature.FromGrid(int(cx), s), Y: feature.FromGrid(int(cy), s), Level: l,
			Angle: math.Float64frombits(angle), Score: float64(score),
			Desc:  feature.Descriptor{desc, ^desc, desc << 3, desc * 0x9E3779B97F4A7C15},
			Right: -1, Depth: 0}
		if matched {
			kp.Right, kp.Depth = math.Float64frombits(right), math.Float64frombits(depth)
		}
		// A second keypoint on the next level's grid, matched the other
		// way, checks that records follow one another exactly.
		other := kp
		other.Level = (l + 1) % feature.DefaultConfig().Levels
		s2, _ := feature.LevelScale(other.Level)
		other.X, other.Y = feature.FromGrid(int(cy), s2), feature.FromGrid(int(cx), s2)
		other.Right, other.Depth = -1, 0
		if !matched {
			other.Right, other.Depth = 1.5, 3
		}
		m := &KeypointMsg{UplinkHeader: UplinkHeader{ClientID: 1, FrameIdx: uint32(cx)}, Kps: []feature.Keypoint{kp, other}}
		head := 126
		if prior {
			m.HasPrior, m.Prior = true, geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: float64(cy)}}
			head += 56
		}
		want := head + 2*47
		for i := range m.Kps {
			if math.Float64bits(m.Kps[i].Right) != math.Float64bits(-1) || math.Float64bits(m.Kps[i].Depth) != 0 {
				want += 16
			}
		}
		data := m.Encode()
		if len(data) != want || m.EncodedLen() != want {
			t.Fatalf("encoding is %d bytes, EncodedLen %d, want %d", len(data), m.EncodedLen(), want)
		}
		got, err := DecodeKeypointMsg(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.UplinkHeader != m.UplinkHeader || len(got.Kps) != 2 {
			t.Fatalf("header or count moved: %+v", got)
		}
		for i := range m.Kps {
			if !sameKeypoint(&got.Kps[i], &m.Kps[i]) {
				t.Fatalf("keypoint %d: %+v decoded as %+v", i, m.Kps[i], got.Kps[i])
			}
		}
	})
}

// FuzzDecodeModeSwitchMsg covers the fixed-size mode-switch decoder:
// any message it accepts re-encodes to the same bytes.
func FuzzDecodeModeSwitchMsg(f *testing.F) {
	for _, m := range []*ModeSwitchMsg{
		{Mode: 0, Epoch: 1},
		{Mode: 2, Epoch: 40, Reason: 1, SentNanos: 1 << 40},
	} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:6])
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 7))
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 0}) // out-of-range mode

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModeSwitchMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if m.Mode > 2 {
			t.Fatalf("decoder accepted offload mode %d", m.Mode)
		}
		if got := m.Encode(); string(got) != string(data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}
