package protocol

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"slamshare/internal/geom"
	"slamshare/internal/imu"
)

func pose(x, y, z float64) geom.SE3 {
	return geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: x, Y: y, Z: z}}
}

func TestShardHelloRoundTrip(t *testing.T) {
	for _, m := range []*ShardHelloMsg{
		{Role: ShardRoleFront, SenderID: 0, Token: 0},
		{Role: ShardRolePeer, SenderID: 3, Token: 0xDEADBEEFCAFEF00D},
		{Role: ShardRoleAdmin, SenderID: ^uint32(0), Token: ^uint64(0)},
	} {
		got, err := DecodeShardHelloMsg(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if *got != *m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

func TestShardHelloRejects(t *testing.T) {
	valid := (&ShardHelloMsg{Role: ShardRolePeer, SenderID: 1, Token: 7}).Encode()
	cases := map[string][]byte{
		"empty":     {},
		"short":     valid[:len(valid)-1],
		"long":      append(append([]byte(nil), valid...), 0),
		"zero role": append([]byte{0}, valid[1:]...),
		"bad role":  append([]byte{9}, valid[1:]...),
	}
	for name, data := range cases {
		if _, err := DecodeShardHelloMsg(data); err == nil {
			t.Errorf("%s: decoder accepted %x", name, data)
		}
	}
	// A device hello payload must never parse as a shard hello, nor a
	// shard hello as a device hello.
	if _, err := DecodeShardHelloMsg(testHello(3).Encode()); err == nil {
		t.Error("device hello payload decoded as shard hello")
	}
	if _, err := DecodeHelloMsg(valid); err == nil {
		t.Error("shard hello payload decoded as device hello")
	}
}

func TestHandoffRoundTrip(t *testing.T) {
	for _, m := range []*HandoffMsg{
		{Phase: HandoffBegin, ClientID: 7, Epoch: 1, FromShard: 0, ToShard: 1},
		{Phase: HandoffAck, ClientID: 7, Epoch: 2, FromShard: 1, ToShard: 0},
		{Phase: HandoffNack, ClientID: 9, Epoch: 3, FromShard: 1, ToShard: 2,
			Reason: "import rolled back: rmse 0.71 over budget"},
		{Phase: HandoffCommit, ClientID: ^uint32(0), Epoch: ^uint64(0), FromShard: 4, ToShard: 5},
		{Phase: HandoffCommitAck, ClientID: 1, Epoch: 10, FromShard: 5, ToShard: 4},
	} {
		got, err := DecodeHandoffMsg(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if *got != *m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

func TestHandoffRejects(t *testing.T) {
	valid := (&HandoffMsg{Phase: HandoffBegin, ClientID: 1, Epoch: 1, ToShard: 1, Reason: "x"}).Encode()
	trailing := append(append([]byte(nil), valid...), 0xAA)
	badPhase := append([]byte(nil), valid...)
	badPhase[0] = 0
	overLen := append([]byte(nil), valid...)
	overLen[21] = 0xFF // reason length claims more bytes than present
	for name, data := range map[string][]byte{
		"empty": {}, "trailing": trailing, "bad phase": badPhase, "over length": overLen,
	} {
		if _, err := DecodeHandoffMsg(data); err == nil {
			t.Errorf("%s: decoder accepted %x", name, data)
		}
	}
	huge := &HandoffMsg{Phase: HandoffNack, ClientID: 1, Epoch: 1,
		Reason: string(make([]byte, maxHandoffReason+1))}
	if _, err := DecodeHandoffMsg(huge.Encode()); err == nil {
		t.Error("oversized reason accepted")
	}
}

func TestBoundaryRegionRoundTrip(t *testing.T) {
	for _, m := range []*BoundaryRegionMsg{
		{ClientID: 1, Epoch: 1, RegionID: 42},
		{ClientID: 2, Epoch: 9, RegionID: 7, Region: []byte("region blob"), Anchors: []byte{1, 2, 3}},
	} {
		got, err := DecodeBoundaryRegionMsg(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ClientID != m.ClientID || got.Epoch != m.Epoch || got.RegionID != m.RegionID ||
			!bytes.Equal(got.Region, m.Region) || !bytes.Equal(got.Anchors, m.Anchors) {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
	valid := (&BoundaryRegionMsg{ClientID: 1, Epoch: 1, RegionID: 1, Region: []byte("r")}).Encode()
	if _, err := DecodeBoundaryRegionMsg(append(valid, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	forged := append([]byte(nil), valid...)
	forged[20] = 0xFF // region length beyond payload
	if _, err := DecodeBoundaryRegionMsg(forged); err == nil {
		t.Error("forged region length accepted")
	}
}

func TestShardControlRoundTrip(t *testing.T) {
	for _, op := range []byte{ShardOpCheck, ShardOpOwnership, ShardOpStats} {
		m := &ShardControlMsg{Op: op, Token: 0x51A87A5E}
		got, err := DecodeShardControlMsg(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if *got != *m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
	// The resume probe carries its ClientID operand; the other ops
	// never grow one (a 13-byte check is rejected below).
	resume := &ShardControlMsg{Op: ShardOpResume, Token: 0x51A87A5E, ClientID: 42}
	got, err := DecodeShardControlMsg(resume.Encode())
	if err != nil {
		t.Fatalf("decode resume: %v", err)
	}
	if *got != *resume {
		t.Fatalf("resume round trip: got %+v want %+v", got, resume)
	}
	valid := (&ShardControlMsg{Op: ShardOpCheck, Token: 1}).Encode()
	for name, data := range map[string][]byte{
		"empty":         {},
		"short":         valid[:len(valid)-1],
		"long":          append(append([]byte(nil), valid...), 0),
		"check with id": append(append([]byte(nil), valid...), 1, 0, 0, 0),
		"zero op":       append([]byte{0}, valid[1:]...),
		"retired op 1":  append([]byte{1}, valid[1:]...),
		"wild op":       append([]byte{200}, valid[1:]...),
		"short resume":  resume.Encode()[:shardControlLen],
	} {
		if _, err := DecodeShardControlMsg(data); err == nil {
			t.Errorf("%s: decoder accepted %x", name, data)
		}
	}
}

func TestShardStatusRoundTrip(t *testing.T) {
	for _, m := range []*ShardStatusMsg{
		{Op: ShardOpCheck, OK: false,
			Violations: []string{"kf 5 binds missing mp 9", "mp 9 orphaned"}},
		{Op: ShardOpOwnership, OK: true,
			KFIDs: []uint64{1, 2, 1 << 40, (3 << 40) | 7},
			Anchors: []AnchorState{
				{ID: 1, Pose: pose(1, 2, 3)},
				{ID: 9, Pose: pose(-4, 0, 120.5)},
			}},
		{Op: ShardOpStats, OK: true,
			Stats: ShardStats{KeyFrames: 100, MapPoints: 9000, Sessions: 4,
				ImportsInFlight: 1, Imports: 3, ImportRollbacks: 1, ImportsStalled: 1}},
		{Op: ShardOpResume, OK: true, ResumeEpoch: 7},
		{Op: ShardOpResume, OK: true}, // unknown client: zero resume section
	} {
		got, err := DecodeShardStatusMsg(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestShardStatusRejects(t *testing.T) {
	valid := (&ShardStatusMsg{Op: ShardOpCheck, OK: true, KFIDs: []uint64{1}}).Encode()
	badOK := append([]byte(nil), valid...)
	badOK[1] = 2
	forgedKF := append([]byte(nil), valid...)
	forgedKF[6] = 0xFF // keyframe count beyond payload
	for name, data := range map[string][]byte{
		"empty":     {},
		"trailing":  append(append([]byte(nil), valid...), 0),
		"bad ok":    badOK,
		"forged kf": forgedKF,
	} {
		if _, err := DecodeShardStatusMsg(data); err == nil {
			t.Errorf("%s: decoder accepted %x", name, data)
		}
	}
}

// TestShardTypesDisjointFromDevice pins the cluster message type values:
// they continue the device sequence and may never collide with it, so a
// front door can pass device traffic through untouched.
func TestShardTypesDisjointFromDevice(t *testing.T) {
	device := []byte{TypeHello, TypeFrame, TypePose, TypeMapUpload, TypeMapPortion, TypeBye, TypeModeSwitch, TypeKeypoint, TypeSessionToken}
	shard := []byte{TypeShardHello, TypeBoundaryRegion, TypeHandoff, TypeShardControl, TypeShardStatus}
	want := []byte{9, 10, 11, 12, 13}
	if !bytes.Equal(shard, want) {
		t.Fatalf("shard type values moved: got %v want %v", shard, want)
	}
	seen := map[byte]bool{}
	for _, v := range append(device, shard...) {
		if seen[v] {
			t.Fatalf("duplicate message type value %d", v)
		}
		seen[v] = true
	}
}

// TestDeviceFramingThroughShardFraming proves the framing layer treats
// device messages and shard messages identically: a pipe carrying an
// interleaved device hello, frame, shard hello, and pose delivers each
// intact — the cluster front door relays device bytes with no
// re-encoding.
func TestDeviceFramingThroughShardFraming(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	hello := testHello(3)
	frame := &FrameMsg{UplinkHeader: UplinkHeader{ClientID: 3, FrameIdx: 1, Stamp: 0.05,
		Delta: imu.FrameDelta{RotDelta: geom.IdentityQuat(), DT: 0.05},
		Prior: pose(1, 2, 3), HasPrior: true}, Video: []byte("payload")}
	shardHello := &ShardHelloMsg{Role: ShardRoleFront, SenderID: 1, Token: 99}
	poseMsg := &PoseMsg{FrameIdx: 1, Pose: pose(1, 2, 3), Tracked: true}

	go func() {
		WriteMessage(a, TypeHello, hello.Encode())
		WriteMessage(a, TypeFrame, frame.Encode())
		WriteMessage(a, TypeShardHello, shardHello.Encode())
		WriteMessage(a, TypePose, poseMsg.Encode())
	}()

	for _, want := range []struct {
		mt      byte
		payload []byte
	}{
		{TypeHello, hello.Encode()},
		{TypeFrame, frame.Encode()},
		{TypeShardHello, shardHello.Encode()},
		{TypePose, poseMsg.Encode()},
	} {
		mt, payload, err := ReadMessage(b)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if mt != want.mt || !bytes.Equal(payload, want.payload) {
			t.Fatalf("message %d: got type %d payload %x, want type %d payload %x",
				want.mt, mt, payload, want.mt, want.payload)
		}
	}
}

func FuzzDecodeShardHello(f *testing.F) {
	for _, m := range []*ShardHelloMsg{
		{Role: ShardRoleFront, SenderID: 1, Token: 7},
		{Role: ShardRolePeer, SenderID: 2, Token: ^uint64(0)},
		{Role: ShardRoleAdmin, SenderID: 0, Token: 0},
	} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShardHelloMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

func FuzzDecodeBoundaryRegion(f *testing.F) {
	for _, m := range []*BoundaryRegionMsg{
		{ClientID: 1, Epoch: 1, RegionID: 1},
		{ClientID: 2, Epoch: 5, RegionID: 9, Region: []byte("SLRG fake"), Anchors: []byte{0, 1}},
	} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBoundaryRegionMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if len(m.Region)+len(m.Anchors) > len(data) {
			t.Fatalf("decoded %d blob bytes from a %d-byte message",
				len(m.Region)+len(m.Anchors), len(data))
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

func FuzzDecodeHandoffMsg(f *testing.F) {
	for _, m := range []*HandoffMsg{
		{Phase: HandoffBegin, ClientID: 1, Epoch: 1, ToShard: 1},
		{Phase: HandoffNack, ClientID: 2, Epoch: 3, FromShard: 1, Reason: "no"},
		{Phase: HandoffCommitAck, ClientID: 3, Epoch: 9, FromShard: 0, ToShard: 1},
	} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(append(append([]byte(nil), data...), 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeHandoffMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

func FuzzDecodeShardControlMsg(f *testing.F) {
	// Op 1, the retired ping, seeds the refusal path.
	for _, op := range []byte{1, ShardOpCheck, ShardOpOwnership, ShardOpStats, ShardOpResume} {
		data := (&ShardControlMsg{Op: op, Token: uint64(op) * 31, ClientID: uint32(op)}).Encode()
		f.Add(data)
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShardControlMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}

func FuzzDecodeShardStatusMsg(f *testing.F) {
	for _, m := range []*ShardStatusMsg{
		{Op: ShardOpCheck, Violations: []string{"v1", "v2"}},
		{Op: ShardOpOwnership, OK: true, KFIDs: []uint64{1, 2, 3},
			Anchors: []AnchorState{{ID: 4, Pose: pose(1, 0, 2)}}},
		{Op: ShardOpStats, OK: true, Stats: ShardStats{KeyFrames: 5, Sessions: 2}},
		{Op: ShardOpResume, OK: true, ResumeEpoch: 2},
		{Op: ShardOpResume, OK: true}, // unknown client
	} {
		data := m.Encode()
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/4] ^= 0xFF
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeShardStatusMsg(data)
		if err != nil {
			if m != nil {
				t.Fatal("non-nil message returned with error")
			}
			return
		}
		if got := m.Encode(); !bytes.Equal(got, data) {
			t.Fatalf("round-trip mismatch: %x -> %x", data, got)
		}
	})
}
