package codec_test

// Golden byte fixtures for every layout built on the codec: the device
// and cluster messages (every legacy and tail form), the map entity
// blobs, the journal records, the checkpoint file and the hologram
// registry. testdata/golden.txt was recorded before the three private
// reader/writer sets were replaced by this package, so a pass means
// the bytes on the wire and on disk did not move. Regenerate with
// `go test ./internal/codec -run Golden -update` only together with a
// format-version bump.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/imu"
	"slamshare/internal/offload"
	"slamshare/internal/persist"
	"slamshare/internal/protocol"
	"slamshare/internal/smap"
	"slamshare/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current encoders")

const goldenPath = "testdata/golden.txt"

// goldenFile is the fixture set: one "name hex" line per layout.
type goldenFile struct {
	t     *testing.T
	bytes map[string][]byte
}

func loadGolden(t *testing.T) *goldenFile {
	g := &goldenFile{t: t, bytes: make(map[string][]byte)}
	f, err := os.Open(goldenPath)
	if err != nil {
		if *update {
			return g
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("bad fixture line %q", sc.Text())
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("fixture %s: %v", name, err)
		}
		g.bytes[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return g
}

// check asserts encoded == fixture (or records it under -update) and
// returns the fixture bytes for the decode half of the test.
func (g *goldenFile) check(name string, encoded []byte) []byte {
	g.t.Helper()
	if *update {
		g.bytes[name] = encoded
		return encoded
	}
	want, ok := g.bytes[name]
	if !ok {
		g.t.Errorf("%s: no fixture recorded", name)
		return encoded
	}
	if !bytes.Equal(encoded, want) {
		g.t.Errorf("%s: encoding moved\n got %x\nwant %x", name, encoded, want)
	}
	return want
}

func (g *goldenFile) save() {
	if !*update {
		return
	}
	names := make([]string, 0, len(g.bytes))
	for n := range g.bytes {
		names = append(names, n)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, n := range names {
		fmt.Fprintf(&buf, "%s %x\n", n, g.bytes[n])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		g.t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		g.t.Fatal(err)
	}
}

// All float values below are exactly representable in float32, so the
// entity codecs' f32 fields survive a round trip bit-for-bit.

var (
	poseA = geom.SE3{R: geom.Quat{W: 0.5, X: -0.5, Y: 0.5, Z: 0.5}, T: geom.Vec3{X: 1.5, Y: -2.25, Z: 3}}
	poseB = geom.SE3{R: geom.Quat{W: 1}, T: geom.Vec3{X: -4, Y: 0.125, Z: 8.5}}
	delta = imu.FrameDelta{
		RotDelta: geom.Quat{W: 0.75, X: 0.25, Y: -0.5, Z: 0.125},
		PosDelta: geom.Vec3{X: 0.5, Y: 0.25, Z: -0.125},
		VelDelta: geom.Vec3{X: -1, Y: 2, Z: 0.0625},
		DT:       0.05,
	}
)

func desc(seed uint64) feature.Descriptor {
	return feature.Descriptor{seed, seed * 0x9E3779B97F4A7C15, ^seed, seed << 17}
}

func keypoint(i int) feature.Keypoint {
	return feature.Keypoint{
		X: 100.5 + float64(i), Y: 200.25 - float64(i), Level: i % 4, Angle: 0.5 * float64(i),
		Score: 40 + float64(i), Desc: desc(uint64(i) + 1), Right: 90.75 + float64(i), Depth: 2.5 * float64(i+1),
	}
}

func keyFrame(id smap.ID, bindings ...smap.ID) *smap.KeyFrame {
	kf := &smap.KeyFrame{
		ID: id, Client: smap.ClientOf(id), Stamp: 1.25 + float64(smap.SeqOf(id)), FrameIdx: int(smap.SeqOf(id)) * 5,
		Tcw:       poseA,
		MapPoints: bindings,
		Bow:       bow.Vec{{Word: 3, Weight: 0.25}, {Word: 7, Weight: 0.5}, {Word: 4000, Weight: 0.125}},
		Conns:     []smap.Conn{{KF: id + 50, Weight: 21}, {KF: id + 100, Weight: 17}},
	}
	for i := range bindings {
		kf.Keypoints = append(kf.Keypoints, keypoint(i))
	}
	return kf
}

// mapPoint builds a fixture point observed by obs, given in ascending
// keyframe ID; no observers decode as an empty, non-nil list.
func mapPoint(id smap.ID, obs ...smap.ObsEntry) *smap.MapPoint {
	return &smap.MapPoint{
		ID: id, Client: smap.ClientOf(id), Pos: geom.Vec3{X: 0.5, Y: -1.5, Z: float64(smap.SeqOf(id))},
		Desc: desc(uint64(id)), Normal: geom.Vec3{X: 0, Y: 0.6, Z: -0.8}, RefKF: 7,
		Obs: append([]smap.ObsEntry{}, obs...),
	}
}

// ob is one fixture observation.
func ob(kf smap.ID, idx int) smap.ObsEntry { return smap.ObsEntry{KF: kf, Idx: idx} }

func id(client, seq uint64) smap.ID { return smap.ID(client<<smap.ClientIDBits | seq) }

func TestGoldenProtocol(t *testing.T) {
	g := loadGolden(t)
	defer g.save()

	type tc struct {
		name string
		enc  func() []byte
		dec  func([]byte) (any, error)
		want any
	}
	intr := camera.Intrinsics{Fx: 458.5, Fy: 457.25, Cx: 376, Cy: 240.5, Width: 752, Height: 480}
	hello := func(rig, qos bool) *protocol.HelloMsg {
		m := &protocol.HelloMsg{ClientID: 0x01020304, Mode: camera.Stereo}
		if rig {
			m.HasRig, m.Intr, m.Baseline = true, intr, 0.11
		}
		if qos {
			m.HasQoS, m.QoS, m.Caps = true, 1, offload.CapSplit|offload.CapResume
		}
		return m
	}
	frame := func(prior, timing bool) *protocol.FrameMsg {
		m := &protocol.FrameMsg{
			UplinkHeader: protocol.UplinkHeader{ClientID: 9, FrameIdx: 0xA0B0C0D0, Stamp: 12.5, Delta: delta},
			Video:        []byte{1, 2, 3, 4, 5}, VideoRight: []byte{0xFE, 0xFF},
		}
		if prior {
			m.HasPrior, m.Prior = true, poseA
		}
		if timing {
			m.SentNanos, m.RTTNanos = 0x1122334455667788, 42_000_000
		}
		return m
	}
	token := &protocol.SessionTokenMsg{
		ClientID: 5, Shard: 1, Epoch: 3, Mode: 1, ModeEpoch: 4, PosX: 119.5,
		Marks: []protocol.ShardMark{{Shard: 0, MaxFrame: 77}, {Shard: 1, MaxFrame: 120}},
	}
	pose := func(shed, echo, tok bool) *protocol.PoseMsg {
		m := &protocol.PoseMsg{FrameIdx: 321, Pose: poseB, Tracked: true, Shed: shed}
		if echo {
			m.HasEcho, m.EchoNanos = true, 0x0102030405060708
		}
		if tok {
			m.Token = token.Encode()
		}
		return m
	}
	kpm := &protocol.KeypointMsg{
		UplinkHeader: protocol.UplinkHeader{ClientID: 2, FrameIdx: 15, Stamp: 0.75, Delta: delta, SentNanos: 11, RTTNanos: 22,
			HasPrior: true, Prior: poseB},
		Kps: []feature.Keypoint{keypoint(0), keypoint(1)},
	}
	syncPing := &protocol.KeypointMsg{
		UplinkHeader: protocol.UplinkHeader{ClientID: 2, FrameIdx: 16, Stamp: 1, Delta: delta},
		Flags:        protocol.KeypointSyncOnly,
	}
	kpm.Kps[1].Level = -1 // the level travels as a signed 32-bit value
	status := &protocol.ShardStatusMsg{
		Op: protocol.ShardOpResume, OK: true, Violations: []string{"kf-binding-dangling 7", "x"},
		KFIDs: []uint64{3, 1 << 40}, Anchors: []protocol.AnchorState{{ID: 9, Pose: poseA}},
		Stats:       protocol.ShardStats{KeyFrames: 1, MapPoints: 2, Sessions: 3, ImportsInFlight: 4, Imports: 5, ImportRollbacks: 6, ImportsStalled: 7},
		ResumeKnown: true, ResumeFrame: 88, ResumeEpoch: 2, ResumeMode: 2,
	}
	// The legacy senders' shorter forms are cut from the current
	// encoding: a tail-less frame stops after the prior flag, a 6-byte
	// mode switch before the send stamp.
	legacyFrame := func() []byte { b := frame(false, false).Encode(); return b[:len(b)-16] }
	modeSwitch := &protocol.ModeSwitchMsg{Mode: 2, Epoch: 6, Reason: 1, SentNanos: 0x0A0B0C0D0E0F1011}

	dHello := func(b []byte) (any, error) { return protocol.DecodeHelloMsg(b) }
	dFrame := func(b []byte) (any, error) { return protocol.DecodeFrameMsg(b) }
	dPose := func(b []byte) (any, error) { return protocol.DecodePoseMsg(b) }
	dMode := func(b []byte) (any, error) { return protocol.DecodeModeSwitchMsg(b) }
	dCtl := func(b []byte) (any, error) { return protocol.DecodeShardControlMsg(b) }
	dHand := func(b []byte) (any, error) { return protocol.DecodeHandoffMsg(b) }

	cases := []tc{
		{"hello.legacy5", hello(false, false).Encode, dHello, hello(false, false)},
		{"hello.rig", hello(true, false).Encode, dHello, hello(true, false)},
		{"hello.qos", hello(false, true).Encode, dHello, hello(false, true)},
		{"hello.rig+qos", hello(true, true).Encode, dHello, hello(true, true)},
		{"frame.notail", legacyFrame, dFrame, frame(false, false)},
		{"frame.timing", frame(false, true).Encode, dFrame, frame(false, true)},
		{"frame.prior", frame(true, true).Encode, dFrame, frame(true, true)},
		{"keypoint", kpm.Encode, func(b []byte) (any, error) { return protocol.DecodeKeypointMsg(b) }, kpm},
		{"keypoint.synconly", syncPing.Encode,
			func(b []byte) (any, error) { return protocol.DecodeKeypointMsg(b) }, syncPing},
		{"pose.legacy133", pose(false, false, false).Encode, dPose, pose(false, false, false)},
		{"pose.shed", pose(true, false, false).Encode, dPose, pose(true, false, false)},
		{"pose.echo", pose(false, true, false).Encode, dPose, pose(false, true, false)},
		{"pose.token", pose(false, false, true).Encode, dPose, pose(false, false, true)},
		{"pose.all", pose(true, true, true).Encode, dPose, pose(true, true, true)},
		{"modeswitch.legacy6", func() []byte { return modeSwitch.Encode()[:6] }, dMode, &protocol.ModeSwitchMsg{Mode: 2, Epoch: 6, Reason: 1}},
		{"modeswitch.stamped14", modeSwitch.Encode, dMode, modeSwitch},
		{"token", token.Encode, func(b []byte) (any, error) { return protocol.DecodeSessionTokenMsg(b) }, token},
		{"shard.hello", (&protocol.ShardHelloMsg{Role: protocol.ShardRolePeer, SenderID: 3, Token: 0xC0FFEE}).Encode,
			func(b []byte) (any, error) { return protocol.DecodeShardHelloMsg(b) },
			&protocol.ShardHelloMsg{Role: protocol.ShardRolePeer, SenderID: 3, Token: 0xC0FFEE}},
		{"shard.handoff", (&protocol.HandoffMsg{Phase: protocol.HandoffNack, ClientID: 4, Epoch: 9, FromShard: 0, ToShard: 1, Reason: "quarantined"}).Encode,
			dHand, &protocol.HandoffMsg{Phase: protocol.HandoffNack, ClientID: 4, Epoch: 9, FromShard: 0, ToShard: 1, Reason: "quarantined"}},
		{"shard.handoff.noreason", (&protocol.HandoffMsg{Phase: protocol.HandoffBegin, ClientID: 4, Epoch: 9, ToShard: 1}).Encode,
			dHand, &protocol.HandoffMsg{Phase: protocol.HandoffBegin, ClientID: 4, Epoch: 9, ToShard: 1}},
		{"shard.boundary", (&protocol.BoundaryRegionMsg{ClientID: 4, Epoch: 9, RegionID: 12, Region: []byte{9, 8, 7}, Anchors: []byte{6}}).Encode,
			func(b []byte) (any, error) { return protocol.DecodeBoundaryRegionMsg(b) },
			&protocol.BoundaryRegionMsg{ClientID: 4, Epoch: 9, RegionID: 12, Region: []byte{9, 8, 7}, Anchors: []byte{6}}},
		{"shard.control9", (&protocol.ShardControlMsg{Op: protocol.ShardOpCheck, Token: 0xC0FFEE}).Encode,
			dCtl, &protocol.ShardControlMsg{Op: protocol.ShardOpCheck, Token: 0xC0FFEE}},
		{"shard.control.resume13", (&protocol.ShardControlMsg{Op: protocol.ShardOpResume, Token: 0xC0FFEE, ClientID: 4}).Encode,
			dCtl, &protocol.ShardControlMsg{Op: protocol.ShardOpResume, Token: 0xC0FFEE, ClientID: 4}},
		{"shard.status", status.Encode, func(b []byte) (any, error) { return protocol.DecodeShardStatusMsg(b) }, status},
	}
	for _, c := range cases {
		fix := g.check(c.name, c.enc())
		got, err := c.dec(fix)
		if err != nil {
			t.Errorf("%s: decode(fixture): %v", c.name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decode(fixture)\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}

	// The stream framing: type byte + little-endian u32 length.
	var stream bytes.Buffer
	if err := protocol.WriteMessage(&stream, protocol.TypePose, []byte{0xAA, 0xBB, 0xCC}); err != nil {
		t.Fatal(err)
	}
	fix := g.check("framing", stream.Bytes())
	mt, payload, err := protocol.ReadMessage(bytes.NewReader(fix))
	if err != nil || mt != protocol.TypePose || !bytes.Equal(payload, []byte{0xAA, 0xBB, 0xCC}) {
		t.Errorf("framing: ReadMessage(fixture) = %d %x %v", mt, payload, err)
	}
}

func TestGoldenWire(t *testing.T) {
	g := loadGolden(t)
	defer g.save()

	kf1 := keyFrame(id(3, 1), id(3, 10), 0, id(3, 11))
	kf2 := keyFrame(id(3, 2), 0, id(3, 10))
	mpA := mapPoint(id(3, 10), ob(kf1.ID, 0), ob(kf2.ID, 1))
	mpB := mapPoint(id(3, 11), ob(kf1.ID, 2))

	fix := g.check("wire.keyframe", wire.EncodeKeyFrame(kf1))
	if kf, n, err := wire.DecodeKeyFrame(fix); err != nil || n != len(fix) || !reflect.DeepEqual(kf, kf1) {
		t.Errorf("wire.keyframe: decode(fixture) = %+v, %d, %v", kf, n, err)
	}
	fix = g.check("wire.mappoint", wire.EncodeMapPoint(mpA))
	if mp, n, err := wire.DecodeMapPoint(fix); err != nil || n != len(fix) || !reflect.DeepEqual(mp, mpA) {
		t.Errorf("wire.mappoint: decode(fixture) = %+v, %d, %v", mp, n, err)
	}

	fix = g.check("wire.region", wire.EncodeRegion(12, []*smap.KeyFrame{kf1, kf2}, []*smap.MapPoint{mpA, mpB}))
	rid, kfs, mps, err := wire.DecodeRegion(fix)
	if err != nil || rid != 12 || !reflect.DeepEqual(kfs, []*smap.KeyFrame{kf1, kf2}) || !reflect.DeepEqual(mps, []*smap.MapPoint{mpA, mpB}) {
		t.Errorf("wire.region: decode(fixture) = %d, %d kfs, %d mps, %v", rid, len(kfs), len(mps), err)
	}

	fix = g.check("wire.map", wire.EncodeMap(goldenMap(kf1, kf2, mpA, mpB)))
	m, err := wire.DecodeMap(fix, nil)
	if err != nil {
		t.Fatalf("wire.map: decode(fixture): %v", err)
	}
	assertGoldenMap(t, "wire.map", m, kf1, kf2, mpA, mpB)
}

// goldenMap inserts private copies, so the fixture entities stay
// pristine for the comparisons that follow.
func goldenMap(kf1, kf2 *smap.KeyFrame, mpA, mpB *smap.MapPoint) *smap.Map {
	m := smap.NewMap(nil)
	for _, kf := range []*smap.KeyFrame{kf1, kf2} {
		c, _, _ := wire.DecodeKeyFrame(wire.EncodeKeyFrame(kf))
		m.AddKeyFrame(c)
	}
	// Inserted out of ID order: the map encoding sorts points.
	for _, mp := range []*smap.MapPoint{mpB, mpA} {
		c, _, _ := wire.DecodeMapPoint(wire.EncodeMapPoint(mp))
		m.AddMapPoint(c)
	}
	return m
}

func assertGoldenMap(t *testing.T, name string, m *smap.Map, kf1, kf2 *smap.KeyFrame, mpA, mpB *smap.MapPoint) {
	t.Helper()
	if got := m.KeyFrames(); !reflect.DeepEqual(got, []*smap.KeyFrame{kf1, kf2}) {
		t.Errorf("%s: keyframes differ: %+v", name, got)
	}
	for _, want := range []*smap.MapPoint{mpA, mpB} {
		if got, ok := m.MapPoint(want.ID); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: map point %d = %+v, want %+v", name, want.ID, got, want)
		}
	}
	if m.NMapPoints() != 2 {
		t.Errorf("%s: %d map points, want 2", name, m.NMapPoints())
	}
}

func goldenAnchors() *holo.Registry {
	reg := holo.NewRegistry()
	reg.Place("obstacle", poseA, 1, 2.5)
	reg.Place("", poseB, 2, 4.75)
	return reg
}

func TestGoldenHolo(t *testing.T) {
	g := loadGolden(t)
	defer g.save()

	reg := goldenAnchors()
	fix := g.check("holo.registry", reg.Encode())
	got, err := holo.Decode(fix)
	if err != nil {
		t.Fatalf("holo.registry: decode(fixture): %v", err)
	}
	if !reflect.DeepEqual(got.All(), reg.All()) {
		t.Errorf("holo.registry: anchors = %+v, want %+v", got.All(), reg.All())
	}
	if next := got.Place("next", poseA, 1, 0); next != 3 {
		t.Errorf("holo.registry: allocator resumed at %d, want 3", next)
	}

	fix = g.check("holo.anchors", holo.EncodeAnchors(reg.All()))
	if list, err := holo.DecodeAnchors(fix); err != nil || !reflect.DeepEqual(list, reg.All()) {
		t.Errorf("holo.anchors: decode(fixture) = %+v, %v", list, err)
	}
}

// TestGoldenJournal freezes the journal file: header, record framing
// (length, CRC, sequence, op) and every op body. The decode half
// replays the fixture and checks each record's effect on the map.
func TestGoldenJournal(t *testing.T) {
	g := loadGolden(t)
	defer g.save()

	dir := t.TempDir()
	live := smap.NewMap(nil)
	mgr, err := persist.Open(persist.Options{Dir: dir, CheckpointEvery: -1}, live, holo.NewRegistry(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	kf1 := keyFrame(id(3, 1), id(3, 10), id(3, 11), 0)
	kf2 := keyFrame(id(4, 1), id(4, 10))
	kf3 := keyFrame(id(4, 2), 0)
	mpA := mapPoint(id(3, 10), ob(kf1.ID, 0))
	mpB := mapPoint(id(3, 11), ob(kf1.ID, 1))
	mpC := mapPoint(id(3, 12))
	mpD := mapPoint(id(4, 10), ob(kf2.ID, 0))
	mpE := mapPoint(id(4, 11))
	newPos := geom.Vec3{X: 9, Y: 8, Z: 7}

	j := mgr.Journal()
	j.MergeApplied(geom.Sim3{S: 1.5, R: poseA.R, T: poseA.T}, 2, 5)
	j.KeyFrameAdded(kf1)
	j.KeyFrameAdded(kf2)
	j.KeyFrameAdded(kf3)
	for _, mp := range []*smap.MapPoint{mpA, mpB, mpC, mpD, mpE} {
		j.MapPointAdded(mp)
	}
	j.ObservationAdded(kf1.ID, mpC.ID, 2)
	j.PointsFused(mpD.ID, mpC.ID)
	j.MapPointErased(mpD.ID)
	j.PosesCorrected(map[smap.ID]geom.SE3{kf1.ID: poseB}, map[smap.ID]geom.Vec3{mpA.ID: newPos})
	j.KeyFrameErased(kf3.ID)
	j.MapPointErased(mpE.ID)
	j.ShardImportBegin(7, 4)
	j.ShardImportEnd(7, true)
	j.RegionEvicted(5, []smap.ID{id(9, 1), id(9, 2)}, []smap.ID{id(9, 10)})
	j.RegionEvicted(6, []smap.ID{id(9, 3)}, nil)
	j.RegionReloaded(6)
	const records = 20
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	walName := "journal-0000000000000000.wal"
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	fix := g.check("persist.journal", wal)

	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, walName), fix, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := persist.Recover(rdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ReplayedRecords != records || rec.LastSeq != records || rec.CheckpointLoaded || rec.ImportRolledBack {
		t.Errorf("replay: %d records, last seq %d, ckpt %v, rolled back %v; want %d records",
			rec.ReplayedRecords, rec.LastSeq, rec.CheckpointLoaded, rec.ImportRolledBack, records)
	}
	m := rec.Map
	if m.NKeyFrames() != 2 || m.NMapPoints() != 3 {
		t.Errorf("replayed map: %d keyframes / %d points, want 2 / 3", m.NKeyFrames(), m.NMapPoints())
	}
	if kf, ok := m.KeyFrame(kf1.ID); !ok || kf.Tcw != poseB || !reflect.DeepEqual(kf.MapPoints, []smap.ID{mpA.ID, mpB.ID, mpC.ID}) ||
		!reflect.DeepEqual(kf.Keypoints, kf1.Keypoints) || !reflect.DeepEqual(kf.Bow, kf1.Bow) {
		t.Errorf("kf1 after replay (pose correction + observation): %+v", kf)
	}
	if kf, ok := m.KeyFrame(kf2.ID); !ok || !reflect.DeepEqual(kf.MapPoints, []smap.ID{mpC.ID}) {
		t.Errorf("kf2 after replay (fuse redirect): %+v", kf)
	}
	if mp, ok := m.MapPoint(mpA.ID); !ok || mp.Pos != newPos || mp.Desc != mpA.Desc || mp.Normal != mpA.Normal {
		t.Errorf("mpA after replay (position correction): %+v", mp)
	}
	if mp, ok := m.MapPoint(mpC.ID); !ok || !reflect.DeepEqual(mp.Obs, []smap.ObsEntry{ob(kf1.ID, 2), ob(kf2.ID, 0)}) {
		t.Errorf("mpC after replay (observation + fuse): %+v", mp)
	}
	if want := map[uint64][]smap.ID{5: {id(9, 1), id(9, 2)}}; !reflect.DeepEqual(rec.EvictedRegions, want) {
		t.Errorf("evicted regions = %v, want %v", rec.EvictedRegions, want)
	}
}

// TestGoldenCheckpoint freezes the checkpoint file: header, the two
// length-prefixed blobs and the trailing CRC.
func TestGoldenCheckpoint(t *testing.T) {
	g := loadGolden(t)
	defer g.save()

	kf1 := keyFrame(id(3, 1), id(3, 10), 0, id(3, 11))
	kf2 := keyFrame(id(3, 2), 0, id(3, 10))
	mpA := mapPoint(id(3, 10), ob(kf1.ID, 0), ob(kf2.ID, 1))
	mpB := mapPoint(id(3, 11), ob(kf1.ID, 2))

	dir := t.TempDir()
	const seq = 40
	mgr, err := persist.Open(persist.Options{Dir: dir, CheckpointEvery: -1}, goldenMap(kf1, kf2, mpA, mpB), goldenAnchors(), seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	ckptName := fmt.Sprintf("checkpoint-%016d.ckpt", seq)
	ckpt, err := os.ReadFile(filepath.Join(dir, ckptName))
	if err != nil {
		t.Fatal(err)
	}
	fix := g.check("persist.checkpoint", ckpt)

	rdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(rdir, ckptName), fix, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := persist.Recover(rdir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CheckpointLoaded || rec.CheckpointSeq != seq || rec.LastSeq != seq {
		t.Fatalf("checkpoint not loaded: %+v", rec)
	}
	// Recover recomputes covisibility from the bindings; the stored
	// edges name keyframes this map never held, so compare without.
	for _, kf := range rec.Map.KeyFrames() {
		kf.Conns = nil
	}
	kf1.Conns, kf2.Conns = nil, nil
	assertGoldenMap(t, "persist.checkpoint", rec.Map, kf1, kf2, mpA, mpB)
	if want := goldenAnchors().All(); !reflect.DeepEqual(rec.Anchors.All(), want) {
		t.Errorf("persist.checkpoint: anchors = %+v, want %+v", rec.Anchors.All(), want)
	}
}
