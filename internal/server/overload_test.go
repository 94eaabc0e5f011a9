package server

import (
	"errors"
	"net"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
	"slamshare/internal/video"
)

// buildRawFrame encodes a real stereo frame of seq as an uplink
// message using the given encoders (so decoder stream state matches).
func buildRawFrame(seq *dataset.Sequence, encL, encR *video.Encoder, i int, prior bool) *protocol.FrameMsg {
	left, right := seq.StereoFrame(i)
	msg := &protocol.FrameMsg{UplinkHeader: protocol.UplinkHeader{
		ClientID: 1,
		FrameIdx: uint32(i),
		Stamp:    seq.FrameTime(i),
	}}
	msg.Video, msg.VideoRight = video.EncodeStereo(encL, encR, left, right)
	if prior {
		msg.Prior = seq.GroundTruth(i).Inverse()
		msg.HasPrior = true
	}
	return msg
}

// Each HandleFrame failure mode must land on its own counter:
// undecodable video on FramesFailed and a processed-but-unlocalized
// frame on TrackLost.
func TestHandleFrameErrorCounters(t *testing.T) {
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seq := dataset.V202(camera.Stereo)
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		t.Fatal(err)
	}

	// Undecodable left stream.
	bad := &protocol.FrameMsg{UplinkHeader: protocol.UplinkHeader{ClientID: 1}, Video: []byte{0xde, 0xad, 0xbe, 0xef}}
	if _, err := sess.HandleFrame(bad); err == nil {
		t.Fatal("garbage video decoded")
	}
	if got := srv.NetStats().FramesFailed.Load(); got != 1 {
		t.Errorf("FramesFailed = %d after bad left stream, want 1", got)
	}

	// Valid left, undecodable right: the stereo pair is unusable.
	encL := video.NewEncoder()
	left, _ := seq.StereoFrame(0)
	bad2 := &protocol.FrameMsg{UplinkHeader: protocol.UplinkHeader{ClientID: 1}, Video: encL.Encode(left), VideoRight: []byte{1, 2, 3}}
	if _, err := sess.HandleFrame(bad2); err == nil {
		t.Fatal("garbage right video decoded")
	}
	if got := srv.NetStats().FramesFailed.Load(); got != 2 {
		t.Errorf("FramesFailed = %d after bad stereo pair, want 2", got)
	}

	// Initialize tracking, then feed a featureless frame: the tracker
	// loses the frame and TrackLost counts it.
	encL, encR := video.NewEncoder(), video.NewEncoder()
	if res, err := sess.HandleFrame(buildRawFrame(seq, encL, encR, 0, true)); err != nil || !res.Tracked {
		t.Fatalf("init frame: err=%v tracked=%v", err, res.Tracked)
	}
	blank := left.Clone()
	blank.Fill(128)
	lostMsg := &protocol.FrameMsg{UplinkHeader: protocol.UplinkHeader{ClientID: 1, FrameIdx: 1, Stamp: seq.FrameTime(1)}}
	lostMsg.Video, lostMsg.VideoRight = video.EncodeStereo(encL, encR, blank, blank)
	res, err := sess.HandleFrame(lostMsg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracked {
		t.Fatal("blank frame tracked")
	}
	if got := srv.NetStats().TrackLost.Load(); got < 1 {
		t.Errorf("TrackLost = %d after blank frame, want >= 1", got)
	}
}

func TestOpenSessionCeiling(t *testing.T) {
	rig := camera.NewMonoRig(camera.EuRoCIntrinsics())
	// Three clients against a ceiling of two, and against none.
	for _, max := range []int{2, -1} {
		cfg := DefaultConfig()
		cfg.Overload.MaxSessions = max
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var rejected int64
		for id := uint32(1); id <= 3; id++ {
			_, err := srv.OpenSession(id, rig)
			if max > 0 && int(id) > max {
				rejected++
				if !errors.Is(err, overload.ErrOverloaded) {
					t.Fatalf("MaxSessions %d, session %d: err = %v, want ErrOverloaded", max, id, err)
				}
			} else if err != nil {
				t.Fatalf("MaxSessions %d, session %d: %v", max, id, err)
			}
		}
		if got := srv.NetStats().SessionsRejected.Load(); got != rejected {
			t.Errorf("MaxSessions %d: SessionsRejected = %d, want %d", max, got, rejected)
		}
		// Closing a session frees its slot; a failed duplicate open while
		// a slot is free must report the duplicate and not consume it.
		srv.CloseSession(1)
		if _, err := srv.OpenSession(2, rig); err == nil || errors.Is(err, overload.ErrOverloaded) {
			t.Fatalf("MaxSessions %d: duplicate open: err = %v, want duplicate error", max, err)
		}
		if _, err := srv.OpenSession(1, rig); err != nil {
			t.Errorf("MaxSessions %d: slot leaked by failed duplicate open: %v", max, err)
		}
	}
}

// A client that bursts frames faster than the pipeline tracks them
// must get every frame answered — stale ones with a Shed pose — and
// the connection must stay healthy throughout.
func TestServeShedsUnderBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	cfg := DefaultConfig()
	cfg.Overload.ShedBudget = 10 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := serveTestListener(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	seq := dataset.V202(camera.Stereo)
	cl := client.New(1, seq)
	// Pre-build the uplink so the wire sees a genuine burst: building a
	// frame (render + encode) costs more than the server's tracking, so
	// a live build-send loop never accumulates a backlog.
	const n = 30
	msgs := make([][]byte, n)
	for i := 0; i < n; i++ {
		msgs[i] = cl.BuildFrame(i).Encode()
	}
	hello := protocol.HelloMsg{
		ClientID: 1, Mode: seq.Rig.Mode,
		Intr: seq.Rig.Intr, Baseline: seq.Rig.Baseline,
	}
	if err := protocol.WriteMessage(conn, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if err := protocol.WriteMessage(conn, protocol.TypeFrame, m); err != nil {
			t.Fatalf("send frame %d: %v", i, err)
		}
	}
	answered := make(map[uint32]bool)
	shed, tracked := 0, 0
	for len(answered) < n {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		mt, payload, err := protocol.ReadMessage(conn)
		if err != nil {
			t.Fatalf("after %d answers: %v", len(answered), err)
		}
		if mt != protocol.TypePose {
			continue
		}
		pm, err := protocol.DecodePoseMsg(payload)
		if err != nil {
			t.Fatal(err)
		}
		if answered[pm.FrameIdx] {
			t.Fatalf("frame %d answered twice", pm.FrameIdx)
		}
		answered[pm.FrameIdx] = true
		if pm.Shed {
			shed++
			if pm.Tracked {
				t.Error("shed pose claims tracked")
			}
		} else if pm.Tracked {
			tracked++
		}
	}
	if shed == 0 {
		t.Error("burst of 30 frames at a 10ms budget shed nothing")
	}
	if tracked == 0 {
		t.Error("no frame actually tracked")
	}
	if got := srv.NetStats().FramesShed.Load(); got != int64(shed) {
		t.Errorf("FramesShed = %d, wire saw %d", got, shed)
	}
	t.Logf("burst of %d: %d tracked, %d shed", n, tracked, shed)
	_ = protocol.WriteMessage(conn, protocol.TypeBye, nil)
}

// BenchmarkHandleFrameShedding measures the cost of answering a frame
// on the shed path (lag accounting + stream-sync decode + Shed pose
// encode) — the budget the server spends per frame it refuses to
// track.
func BenchmarkHandleFrameShedding(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Overload.ShedBudget = 50 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	seq := dataset.V202(camera.Stereo)
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		b.Fatal(err)
	}
	encL, encR := video.NewEncoder(), video.NewEncoder()
	encL.GOP, encR.GOP = 1, 1 // intra-only so replaying one frame stays decodable
	msg := buildRawFrame(seq, encL, encR, 0, true)
	// Only a session that is tracking sheds.
	if res, err := sess.Handle(msg, 0); err != nil || !res.Tracked {
		b.Fatalf("first frame: tracked %v, err %v", res.Tracked, err)
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Stamp = float64(i+1) * 0.05
		res, err := sess.Handle(msg, 4)
		if err != nil || !res.Shed {
			b.Fatal("4-frame backlog at 20 FPS must shed on a 50ms budget")
		}
		pm := protocol.PoseMsg{FrameIdx: uint32(i), Pose: res.Pose, Shed: true}
		sink += len(pm.Encode())
	}
	if sink == 0 {
		b.Fatal("empty encodes")
	}
}
