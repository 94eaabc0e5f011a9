package client

import (
	"math"
	"testing"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/imu"
	"slamshare/internal/offload"
	"slamshare/internal/protocol"
)

func TestBuildFrameBasics(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	c := New(1, seq)
	msg := c.BuildUplink(0).(*protocol.FrameMsg)
	if msg.ClientID != 1 || msg.FrameIdx != 0 {
		t.Errorf("header: %+v", msg)
	}
	if len(msg.Video) == 0 || len(msg.VideoRight) == 0 {
		t.Error("missing video payloads")
	}
	if !msg.HasPrior {
		t.Error("prior not attached")
	}
	if c.FramesSent() != 1 || c.UplinkBytes() != int64(len(msg.Video)+len(msg.VideoRight)) {
		t.Error("accounting wrong")
	}
	if c.Meter().Busy() <= 0 {
		t.Error("client compute not metered")
	}
	// Second frame carries a non-trivial IMU delta.
	msg2 := c.BuildFrame(1)
	if msg2.Delta.DT <= 0 {
		t.Error("second frame has no IMU span")
	}
	if c.Mode() != camera.Stereo {
		t.Error("mode wrong")
	}
}

func TestMonoClientHasNoRightEye(t *testing.T) {
	seq := dataset.V202(camera.Mono)
	c := New(1, seq)
	if msg := c.BuildFrame(0); len(msg.VideoRight) != 0 {
		t.Error("mono client sent a right eye")
	}
}

func TestApplyPoseCorrectsTrajectory(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	c := New(1, seq)
	for i := 0; i < 10; i++ {
		c.BuildFrame(i)
	}
	// Apply a fake server pose for frame 5 displaced from the estimate.
	target := seq.GroundTruth(5)
	shifted := geom.SE3{R: target.R, T: target.T.Add(geom.Vec3{X: 2})}
	c.ApplyPose(5, shifted.Inverse(), true)
	est := c.Trajectory()
	// est[5] must now be at the shifted position and later samples
	// re-propagated from it.
	if est[5].Pos.Dist(shifted.T) > 1e-9 {
		t.Errorf("est[5] = %v, want %v", est[5].Pos, shifted.T)
	}
	if est[9].Pos.Dist(seq.GroundTruth(9).T) < 1 {
		t.Error("later samples not re-propagated from the shifted fix")
	}
	// Live trajectory must NOT be rewritten.
	live := c.LiveTrajectory()
	if live[5].Pos.Dist(shifted.T) < 1 {
		t.Error("live trajectory was retro-corrected")
	}
}

func TestApplyPoseIgnoresUntrackedAndUnknown(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	c := New(1, seq)
	c.BuildFrame(0)
	before := c.Trajectory()
	c.ApplyPose(0, geom.SE3{R: geom.IdentityQuat(), T: geom.Vec3{X: 50}}, false) // untracked
	c.ApplyPose(99, geom.IdentitySE3(), true)                                    // unknown frame
	after := c.Trajectory()
	if after[0].Pos != before[0].Pos {
		t.Error("untracked/unknown poses modified the trajectory")
	}
}

func TestDisplacedClientAnchor(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	plain := New(1, seq)
	disp := NewDisplaced(2, seq, 0.3, geom.Vec3{X: 2, Y: -1})
	p0 := plain.BuildFrame(0).Prior
	d0 := disp.BuildFrame(0).Prior
	if d0.T.Dist(p0.T) < 1 {
		t.Error("displaced anchor too close to plain anchor")
	}
	// Gravity alignment preserved: the displacement is yaw-only, so
	// the body Z axis in world coordinates matches.
	zPlain := p0.R.Rotate(geom.Vec3{Z: 1})
	zDisp := d0.R.Rotate(geom.Vec3{Z: 1})
	// Both rotated by yaw about world Z: their Z components agree.
	if zPlain.Z-zDisp.Z > 1e-9 {
		t.Error("displacement broke gravity alignment")
	}
}

func TestUseImageTransfer(t *testing.T) {
	seq := dataset.V202(camera.Mono)
	vid := New(1, seq)
	img := New(2, seq)
	img.UseImageTransfer()
	// Warm both past the intra frame.
	vid.BuildFrame(0)
	img.BuildFrame(0)
	v1 := len(vid.BuildFrame(1).Video)
	i1 := len(img.BuildFrame(1).Video)
	if v1 >= i1 {
		t.Errorf("inter frame (%d B) not smaller than image transfer (%d B)", v1, i1)
	}
}

// TestMotionModelKeepsUplinkWindow pins imu.Window to the uplink
// window: right after the model drops its oldest half, the answer for
// the oldest frame an open-loop session can still have in flight
// (protocol.UplinkWindow back) lands, with the velocity fit's whole
// span behind it — exactly as on a client one frame short of the drop.
func TestMotionModelKeepsUplinkWindow(t *testing.T) {
	seq := dataset.V202(camera.Stereo)
	n := 2 * imu.Window // the n-th frame makes the model drop its oldest half
	short, dropped := New(1, seq), New(2, seq)
	short.ForceMode(offload.ModeShadow)
	dropped.ForceMode(offload.ModeShadow)
	for i := 0; i < n; i++ {
		if i < n-1 {
			short.BuildUplink(i)
		}
		dropped.BuildUplink(i)
	}
	oldest := n - protocol.UplinkWindow
	fix := seq.GroundTruth(oldest)
	fix.T = fix.T.Add(geom.Vec3{X: 0.05})
	short.ApplyPose(oldest, fix.Inverse(), true)
	dropped.ApplyPose(oldest, fix.Inverse(), true)
	want, got := short.Trajectory(), dropped.Trajectory()
	if got[oldest].Pos.Dist(fix.T) > 1e-9 {
		t.Fatalf("answer for frame %d was ignored after the drop", oldest)
	}
	for k := oldest; k < n-1; k++ {
		if got[k].Pos != want[k].Pos {
			t.Fatalf("est[%d] = %v after the drop, %v before: the fit lost its span", k, got[k].Pos, want[k].Pos)
		}
	}
}

// TestBuildUplinkCountsBytes: BuildUplink builds in the device's mode
// and counts each uplink once — video bytes for a full frame, the whole
// message for split keypoints and shadow sync pings.
func TestBuildUplinkCountsBytes(t *testing.T) {
	c := New(1, dataset.V202(camera.Stereo))
	var want int64
	for i, mode := range []offload.Mode{offload.ModeFull, offload.ModeSplit, offload.ModeShadow} {
		c.ForceMode(mode)
		switch m := c.BuildUplink(i).(type) {
		case *protocol.FrameMsg:
			want += int64(len(m.Video) + len(m.VideoRight))
		case *protocol.KeypointMsg:
			if shadow := m.Flags == protocol.KeypointSyncOnly; shadow != (mode == offload.ModeShadow) {
				t.Errorf("%v mode built a keypoint message with flags %d", mode, m.Flags)
			}
			want += int64(len(m.Encode()))
		}
		if got := c.UplinkBytes(); got != want {
			t.Errorf("after a %v uplink: UplinkBytes() = %d, want %d", mode, got, want)
		}
	}
}

// TestKeypointFrameWireExact: the split-mode uplinks of MH04 and MH05
// decode to exactly the keypoints BuildKeypointFrame built, every field
// bit for bit, and each encodes in the compact record's size: the
// 182-byte head (with its prior), 47 bytes a keypoint and 16 more for a
// stereo-matched one.
func TestKeypointFrameWireExact(t *testing.T) {
	bits := math.Float64bits
	for _, seq := range []*dataset.Sequence{dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo)} {
		c := New(1, seq)
		total, matched := 0, 0
		for i := 20; i < 52; i += 2 {
			msg := c.BuildKeypointFrame(i)
			data := msg.Encode()
			got, err := protocol.DecodeKeypointMsg(data)
			if err != nil {
				t.Fatalf("%s frame %d: %v", seq.Name, i, err)
			}
			if len(got.Kps) != len(msg.Kps) || len(msg.Kps) == 0 {
				t.Fatalf("%s frame %d: %d keypoints decoded, %d built", seq.Name, i, len(got.Kps), len(msg.Kps))
			}
			m := 0
			for k := range msg.Kps {
				a, b := &msg.Kps[k], &got.Kps[k]
				if bits(a.X) != bits(b.X) || bits(a.Y) != bits(b.Y) || a.Level != b.Level ||
					bits(a.Angle) != bits(b.Angle) || bits(a.Score) != bits(b.Score) || a.Desc != b.Desc ||
					bits(a.Right) != bits(b.Right) || bits(a.Depth) != bits(b.Depth) {
					t.Fatalf("%s frame %d keypoint %d: built %+v, decoded %+v", seq.Name, i, k, *a, *b)
				}
				if a.Right >= 0 {
					m++
				} else if bits(a.Right) != bits(-1) || bits(a.Depth) != 0 {
					t.Fatalf("%s frame %d keypoint %d: unmatched with Right %v, Depth %v", seq.Name, i, k, a.Right, a.Depth)
				}
			}
			want := 182 + 47*len(msg.Kps) + 16*m
			if len(data) != want || msg.EncodedLen() != want {
				t.Fatalf("%s frame %d: %d bytes, EncodedLen %d, want %d", seq.Name, i, len(data), msg.EncodedLen(), want)
			}
			total += len(msg.Kps)
			matched += m
		}
		t.Logf("%s: %d keypoints in 16 frames, %.1f %% stereo-matched", seq.Name, total, 100*float64(matched)/float64(total))
	}
}
