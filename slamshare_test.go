package slamshare_test

import (
	"strings"
	"testing"

	"slamshare"
)

func TestLoadSequenceNames(t *testing.T) {
	for _, name := range []string{"MH04", "MH05", "V202", "TUM-fr1", "KITTI-00", "KITTI-05"} {
		seq, err := slamshare.LoadSequence(name, slamshare.Stereo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seq.FrameCount() < 100 {
			t.Errorf("%s: only %d frames", name, seq.FrameCount())
		}
	}
	if _, err := slamshare.LoadSequence("bogus", slamshare.Mono); err == nil {
		t.Error("bogus sequence accepted")
	}
}

func TestEdgeServerLifecycle(t *testing.T) {
	srv, err := slamshare.NewEdgeServer(slamshare.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.GlobalMap() == nil {
		t.Fatal("no global map")
	}
	seq, _ := slamshare.LoadSequence("V202", slamshare.Mono)
	if _, err := srv.OpenSession(1, seq.Rig); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenSession(1, seq.Rig); err == nil {
		t.Error("duplicate session accepted")
	}
	srv.CloseSession(1)
}

func TestDeviceFacade(t *testing.T) {
	seq, _ := slamshare.LoadSequence("V202", slamshare.Stereo)
	dev := slamshare.NewDevice(9, seq)
	msg := dev.BuildFrame(0)
	if len(msg.Video) == 0 || len(msg.VideoRight) == 0 {
		t.Error("stereo frame missing video payloads")
	}
	if !msg.HasPrior {
		t.Error("first frame must carry the anchoring prior")
	}
	disp := slamshare.NewDisplacedDevice(10, seq, 0.1, slamshare.Vec3{X: 1})
	m2 := disp.BuildFrame(0)
	if m2.Prior.T.Dist(msg.Prior.T) < 0.5 {
		t.Error("displaced device anchor not displaced")
	}
}

func TestATEHelpers(t *testing.T) {
	seq, _ := slamshare.LoadSequence("MH04", slamshare.Mono)
	gt := slamshare.GroundTruth(seq, 60, 2)
	if len(gt) != 30 {
		t.Fatalf("ground truth samples = %d", len(gt))
	}
	if a := slamshare.ATE(gt, gt); a != 0 {
		t.Errorf("self ATE = %v", a)
	}
	if s := slamshare.ShortTermATE(gt, gt, gt[len(gt)-1].T, 1); s != 0 {
		t.Errorf("self short-term ATE = %v", s)
	}
}

func TestBaselineFacade(t *testing.T) {
	cfg := slamshare.DefaultBaselineConfig()
	if cfg.HoldDownFrames != 150 {
		t.Errorf("hold-down = %d", cfg.HoldDownFrames)
	}
	seq, _ := slamshare.LoadSequence("V202", slamshare.Stereo)
	srv := slamshare.NewBaselineServer(cfg, seq.Rig)
	if srv.Global() == nil {
		t.Error("baseline server has no global map")
	}
	cl := slamshare.NewBaselineClient(1, seq, cfg)
	if cl.Meter() == nil {
		t.Error("baseline client has no meter")
	}
}

func TestBanner(t *testing.T) {
	if !strings.Contains(slamshare.String(), "slam-share") {
		t.Errorf("banner = %q", slamshare.String())
	}
}
