package exp

import (
	"fmt"
	"io"
	"time"

	"slamshare/internal/baseline"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/server"
)

// Fig13Result compares client-side compute between the two systems.
type Fig13Result struct {
	BaselineBusyPerFrame  time.Duration
	SlamShareBusyPerFrame time.Duration // includes software video encoding
	SlamShareIMUPerFrame  time.Duration // excluding encode: hardware-encoder analogue
	ReductionX            float64       // baseline vs IMU-only (the paper's comparison)
	ReductionSWX          float64       // baseline vs software-codec total
}

// Fig13 reproduces the client CPU comparison over the MH05 trajectory:
// the baseline client runs full SLAM on-device; the SLAM-Share client
// only integrates its IMU and encodes video. The per-frame busy time
// ratio is the paper's CPU-utilization ratio (see DESIGN.md for the
// psutil substitution).
func Fig13(w io.Writer) (*Fig13Result, error) {
	seq := dataset.MH05(camera.Stereo)
	n := scale(200)
	stride := 2

	// Baseline client: full local SLAM.
	bcl, bFrames := onDeviceSLAM(seq, n, stride)

	// SLAM-Share client: IMU + video encode only; the SLAM runs on the
	// server (whose compute is not billed to the device).
	p := &Participant{Seq: dataset.MH05(camera.Stereo), Stride: stride}
	r, err := NewRunner(server.DefaultConfig(), float64(stride)/seq.FPS, p)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.Run(n / stride); err != nil {
		return nil, err
	}
	dev, sFrames := p.Dev, p.Steps

	res := &Fig13Result{}
	if bFrames > 0 {
		res.BaselineBusyPerFrame = bcl.Meter().Busy() / time.Duration(bFrames)
	}
	if sFrames > 0 {
		res.SlamShareBusyPerFrame = dev.Meter().Busy() / time.Duration(sFrames)
		imu := dev.Meter().Busy() - dev.EncodeBusy()
		if imu < 0 {
			imu = 0
		}
		res.SlamShareIMUPerFrame = imu / time.Duration(sFrames)
	}
	if res.SlamShareIMUPerFrame > 0 {
		res.ReductionX = float64(res.BaselineBusyPerFrame) / float64(res.SlamShareIMUPerFrame)
	}
	if res.SlamShareBusyPerFrame > 0 {
		res.ReductionSWX = float64(res.BaselineBusyPerFrame) / float64(res.SlamShareBusyPerFrame)
	}
	fmt.Fprintln(w, "Fig 13: client compute per frame (MH05)")
	tablef(w, "%-44s %v", "baseline client (full SLAM)", res.BaselineBusyPerFrame.Round(time.Microsecond*100))
	tablef(w, "%-44s %v", "SLAM-Share client (software video codec)", res.SlamShareBusyPerFrame.Round(time.Microsecond*100))
	tablef(w, "%-44s %v", "SLAM-Share client (hardware-encoder analogue)", res.SlamShareIMUPerFrame.Round(time.Microsecond))
	tablef(w, "reduction vs hardware-encoder analogue: %.0fx (paper: ~35x)", res.ReductionX)
	tablef(w, "reduction with the pure-Go software codec: %.1fx", res.ReductionSWX)
	return res, nil
}

// onDeviceSLAM runs the baseline device's full local SLAM over the
// first n frames of seq with the hold-down disabled, so it never
// uploads: the paper's single-user ORB-SLAM3. It returns the client
// and the number of frames it processed.
func onDeviceSLAM(seq *dataset.Sequence, n, stride int) (*baseline.Client, int) {
	cfg := baseline.DefaultConfig()
	cfg.HoldDownFrames = 1 << 30
	cl := baseline.NewClient(1, seq, cfg)
	frames := 0
	for i := 0; i < n && i < seq.FrameCount(); i += stride {
		if cl.CanProcess(i) {
			cl.Step(i)
			frames++
		}
	}
	return cl, frames
}
