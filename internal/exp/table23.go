package exp

import (
	"fmt"
	"io"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/metrics"
	"slamshare/internal/server"
	"slamshare/internal/video"
)

// Table2Row is one row of Table 2: ATE under a given RTT with
// IMU-compensated client tracking.
type Table2Row struct {
	RTTms       int
	WholeATEcm  map[string]float64 // per sequence
	RegionATEcm map[string]float64
}

// Table2 reproduces the IMU-assisted accuracy-versus-RTT study: the
// server's pose answers arrive RTT late; the client bridges the gap
// with Algorithm 1. ATE is measured over the whole run and over a
// "small map region" around a sharp turn (the paper's stress segment).
func Table2(w io.Writer) ([]Table2Row, error) {
	rtts := []int{0, 30, 60, 90, 167, 200, 300, 1000}
	seqs := []struct {
		name string
		mk   func() *dataset.Sequence
	}{
		{"KITTI-00 Stereo", func() *dataset.Sequence { return dataset.KITTI00(camera.Stereo) }},
		{"MH-05 Mono", func() *dataset.Sequence { return dataset.MH05(camera.Mono) }},
	}
	nFrames := scale(360)
	stride := 2
	rows := make([]Table2Row, len(rtts))
	for ri, rtt := range rtts {
		rows[ri] = Table2Row{
			RTTms:       rtt,
			WholeATEcm:  map[string]float64{},
			RegionATEcm: map[string]float64{},
		}
		for _, sc := range seqs {
			seq := sc.mk()
			p := &Participant{Name: sc.name, Seq: seq, Stride: stride, Link: Link{DelaySec: float64(rtt) / 2000}}
			r, err := NewRunner(server.DefaultConfig(), float64(stride)/seq.FPS, p)
			if err != nil {
				return nil, err
			}
			err = r.Run(nFrames / stride)
			r.Close()
			if err != nil {
				return nil, err
			}
			gt := seq.TruthTrajectory(nFrames, stride)
			// The paper's Table 2 measures the experienced accuracy as
			// RTT grows: use the live (uncorrected-in-hindsight)
			// trajectory.
			est := p.Dev.LiveTrajectory()
			rows[ri].WholeATEcm[sc.name] = 100 * metrics.ATE(est, gt)
			// "Small map region": the middle third of the run, which
			// crosses the trajectory's sharpest turn.
			t0 := seq.FrameTime(nFrames / 3)
			t1 := seq.FrameTime(2 * nFrames / 3)
			rows[ri].RegionATEcm[sc.name] = 100 * metrics.ATEWindow(est, gt, t0, t1)
		}
	}
	fmt.Fprintln(w, "Table 2: IMU-compensated accuracy vs RTT (ATE RMSE, cm)")
	tablef(w, "%-10s %-18s %-14s %-20s %-14s", "RTT (ms)",
		"Whole KITTI-00", "Whole MH-05", "Region KITTI-00", "Region MH-05")
	for _, r := range rows {
		tablef(w, "%-10d %-18.2f %-14.2f %-20.2f %-14.2f", r.RTTms,
			r.WholeATEcm["KITTI-00 Stereo"], r.WholeATEcm["MH-05 Mono"],
			r.RegionATEcm["KITTI-00 Stereo"], r.RegionATEcm["MH-05 Mono"])
	}
	return rows, nil
}

// Table3Row is one column pair of Table 3.
type Table3Row struct {
	Sequence      string
	ImageMbps     float64
	VideoMbps     float64
	EncodeMs      float64
	DecodeMs      float64
	ImageDecodeMs float64
	ATEImage      float64 // metres, tracking over raw/image-coded frames
	ATEVideo      float64 // metres, tracking over decoded video frames
}

// Table3 compares image transfer against SLAM-Share's video transfer:
// bitrate at 30 FPS, codec latencies, and the resulting ATE.
func Table3(w io.Writer) ([]Table3Row, error) {
	seqs := []struct {
		name string
		mk   func() *dataset.Sequence
	}{
		{"KITTI-00 Stereo", func() *dataset.Sequence { return dataset.KITTI00(camera.Stereo) }},
		{"MH-05 Mono", func() *dataset.Sequence { return dataset.MH05(camera.Mono) }},
	}
	n := scale(90)
	var rows []Table3Row
	for _, sc := range seqs {
		seq := sc.mk()
		row := Table3Row{Sequence: sc.name}
		enc := video.NewEncoder()
		encR := video.NewEncoder()
		dec := video.NewDecoder()
		decR := video.NewDecoder()
		var vidBytes, imgBytes int
		var encDur, decDur, imgDecDur time.Duration
		frames := 0
		for i := 0; i < n; i++ {
			left, right := seq.StereoFrame(i)
			t0 := time.Now()
			payload, payloadR := video.EncodeStereo(enc, encR, left, right)
			encDur += time.Since(t0)
			vidBytes += len(payload) + len(payloadR)
			t1 := time.Now()
			if _, _, err := video.DecodeStereo(dec, decR, payload, payloadR); err != nil {
				return nil, err
			}
			decDur += time.Since(t1)
			ibs := [][]byte{video.EncodeImage(left)}
			if right != nil {
				ibs = append(ibs, video.EncodeImage(right))
			}
			t2 := time.Now()
			for _, ib := range ibs {
				imgBytes += len(ib)
				if _, err := video.DecodeImage(ib); err != nil {
					return nil, err
				}
			}
			imgDecDur += time.Since(t2)
			frames++
		}
		row.ImageMbps = video.StreamStats{Frames: frames, TotalBytes: imgBytes}.BitrateMbps(seq.FPS)
		row.VideoMbps = video.StreamStats{Frames: frames, TotalBytes: vidBytes}.BitrateMbps(seq.FPS)
		row.EncodeMs = float64(encDur.Milliseconds()) / float64(frames)
		row.DecodeMs = float64(decDur.Milliseconds()) / float64(frames)
		row.ImageDecodeMs = float64(imgDecDur.Milliseconds()) / float64(frames)

		// ATE: run the end-to-end system (which uses the video codec) —
		// the image path feeds identical pixels, so its ATE comes from
		// a lossless-image lockstep run.
		var err error
		if row.ATEVideo, err = trackingATE(sc.mk(), n, true); err != nil {
			return nil, err
		}
		if row.ATEImage, err = trackingATE(sc.mk(), n, false); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "Table 3: video vs image transfer (30 FPS)")
	tablef(w, "%-18s %-14s %-14s %-12s %-12s %-12s %-12s", "sequence",
		"img Mbit/s", "vid Mbit/s", "enc ms", "dec ms", "ATE img m", "ATE vid m")
	for _, r := range rows {
		tablef(w, "%-18s %-14.2f %-14.2f %-12.2f %-12.2f %-12.3f %-12.3f",
			r.Sequence, r.ImageMbps, r.VideoMbps, r.EncodeMs, r.DecodeMs, r.ATEImage, r.ATEVideo)
	}
	return rows, nil
}

// trackingATE runs a single-client lockstep and returns the ATE; when
// useVideo is false the client-to-server path carries lossless images
// (an encoder with an infinite intra interval degenerates to exactly
// the image codec).
func trackingATE(seq *dataset.Sequence, n int, useVideo bool) (float64, error) {
	stride := 2
	p := &Participant{Seq: seq, Stride: stride}
	r, err := NewRunner(server.DefaultConfig(), float64(stride)/seq.FPS, p)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if !useVideo {
		p.Dev.UseImageTransfer()
	}
	if err := r.Run(n / stride); err != nil {
		return 0, err
	}
	return metrics.ATE(p.Dev.Trajectory(), seq.TruthTrajectory(n, stride)), nil
}
