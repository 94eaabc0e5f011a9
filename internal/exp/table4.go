package exp

import (
	"fmt"
	"io"
	"time"

	"slamshare/internal/baseline"
	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/server"
)

// Table4Result holds the merge-latency breakdown of both systems.
type Table4Result struct {
	// Baseline components (averaged over runs).
	Baseline baseline.UploadReport
	// SLAM-Share components.
	SSEncode time.Duration // client video encode for the frame batch
	SSXfer1  time.Duration // frame upload (tiny)
	SSMerge  time.Duration // shared-memory merge (Alg. 2)
	SSXfer2  time.Duration // pose return (tiny)
	SSTotal  time.Duration
	SpeedupX float64
}

// Table4 reproduces the merge-latency breakdown: the baseline pays
// hold-down batching, serialization, transfer and deserialization on
// every round, while SLAM-Share merges directly in shared memory.
// Averages over `runs` independent two-client EuRoC scenarios.
func Table4(w io.Writer, runs int) (*Table4Result, error) {
	if runs <= 0 {
		runs = 3
	}
	if Quick {
		runs = 1
	}
	res := &Table4Result{}
	nFrames := scale(420)

	// The link used for the baseline's exchanges: the testbed's fast
	// link (negligible propagation delay, 1 Gbit/s effective).
	const linkBps = 1e9

	for run := 0; run < runs; run++ {
		// ----- SLAM-Share side: two clients, shared-memory merge. -----
		seqA := dataset.MH04(camera.Stereo)
		seqB := dataset.MH05(camera.Stereo)
		seqA.Seed += int64(run) * 13
		seqB.Seed += int64(run) * 13
		const stride = 2
		r, err := NewRunner(server.DefaultConfig(), stride/seqA.FPS,
			&Participant{Name: "A", Seq: seqA, Stride: stride},
			&Participant{Name: "B", Dev: client.NewDisplaced(2, seqB, 0.07, geom.Vec3{X: 0.5, Y: -0.3}), Seq: seqB, Stride: stride})
		if err != nil {
			return nil, err
		}
		r.OnStep = func(int, float64) bool { return r.Parts[0].Sess.Merged() && r.Parts[1].Sess.Merged() }
		err = r.Run(nFrames / stride)
		reports := r.Srv.MergeReports()
		r.Close()
		if err != nil {
			return nil, err
		}
		for _, rep := range reports {
			if rep.Alignment != nil { // the real (non-founding) merge
				res.SSMerge += rep.Total
			}
		}
		var encDur time.Duration
		var frames int
		var upBytes int64
		for _, p := range r.Parts {
			encDur += p.Dev.EncodeBusy()
			frames += p.Steps
			upBytes += p.Dev.UplinkBytes()
		}
		if frames > 0 {
			res.SSEncode += encDur / time.Duration(frames)
		}
		// Per-frame transfer times on the fast link.
		res.SSXfer1 += time.Duration(float64(upBytes) / float64(frames) * 8 / linkBps * float64(time.Second))
		res.SSXfer2 += time.Duration(float64(protocolPoseBytes*8) / linkBps * float64(time.Second))

		// ----- Baseline side: serialized exchange. -----
		cfg := baseline.DefaultConfig()
		cfg.HoldDownFrames = 150
		seqA2 := dataset.MH04(camera.Stereo)
		seqB2 := dataset.MH05(camera.Stereo)
		seqA2.Seed += int64(run) * 17
		seqB2.Seed += int64(run) * 17
		bsrv := baseline.NewServer(cfg, seqA2.Rig.Intr)
		bclA := baseline.NewClient(1, seqA2, cfg)
		bclB := baseline.NewClient(2, seqB2, cfg)
		rep, err := baselineRound(bsrv, bclA, bclB, linkBps)
		if err != nil {
			return nil, err
		}
		res.Baseline.HoldDown += rep.HoldDown
		res.Baseline.Serialize += rep.Serialize
		res.Baseline.Transfer1 += rep.Transfer1
		res.Baseline.Deserialize += rep.Deserialize
		res.Baseline.Merge += rep.Merge
		res.Baseline.DataProc += rep.DataProc
		res.Baseline.Transfer2 += rep.Transfer2
		res.Baseline.Load += rep.Load
		res.Baseline.UploadBytes += rep.UploadBytes
		res.Baseline.ReturnBytes += rep.ReturnBytes
	}
	d := time.Duration(runs)
	res.Baseline.HoldDown /= d
	res.Baseline.Serialize /= d
	res.Baseline.Transfer1 /= d
	res.Baseline.Deserialize /= d
	res.Baseline.Merge /= d
	res.Baseline.DataProc /= d
	res.Baseline.Transfer2 /= d
	res.Baseline.Load /= d
	res.Baseline.UploadBytes /= runs
	res.Baseline.ReturnBytes /= runs
	res.SSEncode /= d
	res.SSMerge /= d
	res.SSXfer1 /= d
	res.SSXfer2 /= d
	res.SSTotal = res.SSEncode + res.SSXfer1 + res.SSMerge + res.SSXfer2
	if res.SSTotal > 0 {
		// The paper compares the merge-round latencies (its Total row
		// excludes nothing): hold-down through load for the baseline.
		res.SpeedupX = float64(res.Baseline.Total()) / float64(res.SSTotal)
	}

	fmt.Fprintln(w, "Table 4: average merge-latency breakdown")
	tablef(w, "%-22s %-16s %-16s", "Component", "Baseline", "SLAM-Share")
	tablef(w, "%-22s %-16v %-16s", "1. Hold-down time", res.Baseline.HoldDown, "N/A")
	tablef(w, "%-22s %-16v %-16s", "2. Serialization", res.Baseline.Serialize.Round(time.Millisecond/10), "N/A")
	tablef(w, "%-22s %-16s %-16v", "3. Encoding", "N/A", res.SSEncode.Round(time.Millisecond/10))
	tablef(w, "%-22s %-16v %-16v", "4. Data transfer 1", res.Baseline.Transfer1.Round(time.Millisecond/10), res.SSXfer1.Round(time.Microsecond*10))
	tablef(w, "%-22s %-16v %-16s", "5. Deserialization", res.Baseline.Deserialize.Round(time.Millisecond/10), "N/A")
	tablef(w, "%-22s %-16v %-16v", "6. Map merging", res.Baseline.Merge.Round(time.Millisecond), res.SSMerge.Round(time.Millisecond))
	tablef(w, "%-22s %-16v %-16s", "7. Data processing", res.Baseline.DataProc.Round(time.Millisecond/10), "N/A")
	tablef(w, "%-22s %-16v %-16v", "8. Data transfer 2", res.Baseline.Transfer2.Round(time.Millisecond/10), res.SSXfer2.Round(time.Microsecond))
	tablef(w, "%-22s %-16v %-16s", "9. Load map", res.Baseline.Load.Round(time.Millisecond/10), "N/A")
	tablef(w, "%-22s %-16v %-16v", "Total", res.Baseline.Total().Round(time.Millisecond), res.SSTotal.Round(time.Millisecond))
	tablef(w, "speedup: %.0fx", res.SpeedupX)
	tablef(w, "(baseline upload %d KB, portion %d KB)", res.Baseline.UploadBytes/1024, res.Baseline.ReturnBytes/1024)
	return res, nil
}

const protocolPoseBytes = 4 + 16*8 + 1

// baselineRound runs both baseline clients until B's first upload,
// performing A's founding round first, and returns B's full round
// breakdown with transfer times computed for the given link.
func baselineRound(bsrv *baseline.Server, bclA, bclB *baseline.Client, linkBps float64) (baseline.UploadReport, error) {
	var rep baseline.UploadReport
	doRound := func(cl *baseline.Client) (baseline.UploadReport, error) {
		var out baseline.UploadReport
		for i := 0; i < 4000; i++ {
			if !cl.CanProcess(i) {
				continue
			}
			st := cl.Step(i)
			if st.Upload == nil {
				continue
			}
			out.HoldDown = 5 * time.Second // 150 frames at 30 FPS
			out.Serialize = st.SerializeTime
			out.Transfer1 = time.Duration(float64(len(st.Upload)) * 8 / linkBps * float64(time.Second))
			portion, align, srvRep, err := bsrv.HandleUpload(st.Upload)
			if err != nil {
				return out, err
			}
			out.Deserialize = srvRep.Deserialize
			out.Merge = srvRep.Merge
			out.DataProc = srvRep.DataProc
			out.UploadBytes = srvRep.UploadBytes
			out.ReturnBytes = srvRep.ReturnBytes
			out.Transfer2 = time.Duration(float64(len(portion)) * 8 / linkBps * float64(time.Second))
			load, err := cl.Integrate(portion, align)
			if err != nil {
				return out, err
			}
			out.Load = load
			out.Merged = srvRep.Merged
			return out, nil
		}
		return out, fmt.Errorf("baseline client never produced an upload")
	}
	if _, err := doRound(bclA); err != nil {
		return rep, err
	}
	return doRound(bclB)
}
