package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"slamshare/internal/gpu"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
)

// spanBase spaces span IDs of different recorders apart.
const spanBase = 1_000_000

// traceFile is what a traced run writes to bench/out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Spans of the generator in the real topology have IDs below
	// 10*spanBase (session i starts at i*spanBase); spans of the
	// in-process server pass start at (10+i)*spanBase.
	Spans []span `json:"spans"`
}

// serverPass replays every session's uplink through an in-process
// server configured like the slamshare-server binary's defaults, and
// reads the per-layer figures the server returns by value.
type serverPass struct {
	spans     []span
	frames    int // handled frames, warm-up included
	handleMs  []float64
	stagesMs  [5][]float64 // extract, match, pose_predict, search_local, total
	allocs    float64      // per frame
	queueMs   float64      // trackpool queue wait per frame
	busyMs    float64      // trackpool worker time per frame
	batches   float64      // trackpool batches per frame
	mergeMs   [3]float64   // total, detect, BA of the aligned merge
	fused     int
	keyframes int
	mappoints int
	untracked int
}

func runServerPass(sessions []*session, origin time.Time) (*serverPass, error) {
	cfg := server.DefaultConfig()
	gcfg := gpu.DefaultConfig()
	gcfg.Lanes = 8 // the binary's -gpu-lanes default
	cfg.GPU = gpu.NewDevice(gcfg)
	cfg.LanesPerClient = 4
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	sp := &serverPass{}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		first error
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pool0 := srv.TrackPool().Stats()
	sess := make([]*server.Session, len(sessions))
	for i, s := range sessions {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(err error) {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
			hello := s.dev.hello()
			ss, err := srv.OpenSession(hello.ClientID, hello.Rig())
			if err != nil {
				fail(err)
				return
			}
			sess[i] = ss
			rec := newRecorder(origin, (10+i)*spanBase)
			var handle []float64
			var stages [5][]float64
			untracked, n := 0, 0
			for k := range s.recs {
				fr := &s.recs[k]
				if fr.payload == nil {
					break
				}
				root := rec.begin("server.frame", 0, k)
				dsp := rec.begin("protocol.decode", root, k)
				var res server.Result
				var hsp int
				if fr.mt == protocol.TypeKeypoint {
					msg, err := protocol.DecodeKeypointMsg(fr.payload)
					rec.end(dsp)
					if err != nil {
						fail(err)
						return
					}
					hsp = rec.begin("server.handle", root, k)
					res, err = ss.HandleKeypoints(msg)
					if err != nil {
						fail(err)
						return
					}
				} else {
					msg, err := protocol.DecodeFrameMsg(fr.payload)
					rec.end(dsp)
					if err != nil {
						fail(err)
						return
					}
					hsp = rec.begin("server.handle", root, k)
					res, err = ss.HandleFrame(msg)
					if err != nil {
						fail(err)
						return
					}
				}
				rec.end(hsp)
				rec.end(root)
				n++
				// The tracker returns its stage times by value; lay them
				// out inside the handle span in pipeline order.
				h := *rec.at(hsp)
				tsp := rec.add("tracking.total", hsp, k, h.Start, h.Start+int64(res.Timing.Total))
				at := h.Start
				for j, d := range []time.Duration{res.Timing.Extract, res.Timing.Match, res.Timing.PosePredict, res.Timing.SearchLocal} {
					rec.add([]string{"tracking.extract", "tracking.match", "tracking.pose_predict", "tracking.search_local"}[j],
						tsp, k, at, at+int64(d))
					at += int64(d)
					if fr.measured {
						stages[j] = append(stages[j], ms(d))
					}
				}
				if !fr.measured {
					continue
				}
				if !res.Tracked {
					untracked++
				}
				handle = append(handle, float64(h.dur())/1e6)
				stages[4] = append(stages[4], ms(res.Timing.Total))
			}
			mu.Lock()
			sp.spans = append(sp.spans, rec.spans...)
			sp.handleMs = append(sp.handleMs, handle...)
			for j := range stages {
				sp.stagesMs[j] = append(sp.stagesMs[j], stages[j]...)
			}
			sp.untracked += untracked
			sp.frames += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if first != nil {
		return nil, fmt.Errorf("server pass: %w", first)
	}
	pool1 := srv.TrackPool().Stats()
	runtime.ReadMemStats(&m1)
	if sp.frames == 0 {
		return nil, fmt.Errorf("server pass: no frames to replay")
	}
	f := float64(sp.frames)
	sp.allocs = float64(m1.Mallocs-m0.Mallocs) / f
	sp.queueMs = ms(pool1.QueueWait-pool0.QueueWait) / f
	sp.busyMs = ms(pool1.Busy-pool0.Busy) / f
	sp.batches = float64(pool1.Batches-pool0.Batches) / f
	for _, r := range srv.MergeReports() {
		if r.Alignment == nil {
			continue
		}
		sp.mergeMs = [3]float64{ms(r.Total), ms(r.Detect), ms(r.BA)}
		sp.fused = r.FusedPts
	}
	// Everything a session built is in the global map once it has
	// merged, and in its local map until then.
	sp.keyframes, sp.mappoints = srv.Global().NKeyFrames(), srv.Global().NMapPoints()
	for _, ss := range sess {
		if !ss.Merged() {
			sp.keyframes += ss.LocalMap().NKeyFrames()
			sp.mappoints += ss.LocalMap().NMapPoints()
		}
	}
	return sp, nil
}

// runTraced performs the traced run: (a) the real topology with spans
// recorded around the generator's calls into each layer, (b) the
// in-process server pass over the uplink (a) sent, (c) the fixed-input
// kernels. It fills in every per-layer metric and writes the spans to
// bench/out/trace-<workload>.json.
func runTraced(w *workload, in *inputs, dir string, lap float64, rp *report) error {
	origin := time.Now()
	recs := make([]*recorder, len(w.devices(in)))
	for i := range recs {
		recs[i] = newRecorder(origin, i*spanBase)
	}
	outs, ex, err := runLaps(w, in, dir, lap, 1, recs)
	if outs == nil {
		return err
	}
	out := outs[0]
	t := count(outs, ex)
	rp.fill(w, outs, t)

	// Spans of every traced frame go to the trace file; the medians are
	// taken over the frames the host-noise guard passed.
	var gen, quiet []span
	for i, r := range recs {
		gen = append(gen, r.spans...)
		for _, sp := range r.spans {
			if out.sessions[i].recs[sp.Frame].quiet {
				quiet = append(quiet, sp)
			}
		}
	}
	med := spanMedians(quiet)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// (a) the real topology: what the end-to-end run measures but does
	// not gate, then the generator-side spans.
	put("pose.p95_ms", percentile(t.latMs, 95), "ms")
	put("pose.frames_per_s", t.framesPerS, "1/s")
	put("client.build_ms", med["client.build"], "ms")
	put("video.encode_ms", med["video.encode"], "ms")
	put("client.apply_ms", med["client.apply"], "ms")
	put("client.cpu_ms_per_frame", t.clientCPUms, "ms")
	var ate float64
	for _, s := range out.sessions {
		if a := s.dev.ateCm(); a > ate {
			ate = a
		}
	}
	put("client.ate_cm", ate, "cm")
	put("protocol.frame_codec_us", med["protocol.frame_codec"]*1e3, "us")
	put("protocol.keypoint_codec_us", med["protocol.keypoint_codec"]*1e3, "us")
	put("protocol.pose_codec_us", med["protocol.pose_codec"]*1e3, "us")
	put("protocol.uplink_bytes", mean(t.upBits)/8, "B")
	put("transport.rtt_ms", med["transport.rtt"], "ms")
	put("trace.frame_ms", med["frame"], "ms")
	put("trace.unaccounted_ms", unaccountedMs(quiet, "frame"), "ms")
	put("trace.overhead_pct", overheadPct(out.sessions), "%")

	// (b) server pass.
	sp, err := runServerPass(out.sessions, origin)
	if err != nil {
		return err
	}
	if sp.untracked > 0 {
		rp.Problems = append(rp.Problems, fmt.Sprintf("server pass lost tracking on %d frames", sp.untracked))
	}
	handle := median(sp.handleMs)
	total := median(sp.stagesMs[4])
	put("server.handle_ms", handle, "ms")
	put("server.other_ms", handle-total, "ms")
	put("server.allocs_per_frame", sp.allocs, "count")
	put("tracking.extract_ms", median(sp.stagesMs[0]), "ms")
	put("tracking.match_ms", median(sp.stagesMs[1]), "ms")
	put("tracking.pose_predict_ms", median(sp.stagesMs[2]), "ms")
	put("tracking.search_local_ms", median(sp.stagesMs[3]), "ms")
	put("tracking.total_ms", total, "ms")
	put("trackpool.queue_ms", sp.queueMs, "ms")
	put("trackpool.busy_ms", sp.busyMs, "ms")
	put("trackpool.batches", sp.batches, "count")
	put("merge.total_ms", sp.mergeMs[0], "ms")
	put("merge.detect_ms", sp.mergeMs[1], "ms")
	put("merge.ba_ms", sp.mergeMs[2], "ms")
	put("merge.fused_points", float64(sp.fused), "count")
	put("smap.keyframes", float64(sp.keyframes), "count")
	put("smap.mappoints", float64(sp.mappoints), "count")

	// (a) minus (b), and the cluster's own rows.
	put("transport.direct_ms", 0, "ms")
	put("cluster.front_hop_ms", 0, "ms")
	put("cluster.front_cpu_ms_per_frame", 0, "ms")
	put("cluster.shard_cpu_ms_per_frame", 0, "ms")
	if !w.cluster {
		put("transport.direct_ms", med["transport.rtt"]-handle, "ms")
	} else if len(t.childCPUms) == 3 {
		put("cluster.shard_cpu_ms_per_frame", t.childCPUms[0]+t.childCPUms[1], "ms")
		put("cluster.front_cpu_ms_per_frame", t.childCPUms[2], "ms")
		// The same bytes, closed loop, straight to one server.
		direct := *w
		direct.cluster = false
		douts, dex, err := runLaps(&direct, in, dir, lap, 1, nil)
		if douts == nil {
			return err
		}
		if err != nil {
			rp.Problems = append(rp.Problems, "direct comparison pass: "+err.Error())
		}
		put("cluster.front_hop_ms", median(t.rttMs)-median(count(douts, dex).rttMs), "ms")
	}

	// (c) kernels.
	if err := kernels(in.mh04, dir, m); err != nil {
		return err
	}
	put("host.calib_ms", ms(calibrate()), "ms")
	put("host.exposure_pct", t.exposurePct, "%")

	for _, d := range perLayer {
		if _, have := m[d.Name]; !have {
			return fmt.Errorf("traced run did not produce %s", d.Name)
		}
	}
	if len(m) != len(perLayer) {
		return fmt.Errorf("traced run produced %d figures, BENCHMARK.json declares %d", len(m), len(perLayer))
	}
	rp.Result.Correct = len(rp.Problems) == 0
	rp.Result.Metrics = m
	b, err := json.Marshal(traceFile{Workload: w.name, Seed: rp.Seed, Spans: append(gen, sp.spans...)})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), b, 0o644)
}

// overheadPct compares the traced and the untraced half of the measured
// frames of one run: the difference of their median latencies as a
// share of the untraced median.
func overheadPct(sessions []*session) float64 {
	var traced, plain []float64
	for _, s := range sessions {
		if s == nil {
			continue
		}
		for k := range s.recs {
			fr := &s.recs[k]
			if !fr.quiet {
				continue
			}
			if fr.root != 0 {
				traced = append(traced, ms(fr.done.Sub(fr.began)))
			} else {
				plain = append(plain, ms(fr.done.Sub(fr.began)))
			}
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced) - median(plain)) / median(plain)
}
