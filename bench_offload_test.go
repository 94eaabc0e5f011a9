// Offload-mode benchmark: the per-frame end-to-end server cost of
// each offload mode as sessions scale. Full mode pays video decode +
// extraction + tracking; split mode enters the tracker at pose
// prediction with client-extracted keypoints; shadow mode only warms
// the motion model. The headline is e2e-p50-ms.
package slamshare_test

import (
	"sort"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
)

// offloadBenchMode names one uplink shape of BenchmarkOffloadModes.
type offloadBenchMode string

const (
	benchFull   offloadBenchMode = "full"
	benchSplit  offloadBenchMode = "split"
	benchShadow offloadBenchMode = "shadow"
)

// buildOffloadMsgs pre-builds one client's uplink messages so the
// timed loop measures only the server side. Full mode re-encodes the
// video per session (the stream is stateful); split and shadow build
// keypoint messages round-tripped through the wire encoding.
func buildOffloadMsgs(b *testing.B, mode offloadBenchMode, id uint32,
	seq *dataset.Sequence, frames, stride int) []*protocol.KeypointMsg {
	b.Helper()
	if mode == benchFull {
		return nil
	}
	cl := client.New(id, seq)
	msgs := make([]*protocol.KeypointMsg, 0, frames)
	for k := 0; k < frames; k++ {
		var m *protocol.KeypointMsg
		if mode == benchSplit {
			m = cl.BuildKeypointFrame(k * stride)
		} else {
			m = cl.BuildSync(k * stride)
		}
		m2, err := protocol.DecodeKeypointMsg(m.Encode())
		if err != nil {
			b.Fatal(err)
		}
		msgs = append(msgs, m2)
	}
	return msgs
}

// BenchmarkOffloadModes runs full|split|shadow uplinks against 1, 4
// and 8 concurrent-session servers in lockstep rounds and reports the
// per-frame end-to-end p50 (time from handing the uplink to the
// session until its pose answer).
func BenchmarkOffloadModes(b *testing.B) {
	const frames, stride = 24, 2
	seq := dataset.MH04(camera.Stereo)
	for _, mode := range []offloadBenchMode{benchFull, benchSplit, benchShadow} {
		for _, nSess := range []int{1, 4, 8} {
			b.Run(string(mode)+"/"+benchName("sessions", nSess), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					srv, err := server.New(server.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					sessions := make([]*server.Session, nSess)
					clients := make([]*client.Client, nSess)
					kpMsgs := make([][]*protocol.KeypointMsg, nSess)
					for j := 0; j < nSess; j++ {
						id := uint32(j + 1)
						sessions[j], err = srv.OpenSession(id, seq.Rig)
						if err != nil {
							b.Fatal(err)
						}
						clients[j] = client.New(id, seq)
						kpMsgs[j] = buildOffloadMsgs(b, mode, id, seq, frames, stride)
					}
					lats := make([]time.Duration, 0, nSess*frames)
					b.StartTimer()
					for k := 0; k < frames; k++ {
						for j := 0; j < nSess; j++ {
							var t0 time.Time
							switch mode {
							case benchSplit:
								t0 = time.Now()
								if _, err := sessions[j].HandleKeypoints(kpMsgs[j][k]); err != nil {
									b.Fatal(err)
								}
							case benchShadow:
								t0 = time.Now()
								sessions[j].HandleSync(kpMsgs[j][k])
							default:
								msg := clients[j].BuildFrame(k * stride)
								t0 = time.Now()
								if _, err := sessions[j].HandleFrame(msg); err != nil {
									b.Fatal(err)
								}
							}
							lats = append(lats, time.Since(t0))
						}
					}
					b.StopTimer()
					srv.Close()
					sort.Slice(lats, func(x, y int) bool { return lats[x] < lats[y] })
					p50 := lats[len(lats)/2]
					p99 := lats[int(0.99*float64(len(lats)-1))]
					b.ReportMetric(float64(p50.Microseconds())/1000, "e2e-p50-ms")
					b.ReportMetric(float64(p99.Microseconds())/1000, "e2e-p99-ms")
				}
			})
		}
	}
}
