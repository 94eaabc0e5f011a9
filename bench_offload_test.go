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
	"slamshare/internal/offload"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
)

// prebuildUplinks builds a device's uplinks ahead of the timed loop,
// round-tripped through the wire encoding, so it measures only the
// server side. Full mode builds at send time instead: its video stream
// is stateful.
func prebuildUplinks(b *testing.B, cl *client.Client, frames, stride int) []protocol.Uplink {
	b.Helper()
	msgs := make([]protocol.Uplink, frames)
	for k := range msgs {
		m := cl.BuildUplink(k * stride)
		m2, err := protocol.DecodeUplink(m.Type(), m.Encode())
		if err != nil {
			b.Fatal(err)
		}
		msgs[k] = m2
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
	for _, mode := range []offload.Mode{offload.ModeFull, offload.ModeSplit, offload.ModeShadow} {
		for _, nSess := range []int{1, 4, 8} {
			b.Run(mode.String()+"/"+benchName("sessions", nSess), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					srv, err := server.New(server.DefaultConfig())
					if err != nil {
						b.Fatal(err)
					}
					sessions := make([]*server.Session, nSess)
					clients := make([]*client.Client, nSess)
					prebuilt := make([][]protocol.Uplink, nSess)
					for j := 0; j < nSess; j++ {
						id := uint32(j + 1)
						sessions[j], err = srv.OpenSession(id, seq.Rig)
						if err != nil {
							b.Fatal(err)
						}
						clients[j] = client.New(id, seq)
						clients[j].ForceMode(mode)
						if mode != offload.ModeFull {
							prebuilt[j] = prebuildUplinks(b, clients[j], frames, stride)
						}
					}
					lats := make([]time.Duration, 0, nSess*frames)
					b.StartTimer()
					for k := 0; k < frames; k++ {
						for j := 0; j < nSess; j++ {
							var msg protocol.Uplink
							if prebuilt[j] != nil {
								msg = prebuilt[j][k]
							} else {
								msg = clients[j].BuildUplink(k * stride)
							}
							t0 := time.Now()
							if _, err := sessions[j].Handle(msg, 0); err != nil {
								b.Fatal(err)
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
