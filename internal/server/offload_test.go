package server

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/obs"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
)

// runOffloadRun drives one single-session run in the given mode via
// the direct session API and returns the per-frame results. Split
// frames round-trip through the wire encoding, so the comparison also
// covers bit-exactness of the keypoint serialization.
func runOffloadRun(t *testing.T, split bool, n int) ([]Result, *Server) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrackWorkers = -1 // serial: bit-for-bit deterministic
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	seq := dataset.MH04(camera.Stereo)
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(1, seq)
	if !split {
		// Intra frames are lossless, so the server decodes exactly the
		// pixels the split client extracts from. This makes the two
		// modes' inputs identical; inter coding would diverge them.
		cl.UseImageTransfer()
	}
	var out []Result
	for i := 0; i < n; i++ {
		var res Result
		if split {
			msg, err := protocol.DecodeKeypointMsg(cl.BuildKeypointFrame(i).Encode())
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if res, err = sess.HandleKeypoints(msg); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		} else {
			var err error
			if res, err = sess.HandleFrame(cl.BuildFrame(i)); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		cl.ApplyPose(i, res.Pose, res.Tracked)
		out = append(out, res)
	}
	return out, srv
}

// TestSplitModeMatchesFull is the split-offload equivalence contract:
// a session whose client extracts keypoints on-device (same
// feature.Extractor code path, bit-identical keypoints) must produce
// the same tracked poses, bit for bit, as a full-offload session fed
// losslessly coded video of the same frames.
func TestSplitModeMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	const n = 60
	full, _ := runOffloadRun(t, false, n)
	split, srv := runOffloadRun(t, true, n)
	if len(full) != len(split) {
		t.Fatalf("result count differs: %d vs %d", len(full), len(split))
	}
	tracked := 0
	for i := range full {
		f, s := full[i], split[i]
		if f.Tracked != s.Tracked {
			t.Fatalf("frame %d decision diverges:\nfull  %+v\nsplit %+v", i, f, s)
		}
		if f.Inliers != s.Inliers {
			t.Fatalf("frame %d inliers diverge: full %d, split %d", i, f.Inliers, s.Inliers)
		}
		if f.Pose != s.Pose {
			t.Fatalf("frame %d pose diverges:\nfull  %+v\nsplit %+v", i, f.Pose, s.Pose)
		}
		if f.Tracked {
			tracked++
		}
		// Split frames never ran the server-side extract/match stages.
		if s.Timing.Extract != 0 || s.Timing.Match != 0 {
			t.Fatalf("frame %d split timing has extract/match: %+v", i, s.Timing)
		}
	}
	if tracked < n*8/10 {
		t.Fatalf("only %d/%d frames tracked", tracked, n)
	}
	if got := srv.NetStats().FramesSplit.Load(); got != n {
		t.Errorf("FramesSplit = %d, want %d", got, n)
	}
}

// TestSplitSpanTraceSkipsStages scrapes /debug/spans after a pure
// split-mode run: the trace must contain no video decode, no
// track.extract, and no track.match spans — those stages moved to the
// device — while the remaining pipeline (track.total, frame.total)
// still reports.
func TestSplitSpanTraceSkipsStages(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	_, srv := runOffloadRun(t, true, 30)

	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/spans?n=500")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/spans: %v", err)
	}
	if len(doc.Spans) == 0 {
		t.Fatal("no spans recorded after a 30-frame split run")
	}
	seen := map[string]int{}
	for _, sp := range doc.Spans {
		seen[sp.Stage]++
	}
	for _, gone := range []string{"decode", "track.extract", "track.match", "client.encode"} {
		if n := seen[gone]; n != 0 {
			t.Errorf("split-mode trace contains %d %q spans", n, gone)
		}
	}
	for _, want := range []string{"track.total", "frame.total"} {
		if seen[want] == 0 {
			t.Errorf("split-mode trace missing %q spans (saw %v)", want, seen)
		}
	}
}

// TestAdaptiveSessionDowngradesOverTCP drives the full adaptive wire
// path: a drone-class client is pushed off full offload by the RTT it
// reports, receives the ModeSwitch downlink, and switches its uplink
// format mid-run.
func TestAdaptiveSessionDowngradesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	cfg := DefaultConfig()
	// Any measured RTT at all downgrades — the trigger is the first
	// uplink sent after the first echoed answer, not a backlog that only
	// forms when the sender happens to outrun the server — and load
	// never does. The dwell outlasts the run so the downgrade sticks:
	// every frame built after it must arrive as a keypoint upload.
	cfg.Offload = offload.Config{
		SplitLoad:  1e6,
		ShadowLoad: 1e6,
		SplitRTT:   time.Nanosecond,
		Hysteresis: time.Minute,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := serveTestListener(t, srv)

	seq := dataset.MH04(camera.Stereo)
	cl := client.New(3, seq)
	// Camera-rate pacing: an open loop, so the switch lands with frames
	// in flight, and 1.8 s of sender sleep in which the server answers
	// the handful of frames the trigger needs.
	cl.Pace = 30 * time.Millisecond
	cl.EnableAdaptive(offload.QoSDrone, offload.CapSplit|offload.CapShadow)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]int, 60)
	for i := range frames {
		frames[i] = i
	}
	if err := cl.Run(client.ConnDialer(conn), frames, overload.Backoff{}); err != nil {
		t.Fatal(err)
	}
	if got := srv.NetStats().ModeSwitches.Load(); got == 0 {
		t.Error("server pushed no mode switches")
	}
	log := cl.ModeLog()
	if len(log) == 0 {
		t.Fatal("client applied no mode switches")
	}
	if log[0].Mode != offload.ModeSplit {
		t.Errorf("first switch = %v, want split", log[0].Mode)
	}
	if got := srv.NetStats().FramesSplit.Load() + srv.NetStats().SyncPings.Load(); got == 0 {
		t.Error("no split frames or sync pings reached the server after the switch")
	}
	if cl.RTTEstimate() <= 0 {
		t.Error("client has no RTT estimate despite echoed poses")
	}

	// A hello naming neither split nor shadow — a QoS-0 headset, as the
	// benchmark's devices send — gets no controller: the same RTT moves
	// it nowhere, and its poses are echoed all the same.
	switches := srv.NetStats().ModeSwitches.Load()
	pinned := client.New(4, seq)
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := pinned.Run(client.ConnDialer(conn), frames[:10], overload.Backoff{}); err != nil {
		t.Fatal(err)
	}
	if got := srv.NetStats().ModeSwitches.Load(); got != switches || len(pinned.ModeLog()) != 0 {
		t.Errorf("a caps-0 session saw %d mode switches", got-switches)
	}
	if pinned.RTTEstimate() <= 0 {
		t.Error("a caps-0 session's poses carry no echo")
	}
}
