package server

import (
	"net"
	"sort"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/metrics"
	"slamshare/internal/netem"
	"slamshare/internal/obs"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
)

// lockstep drives a client against its server session synchronously
// (frame-accurate virtual time) for n frames with the given stride,
// applying poses with an artificial lag of lagFrames frames.
func lockstep(t *testing.T, sess *Session, c *client.Client, n, stride, lagFrames int) []Result {
	t.Helper()
	type pending struct {
		idx int
		res Result
		due int
	}
	var queue []pending
	var results []Result
	step := 0
	for i := 0; i < n; i += stride {
		msg := c.BuildFrame(i)
		res, err := sess.HandleFrame(msg)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		results = append(results, res)
		queue = append(queue, pending{idx: i, res: res, due: step + lagFrames})
		for len(queue) > 0 && queue[0].due <= step {
			p := queue[0]
			queue = queue[1:]
			c.ApplyPose(p.idx, p.res.Pose, p.res.Tracked)
		}
		step++
	}
	for _, p := range queue {
		c.ApplyPose(p.idx, p.res.Pose, p.res.Tracked)
	}
	return results
}

func TestSingleClientEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seq := dataset.MH04(camera.Stereo)
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(1, seq)
	const n = 120
	results := lockstep(t, sess, cl, n, 1, 2)
	tracked := 0
	for _, r := range results {
		if r.Tracked {
			tracked++
		}
	}
	if tracked < n*8/10 {
		t.Fatalf("only %d/%d frames tracked", tracked, n)
	}
	// The client's experienced trajectory must match ground truth.
	ate := metrics.ATE(cl.Trajectory(), seq.TruthTrajectory(n, 1))
	t.Logf("single client end-to-end ATE: %.3f m (uplink %.2f KB/frame)",
		ate, float64(cl.UplinkBytes())/float64(cl.FramesSent())/1024)
	if ate > 0.15 {
		t.Errorf("client ATE %.3f m too high", ate)
	}
	// The merge into the empty global map must have happened (founding
	// insert).
	if srv.Global().NKeyFrames() == 0 {
		t.Error("global map empty after run")
	}
	st := sess.Stats()
	if st.Frames != n || st.AvgStages.Total <= 0 {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestTwoClientsMergeIntoGlobalMap(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seqA := dataset.MH04(camera.Stereo)
	seqB := dataset.MH05(camera.Stereo)
	sessA, err := srv.OpenSession(1, seqA.Rig)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := srv.OpenSession(2, seqB.Rig)
	if err != nil {
		t.Fatal(err)
	}
	clA := client.New(1, seqA)
	clB := client.New(2, seqB)

	const n = 150
	// Interleave the two clients frame by frame, as the server would
	// see them arrive, returning each pose to its client.
	for i := 0; i < n; i++ {
		resA, err := sessA.HandleFrame(clA.BuildFrame(i))
		if err != nil {
			t.Fatalf("A frame %d: %v", i, err)
		}
		clA.ApplyPose(i, resA.Pose, resA.Tracked)
		resB, err := sessB.HandleFrame(clB.BuildFrame(i))
		if err != nil {
			t.Fatalf("B frame %d: %v", i, err)
		}
		clB.ApplyPose(i, resB.Pose, resB.Tracked)
	}
	if !sessA.Stats().Merged {
		t.Error("client A never merged")
	}
	if !sessB.Stats().Merged {
		t.Error("client B never merged into the shared map")
	}
	reports := srv.MergeReports()
	if len(reports) < 2 {
		t.Fatalf("merge reports = %d", len(reports))
	}
	// First report is the founding insert; the second is a real merge
	// with alignment.
	real := reports[1]
	if real.Alignment == nil {
		t.Fatal("second merge has no alignment")
	}
	t.Logf("merge: detect %v, insert %v, fuse %v (%d pts), BA %v, total %v",
		real.Detect, real.Insert, real.Fuse, real.FusedPts, real.BA, real.Total)
	// The paper's headline: merges complete within ~200 ms.
	if real.Total.Seconds() > 2.0 {
		t.Errorf("merge took %v", real.Total)
	}
	// Both clients' keyframes must coexist in the global map.
	global := srv.Global()
	clients := map[int]bool{}
	for _, kf := range global.KeyFrames() {
		clients[kf.Client] = true
	}
	if !clients[1] || !clients[2] {
		t.Errorf("global map missing a client: %v", clients)
	}
	// Accuracy of both clients after merging.
	ateA := metrics.ATE(clA.Trajectory(), seqA.TruthTrajectory(n, 1))
	ateB := metrics.ATE(clB.Trajectory(), seqB.TruthTrajectory(n, 1))
	t.Logf("post-merge ATE: A %.3f m, B %.3f m", ateA, ateB)
	if ateA > 0.2 || ateB > 0.2 {
		t.Errorf("post-merge ATE too high: %.3f / %.3f", ateA, ateB)
	}
}

func TestServeOverTCPWithNetem(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := netem.Wrap(raw, netem.DelayOnly(5e6)) // 5 ms each way

	seq := dataset.MH04(camera.Stereo)
	cl := client.New(7, seq)
	frames := make([]int, 40)
	for i := range frames {
		frames[i] = i
	}
	if err := cl.Run(client.ConnDialer(conn), frames, overload.Backoff{}); err != nil {
		t.Fatal(err)
	}
	ate := metrics.ATE(cl.Trajectory(), seq.TruthTrajectory(40, 1))
	t.Logf("TCP end-to-end ATE over shaped link: %.3f m", ate)
	if ate > 0.2 {
		t.Errorf("ATE %.3f m over TCP", ate)
	}
}

func TestOpenSessionDuplicate(t *testing.T) {
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rig := camera.NewMonoRig(camera.EuRoCIntrinsics())
	if _, err := srv.OpenSession(1, rig); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenSession(1, rig); err == nil {
		t.Error("duplicate session accepted")
	}
	srv.CloseSession(1)
	if _, err := srv.OpenSession(1, rig); err != nil {
		t.Errorf("reopen after close failed: %v", err)
	}
}

// serveTestListener starts a Serve loop and returns the dial address.
func serveTestListener(t *testing.T, srv *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	return l.Addr().String()
}

// waitCounter polls a counter until it reaches want or the deadline
// expires (serveConn runs asynchronously).
func waitCounter(t *testing.T, c *obs.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Load() >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("counter stuck at %d, want %d", c.Load(), want)
}

func TestServeRejectsDuplicateHello(t *testing.T) {
	srv, err := New(DefaultConfig())
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
	hello := protocol.HelloMsg{ClientID: 5, Mode: camera.Mono}
	if err := protocol.WriteMessage(conn, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &srv.NetStats().SessionsOpened, 1)
	if n := srv.NSessions(); n != 1 {
		t.Fatalf("%d sessions after hello", n)
	}
	// The regression: a second hello on the same connection used to
	// reassign the session and leak the first one past the deferred
	// close. It must now drop the connection and release the session.
	if err := protocol.WriteMessage(conn, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &srv.NetStats().DupHello, 1)
	waitCounter(t, &srv.NetStats().SessionsClosed, 1)
	if n := srv.NSessions(); n != 0 {
		t.Fatalf("%d sessions leaked after duplicate hello", n)
	}
	// Dropped (no Bye), and the client ID is reusable immediately.
	if got := srv.NetStats().SessionsDropped.Load(); got != 1 {
		t.Errorf("SessionsDropped = %d, want 1", got)
	}
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := protocol.WriteMessage(conn2, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &srv.NetStats().SessionsOpened, 2)
}

func TestServeCountsBadHelloAndRejects(t *testing.T) {
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := serveTestListener(t, srv)

	// Malformed hello payload.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := protocol.WriteMessage(conn, protocol.TypeHello, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &srv.NetStats().BadHello, 1)

	// Same client ID on two live connections: the second is refused.
	hello := protocol.HelloMsg{ClientID: 9, Mode: camera.Mono}
	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := protocol.WriteMessage(a, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &srv.NetStats().SessionsOpened, 1)
	b, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := protocol.WriteMessage(b, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, &srv.NetStats().BadHello, 2)
	if n := srv.NSessions(); n != 1 {
		t.Fatalf("%d sessions, want 1", n)
	}
}

// TestPooledTrackingMatchesIndependent is the whole-pipeline half of
// the batching equivalence contract: the same sequence tracked through
// the shared pool must match a server with batching disabled
// (TrackWorkers < 0) exactly. The pool's kernels are bit-identical to
// serial (covered at the extraction layer by trackpool's
// TestStreamExtractionMatchesSerial) and nothing after them sums in an
// order of its own (DESIGN §4), so tracking decisions, inlier counts
// and poses are compared for equality.
func TestPooledTrackingMatchesIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	const n = 40
	run := func(trackWorkers int) ([]Result, int, int) {
		cfg := DefaultConfig()
		cfg.TrackWorkers = trackWorkers
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		seq := dataset.MH04(camera.Stereo)
		sess, err := srv.OpenSession(1, seq.Rig)
		if err != nil {
			t.Fatal(err)
		}
		cl := client.New(1, seq)
		res := lockstep(t, sess, cl, n, 1, 2)
		return res, srv.Global().NKeyFrames(), srv.Global().NMapPoints()
	}
	indep, ikf, imp := run(-1)
	pooled, pkf, pmp := run(2)
	if len(indep) != len(pooled) {
		t.Fatalf("result count differs: %d vs %d", len(indep), len(pooled))
	}
	for i := range indep {
		a, b := indep[i], pooled[i]
		if a.Tracked != b.Tracked || a.Degraded != b.Degraded || a.Inliers != b.Inliers || a.Pose != b.Pose {
			t.Fatalf("frame %d diverges:\nindependent %+v\npooled      %+v", i, a, b)
		}
	}
	if ikf != pkf || imp != pmp {
		t.Errorf("map growth diverges: independent %d KFs/%d MPs, pooled %d KFs/%d MPs", ikf, imp, pkf, pmp)
	}
}

// TestStageTimersAreWallTime pins what Result.Timing (and with it
// /debug/vars track.* and the benchmark's tracking.*_ms rows) means on
// the serving path: measured wall time. The stages are disjoint
// intervals inside Total, Total is an interval inside HandleFrame, and
// what HandleFrame spends outside tracking — decode, mapping,
// bookkeeping — is the smaller share of the frame: 15 % while the
// tracker extracted both eyes, 25–27 % since it searches the right one
// (video decode's ~4 ms did not shrink with it). A backend reporting
// modeled time breaks the last bound: its Total is discounted below
// the time the frame really took, and the discount lands in the
// remainder (56–59 % of wall with the simulated GPU behind the pool,
// when the honest remainder was 15 %).
func TestStageTimersAreWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	srv, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seq := dataset.MH04(camera.Stereo)
	sess, err := srv.OpenSession(1, seq.Rig)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(1, seq)
	const want = 30
	var outside []float64 // (wall - Total) / wall per tracked frame
	for i := 0; len(outside) < want; i++ {
		if i == 2*want {
			t.Fatalf("only %d of %d frames tracked", len(outside), i)
		}
		msg := cl.BuildFrame(i)
		t0 := time.Now()
		res, err := sess.HandleFrame(msg)
		wall := time.Since(t0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		cl.ApplyPose(i, res.Pose, res.Tracked)
		if !res.Tracked {
			continue
		}
		tm := res.Timing
		if sum := tm.Extract + tm.Match + tm.PosePredict + tm.SearchLocal; sum > tm.Total || tm.Total > wall {
			t.Fatalf("frame %d: stages %v ≤ Total %v ≤ HandleFrame %v does not hold (%+v)", i, sum, tm.Total, wall, tm)
		}
		outside = append(outside, float64(wall-tm.Total)/float64(wall))
	}
	sort.Float64s(outside)
	if med := outside[len(outside)/2]; med > 0.40 {
		t.Errorf("median share of HandleFrame outside Timing.Total = %.0f %%, want ≤ 40 %%", 100*med)
	} else {
		t.Logf("median share of HandleFrame outside Timing.Total = %.1f %%", 100*med)
	}
}
