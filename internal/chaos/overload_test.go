package chaos

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/cluster"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/merge"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
	"slamshare/internal/smap"
)

// burstStats is one overload client's outcome.
type burstStats struct {
	id       uint32
	sent     int
	answered int
	tracked  int
	shed     int
	lats     []time.Duration // uplink-to-answer latency per frame
}

// runBurstClient floods the server: frames are pre-built and written
// in back-to-back bursts of burstLen, then the burst's answers are
// awaited. Every frame must be answered — tracked, untracked or shed.
func runBurstClient(addr string, id uint32, seq *dataset.Sequence, nFrames, stride, burstLen int) (*burstStats, error) {
	cl := client.New(id, seq)
	msgs := make([][]byte, 0, nFrames)
	idxs := make([]uint32, 0, nFrames)
	for i := 0; i < nFrames; i++ {
		m := cl.BuildFrame(i * stride)
		msgs = append(msgs, m.Encode())
		idxs = append(idxs, m.FrameIdx)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	hello := protocol.HelloMsg{
		ClientID: id, Mode: seq.Rig.Mode,
		Intr: seq.Rig.Intr, Baseline: seq.Rig.Baseline,
	}
	if err := protocol.WriteMessage(conn, protocol.TypeHello, hello.Encode()); err != nil {
		return nil, err
	}
	st := &burstStats{id: id}
	for base := 0; base < len(msgs); base += burstLen {
		end := base + burstLen
		if end > len(msgs) {
			end = len(msgs)
		}
		t0 := time.Now()
		pending := make(map[uint32]bool)
		for k := base; k < end; k++ {
			if err := protocol.WriteMessage(conn, protocol.TypeFrame, msgs[k]); err != nil {
				return st, fmt.Errorf("client %d frame %d: %w", id, k, err)
			}
			st.sent++
			pending[idxs[k]] = true
		}
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		for len(pending) > 0 {
			mt, payload, err := protocol.ReadMessage(conn)
			if err != nil {
				return st, fmt.Errorf("client %d awaiting burst: %w", id, err)
			}
			if mt != protocol.TypePose {
				continue
			}
			pm, err := protocol.DecodePoseMsg(payload)
			if err != nil {
				return st, err
			}
			if !pending[pm.FrameIdx] {
				continue
			}
			delete(pending, pm.FrameIdx)
			st.answered++
			st.lats = append(st.lats, time.Since(t0))
			switch {
			case pm.Shed:
				st.shed++
			case pm.Tracked:
				st.tracked++
				cl.ApplyPose(int(pm.FrameIdx), pm.Pose, pm.Tracked)
			}
		}
	}
	_ = protocol.WriteMessage(conn, protocol.TypeBye, nil)
	return st, nil
}

// runLockstepClient sends one frame at a time and waits for its
// answer — the well-behaved consumer (and the merge poisoner's
// vehicle: its map grows steadily, so the sabotaged merge gets its
// retry).
func runLockstepClient(addr string, id uint32, seq *dataset.Sequence, nFrames, stride int) (*burstStats, error) {
	return runBurstClient(addr, id, seq, nFrames, stride, 1)
}

func percentile(lats []time.Duration, p float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(p * float64(len(s)-1))
	return s[k]
}

// waitNoSessions polls until every server session is reaped.
func waitNoSessions(t *testing.T, srv *server.Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.NSessions() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%d sessions still open", srv.NSessions())
}

// TestOverloadScenario drives the server at ~4x its tracking capacity:
// four clients burst frames four at a time, one well-behaved client
// sends in lockstep, and that client's first merge attempt is
// sabotaged through the MergeHook failpoint. The server must answer
// every uplink frame (stale ones flagged Shed), roll the poisoned
// merge back, merge the same client successfully on retry, keep reply
// latency bounded, and leave the global map invariant-clean.
func TestOverloadScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full overload run")
	}
	const poisonerID = 5
	cfg := cluster.HalfResConfig(false)
	cfg.Overload.ShedBudget = 15 * time.Millisecond
	cfg.Overload.MaxMergesInFlight = 1
	cfg.MergeHook = func(clientID uint32, attempt int, mg *merge.Merger) {
		if clientID == poisonerID && attempt == 0 {
			mg.Sabotage = func(tx merge.SabotageContext) {
				if kfs := tx.InsertedKFs(); len(kfs) > 0 {
					tx.SetPoses([]smap.KeyFramePose{{ID: kfs[0], Tcw: geom.SE3{
						R: geom.IdentityQuat(), T: geom.Vec3{X: math.NaN()},
					}}}, nil)
				}
			}
		}
	}
	srv, err := server.New(cfg)
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
	addr := l.Addr().String()

	seqs := make(map[string]*dataset.Sequence)
	for _, name := range []string{"MH04", "MH05"} {
		s, err := dataset.ByName(name, camera.Stereo)
		if err != nil {
			t.Fatal(err)
		}
		seqs[name] = s
	}
	// A Sequence renders for one caller at a time (its renderer caches
	// patches in a plain map), so every client gets its own over the
	// shared, read-only world.
	halfRes := func(name string) *dataset.Sequence { return dataset.HalfRes(seqs[name]) }

	type outcome struct {
		st  *burstStats
		err error
	}
	outcomes := make(chan outcome, 5)
	var wg sync.WaitGroup
	for id := uint32(1); id <= 4; id++ {
		name := "MH04"
		if id%2 == 0 {
			name = "MH05"
		}
		wg.Add(1)
		go func(id uint32, seq *dataset.Sequence) {
			defer wg.Done()
			st, err := runBurstClient(addr, id, seq, 40, 2, 4)
			outcomes <- outcome{st, err}
		}(id, halfRes(name))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := runLockstepClient(addr, poisonerID, halfRes("MH05"), 40, 2)
		outcomes <- outcome{st, err}
	}()
	wg.Wait()
	close(outcomes)

	var allLats []time.Duration
	totalShed, totalTracked := 0, 0
	for o := range outcomes {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.st.answered != o.st.sent {
			t.Errorf("client %d: %d of %d frames answered", o.st.id, o.st.answered, o.st.sent)
		}
		totalShed += o.st.shed
		totalTracked += o.st.tracked
		allLats = append(allLats, o.st.lats...)
		if o.st.id == poisonerID && o.st.shed != 0 {
			t.Errorf("lockstep client was shed %d times with no backlog", o.st.shed)
		}
	}
	waitNoSessions(t, srv)

	ns := srv.NetStats()
	if totalShed == 0 || ns.FramesShed.Load() == 0 {
		t.Errorf("4x overload shed nothing (wire %d, counter %d)", totalShed, ns.FramesShed.Load())
	}
	if totalTracked == 0 {
		t.Error("nothing tracked under overload")
	}
	if got := ns.MergeRollbacks.Load(); got < 1 {
		t.Errorf("MergeRollbacks = %d, want >= 1 (sabotaged merge)", got)
	}
	if got := ns.MergeQuarantines.Load(); got != 0 {
		t.Errorf("MergeQuarantines = %d; one sabotaged attempt must not quarantine", got)
	}
	// The poisoner's retry must have succeeded: its keyframes are in
	// the global map despite the first attempt being rolled back.
	poisonerKFs := 0
	for _, kf := range srv.Global().KeyFrames() {
		if kf.Client == poisonerID {
			poisonerKFs++
		}
	}
	if poisonerKFs == 0 {
		t.Error("poisoner's map never merged after the rollback")
	}
	if p99 := percentile(allLats, 0.99); p99 > 5*time.Second {
		t.Errorf("p99 answer latency %v exceeds 5s bound", p99)
	}
	rep := srv.Global().CheckInvariants()
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	t.Logf("overload: %d tracked, %d shed, %d merges, %d rollbacks, p50 %v p99 %v, %d KFs / %d MPs",
		totalTracked, totalShed, len(srv.MergeReports()), ns.MergeRollbacks.Load(),
		percentile(allLats, 0.5), percentile(allLats, 0.99), rep.KeyFrames, rep.MapPoints)
}

// TestFrozenPeerEvicted is the regression for serveConn wedging
// forever on a peer that stalls: both a mid-message stall (partial
// header, then silence) and a hello-then-silence idle peer must be
// evicted by the read watchdog, releasing their sessions.
func TestFrozenPeerEvicted(t *testing.T) {
	cfg := cluster.HalfResConfig(false)
	cfg.Overload.ReadTimeout = 300 * time.Millisecond
	cfg.Overload.IdleTimeout = 600 * time.Millisecond
	srv, err := server.New(cfg)
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
	addr := l.Addr().String()

	hello := protocol.HelloMsg{ClientID: 1, Mode: camera.Mono, Intr: camera.EuRoCIntrinsics()}

	// Mid-message freeze: a session-holding peer writes 3 of a frame
	// header's 5 bytes and stalls. Before per-message deadlines the
	// server goroutine blocked in that read forever.
	frozen, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer frozen.Close()
	if err := protocol.WriteMessage(frozen, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := frozen.Write([]byte{protocol.TypeFrame, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && srv.NetStats().IdleEvicted.Load() < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.NetStats().IdleEvicted.Load(); got < 1 {
		t.Fatal("frozen peer never evicted")
	}
	waitNoSessions(t, srv)

	// Idle peer: hello, then nothing. The idle window (longer than the
	// stall window) evicts it too.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	hello.ClientID = 2
	if err := protocol.WriteMessage(idle, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && srv.NetStats().IdleEvicted.Load() < 2 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := srv.NetStats().IdleEvicted.Load(); got < 2 {
		t.Fatal("idle peer never evicted")
	}
	waitNoSessions(t, srv)
}
