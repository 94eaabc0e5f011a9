package chaos

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/cluster"
	"slamshare/internal/dataset"
	"slamshare/internal/obs"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
)

// scrapeFrontVars fetches a front child's /debug/vars snapshot.
func scrapeFrontVars(debugAddr string) (*obs.RegistrySnapshot, error) {
	resp, err := http.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// TestClusterFrontKill is the front-failover chaos scenario: two real
// shard processes, two real front processes sharing the shard table,
// four mixed-QoS resumable sessions — one crossing the shard boundary
// (its handoff held open by front 0's HandoffStall failpoint), one
// pinned to split mode — and a SIGKILL landing on front 0 exactly
// inside the stalled handoff, with every other session mid-stream.
// All sessions must resume on the surviving front by presenting their
// session tokens: every frame answered exactly once, token epochs
// never regressing (the begun-but-dead handoff epoch is not reused —
// the survivor learns it from the shard-side resume probe), tracking
// continuing after the kill, and the cluster invariants clean at the
// end.
func TestClusterFrontKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster chaos is minutes-long")
	}
	const (
		token  = uint64(0xF00DF00D)
		rounds = 60
		stride = 4
	)
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	sh0, err := SpawnShard(ShardSpec{Bin: bin, ID: 0, Token: token, Addr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh0.Kill()
	sh1, err := SpawnShard(ShardSpec{Bin: bin, ID: 1, Token: token, Addr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh1.Kill()
	shardAddrs := []string{sh0.Addr, sh1.Addr}

	// Front 0 carries the mid-handoff failpoint: every handoff it runs
	// is held open for 20 s between the source's boundary export and
	// the offer to the target — the killer is aimed into that window.
	// Front 1 is the survivor, identically configured minus the stall.
	fr0, err := SpawnFront(FrontSpec{
		Bin: bin, ID: 100, Token: token, Addr: "127.0.0.1:0",
		Shards: shardAddrs, PartMin: 0, PartMax: 180, PartHysteresis: 5,
		HandoffStallMs: 20000, Debug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr0.Kill()
	fr1, err := SpawnFront(FrontSpec{
		Bin: bin, ID: 101, Token: token, Addr: "127.0.0.1:0",
		Shards: shardAddrs, PartMin: 0, PartMax: 180, PartHysteresis: 5,
		Debug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fr1.Kill()
	frontAddrs := []string{fr0.Addr, fr1.Addr}

	// The killer waits for front 0 to enter a handoff's stall window
	// (the handoff_stalls gauge is bumped before the sleep), then
	// SIGKILLs it — mid-handoff for the crossing session, mid-stream
	// for everyone else. Front 0 is never respawned: resuming must not
	// depend on the dead replica coming back.
	killed := &atomic.Bool{}
	killErrCh := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(8 * time.Minute)
		for time.Now().Before(deadline) {
			snap, err := scrapeFrontVars(fr0.DebugAddr)
			if err == nil && snap.Counters["front.handoff_stalls"] >= 1 {
				fr0.Kill()
				killed.Store(true)
				killErrCh <- nil
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		killErrCh <- fmt.Errorf("front 0 never entered a handoff stall")
	}()

	// Four mixed-QoS sessions. Client 21 crosses the x=90 boundary,
	// triggering the stalled handoff the killer fires into; 22 stays on
	// shard 0; 23 is pinned to split mode (keypoint uplinks only) on
	// shard 1; 24 is a plain full-mode session on shard 1.
	walkers := []*walker{
		{id: 21, qos: offload.QoSHeadset,
			seq: dataset.HalfRes(dataset.CityRoute("fk-cross", [][2]int{{1, 1}, {3, 1}}, 7, camera.Stereo, 921))},
		{id: 22, qos: offload.QoSHandheld,
			seq: dataset.HalfRes(dataset.CityRoute("fk-west", [][2]int{{0, 1}, {1, 1}, {1, 2}}, 7, camera.Stereo, 922))},
		{id: 23, qos: offload.QoSDrone, caps: offload.CapSplit, split: true,
			seq: dataset.HalfRes(dataset.CityRoute("fk-east1", [][2]int{{2, 2}, {2, 1}, {3, 1}}, 7, camera.Stereo, 923))},
		{id: 24, qos: offload.QoSHeadset,
			seq: dataset.HalfRes(dataset.CityRoute("fk-east2", [][2]int{{3, 2}, {3, 1}, {2, 1}}, 7, camera.Stereo, 924))},
	}
	bar := newRoundBarrier(len(walkers), nil)
	walkAll(walkers, frontAddrs, strideFrames(rounds, stride), bar, killed,
		overload.Backoff{Base: 50, Factor: 2, Max: 1000, Jitter: 0.2})

	for _, w := range walkers {
		if w.err != nil {
			t.Errorf("client %d: %v", w.id, w.err)
		}
	}
	if err := <-killErrCh; err != nil {
		t.Fatalf("front kill: %v", err)
	}

	// Delivery contract: every frame answered exactly once on the live
	// socket (a resumable client only resends frames it has no answer
	// for), and the stationary full-mode sessions keep tracking after
	// the kill. (The crossing session's post-handoff relocalization on
	// shard 1 is timing-sensitive under load — as in TestClusterShardKill
	// — so its failover is proven by the epoch/adoption assertions below
	// and its unbroken exactly-once stream; likewise the split session.)
	for _, w := range walkers {
		if w.err != nil {
			continue
		}
		w.checkExactlyOnce(t, rounds)
		if (w.id == 22 || w.id == 24) && w.trackedAfterKill == 0 {
			t.Errorf("client %d: never tracked after the front kill", w.id)
		}
	}

	// Token log: epochs never regress across the failover, and the
	// crossing session's final epoch must exceed the epoch the dead
	// front burned on its stranded handoff (epoch 1) — proof the
	// survivor learned it from the shard-side probe and did not reuse
	// it.
	for _, w := range walkers {
		if w.err != nil {
			continue
		}
		toks := w.cl.SessionTokens()
		if len(toks) == 0 {
			t.Errorf("client %d: no session tokens observed", w.id)
			continue
		}
		for i := 1; i < len(toks); i++ {
			if toks[i].Epoch < toks[i-1].Epoch {
				t.Errorf("client %d: token epoch regressed %d -> %d",
					w.id, toks[i-1].Epoch, toks[i].Epoch)
			}
		}
		if w.id == 21 && toks[len(toks)-1].Epoch < 2 {
			t.Errorf("client 21: final token epoch %d, want >= 2 (stranded handoff epoch reused?)",
				toks[len(toks)-1].Epoch)
		}
		if w.split && toks[len(toks)-1].Shard != 1 {
			t.Errorf("client %d: split session token on shard %d, want 1",
				w.id, toks[len(toks)-1].Shard)
		}
	}

	// Adoption accounting on the survivor: all four sessions presented
	// tokens after the kill, every probe succeeded.
	snap, err := scrapeFrontVars(fr1.DebugAddr)
	if err != nil {
		t.Fatalf("scrape survivor: %v", err)
	}
	if got := snap.Counters["front.sessions_adopted"]; got < int64(len(walkers)) {
		t.Errorf("survivor adopted %d sessions, want >= %d", got, len(walkers))
	}
	if got := snap.Counters["front.resume_failures"]; got != 0 {
		t.Errorf("survivor recorded %d resume failures, want 0", got)
	}

	// Let the shard-side sessions drain, then check the cluster.
	drainShards(t, shardAddrs, token)
	rep, err := cluster.CheckCluster(shardAddrs, token)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("final cluster invariants: %s", clusterSummary(rep))
	}
	t.Logf("front failover: adopted=%d trackedAfterKill: 21=%d 22=%d 24=%d",
		snap.Counters["front.sessions_adopted"],
		walkers[0].trackedAfterKill, walkers[1].trackedAfterKill, walkers[3].trackedAfterKill)
}

// TestTokenlessClientFrontKill proves the failover path degrades
// cleanly for a client that never advertised CapResume: when its front
// dies it redials the survivor with a plain hello — no token, no
// adoption — gets a fresh session that relocalizes against the shard's
// map, and never sees a duplicate answer or a token.
func TestTokenlessClientFrontKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos")
	}
	const (
		token     = uint64(0xFEEDFACE)
		rounds    = 24
		stride    = 4
		killRound = 8
	)
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := SpawnShard(ShardSpec{Bin: bin, ID: 0, Token: token, Addr: "127.0.0.1:0", Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Kill()
	spec := FrontSpec{
		Bin: bin, Token: token, Addr: "127.0.0.1:0",
		Shards: []string{sh.Addr}, PartMin: 0, PartMax: 240,
	}
	spec.ID = 100
	fr0, err := SpawnFront(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer fr0.Kill()
	spec.ID = 101
	fr1, err := SpawnFront(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer fr1.Kill()
	addrs := []string{fr0.Addr, fr1.Addr}

	seq := dataset.HalfRes(dataset.CityRoute("fk-tokenless", [][2]int{{0, 1}, {1, 1}, {1, 2}}, 7, camera.Stereo, 931))
	cl := client.New(31, seq)
	hello := protocol.HelloMsg{
		ClientID: 31, Mode: seq.Rig.Mode,
		Intr: seq.Rig.Intr, Baseline: seq.Rig.Baseline,
	}
	next := 0
	var conn net.Conn
	connect := func() error {
		if conn != nil {
			conn.Close()
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			c, err := net.DialTimeout("tcp", addrs[next%len(addrs)], 2*time.Second)
			next++
			if err == nil {
				if err = protocol.WriteMessage(c, protocol.TypeHello, hello.Encode()); err == nil {
					conn = c
					cl.Reconnect() // fresh front transcoder: restart intra
					return nil
				}
				c.Close()
			}
			if time.Now().After(deadline) {
				return err
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	if err := connect(); err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	answered := make(map[uint32]int)
	trackedAfterKill := 0
	for r := 0; r < rounds; r++ {
		msg := cl.BuildFrame(r * stride)
		err := protocol.WriteMessage(conn, protocol.TypeFrame, msg.Encode())
		if r == killRound {
			// Mid-frame kill: the frame is on the wire (or in the dead
			// front's buffers) when the SIGKILL lands; the read loop below
			// notices and redials the survivor.
			fr0.Kill()
		} else if err != nil {
			if err := connect(); err != nil {
				t.Fatalf("round %d: reconnect: %v", r, err)
			}
			cl.ReencodeFrame(msg, r*stride)
			if err := protocol.WriteMessage(conn, protocol.TypeFrame, msg.Encode()); err != nil {
				t.Fatalf("round %d: resend: %v", r, err)
			}
		}
		conn.SetReadDeadline(time.Now().Add(120 * time.Second))
		for {
			mt, payload, err := protocol.ReadMessage(conn)
			if err != nil {
				// The front died (or its sockets did): redial the list and
				// resend the unanswered frame into the fresh session.
				if cerr := connect(); cerr != nil {
					t.Fatalf("round %d: reconnect: %v (after %v)", r, cerr, err)
				}
				cl.ReencodeFrame(msg, r*stride)
				if err := protocol.WriteMessage(conn, protocol.TypeFrame, msg.Encode()); err != nil {
					t.Fatalf("round %d: resend: %v", r, err)
				}
				conn.SetReadDeadline(time.Now().Add(120 * time.Second))
				continue
			}
			if mt != protocol.TypePose {
				continue
			}
			pm, err := protocol.DecodePoseMsg(payload)
			if err != nil {
				t.Fatalf("round %d: decode pose: %v", r, err)
			}
			if pm.Token != nil {
				t.Errorf("round %d: tokenless session received a token", r)
			}
			answered[pm.FrameIdx]++
			if pm.FrameIdx != msg.FrameIdx {
				continue
			}
			cl.ApplyPose(int(pm.FrameIdx), pm.Pose, pm.Tracked)
			if pm.Tracked && !pm.Shed && r > killRound {
				trackedAfterKill++
			}
			break
		}
	}
	protocol.WriteMessage(conn, protocol.TypeBye, nil)

	if len(answered) != rounds {
		t.Errorf("%d distinct frames answered, sent %d", len(answered), rounds)
	}
	for idx, n := range answered {
		if n != 1 {
			t.Errorf("frame %d answered %d times", idx, n)
		}
	}
	if trackedAfterKill == 0 {
		t.Error("tokenless session never tracked after the front kill")
	}
	rep, err := cluster.CheckCluster([]string{sh.Addr}, token)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("final cluster invariants: %s", clusterSummary(rep))
	}
}

// TestFrontShardSlowRestart proves the front's dead-on-arrival
// cooldown policy: a shard that is killed and respawned with a slow
// start (the listener is up but every accepted connection dies for 5 s
// — a WAL replay stand-in) must not cost the session its front
// attachment. The old fixed strike limit dropped the session after ~20
// dead connections; the cooldown-then-retry policy keeps backing off
// until the redial budget, so the session resumes once the shard
// finishes starting.
func TestFrontShardSlowRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos")
	}
	const (
		token  = uint64(0xCAFE)
		rounds = 10
		stride = 4
	)
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sh, err := SpawnShard(ShardSpec{Bin: bin, ID: 0, Token: token, Addr: "127.0.0.1:0", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { sh.Kill() }()

	front := cluster.NewFront(cluster.FrontConfig{
		Shards: []string{sh.Addr}, Token: token,
		RedialBudget: 60 * time.Second,
	})
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(fln)
	defer front.Close()

	seq := dataset.HalfRes(dataset.CityRoute("fk-slow", [][2]int{{0, 1}, {1, 1}, {1, 2}}, 7, camera.Stereo, 941))
	w := &walker{id: 41, qos: offload.QoSHeadset, seq: seq}
	killed := &atomic.Bool{}
	bar := newRoundBarrier(1, func(round int) {
		if round != 2 {
			return
		}
		// Kill between rounds and respawn on the same address with the
		// slow-start window: every front redial inside it accepts and
		// immediately dies, exactly the dead-on-arrival pattern that
		// used to exhaust the strike limit.
		sh.Kill()
		np, err := SpawnShard(ShardSpec{
			Bin: bin, ID: 0, Token: token, Addr: sh.Addr, Dir: dir, StartDelayMs: 5000,
		})
		if err != nil {
			t.Errorf("respawn: %v", err)
			return
		}
		sh = np
		killed.Store(true)
	})
	// One link: a dropped front attachment fails the walk.
	walkAll([]*walker{w}, []string{fln.Addr().String()}, strideFrames(rounds, stride), bar, killed, overload.Backoff{MaxAttempts: 1})
	if w.err != nil {
		t.Fatalf("walker: %v", w.err)
	}
	w.checkExactlyOnce(t, rounds)
	if w.trackedAfterKill == 0 {
		t.Error("session never tracked after the slow shard restart")
	}
	if !killed.Load() {
		t.Fatal("shard was never restarted")
	}
}
