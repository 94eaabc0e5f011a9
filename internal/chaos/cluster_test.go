package chaos

import (
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/cluster"
	"slamshare/internal/dataset"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
)

// TestMain doubles as the shard and front child entrypoint: SpawnShard
// and SpawnFront re-exec this test binary with SLAMSHARE_PROC set and
// the child's config in the environment, and the child runs a real
// shard server or front router instead of the test suite.
func TestMain(m *testing.M) {
	switch os.Getenv(cluster.EnvProc) {
	case "shard":
		cluster.ShardEnvMain() // never returns
	case "front":
		cluster.FrontEnvMain() // never returns
	}
	os.Exit(m.Run())
}

// TestScenarioThroughClusterFront runs an unmodified single-server
// scenario with every client dialing through a cluster front router
// instead of straight at the server. The harness's Dial hook is the
// only thing that changes — same script, same seeds, same
// expectations — proving chaos scenarios run unchanged against one
// process or a sharded topology.
func TestScenarioThroughClusterFront(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full chaos scenario")
	}
	var sc Scenario
	for _, s := range Scenarios() {
		if s.Name == "staggered-join" {
			sc = s
		}
	}
	if sc.Name == "" {
		t.Fatal("staggered-join scenario missing from the matrix")
	}
	sc.Name = "staggered-join-through-front"

	// The server address is only known once the harness is listening,
	// so the front is built lazily on the first dial, with the
	// harness's server as the sole shard.
	var (
		mu    sync.Mutex
		front *cluster.Front
		fAddr string
	)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		if front != nil {
			front.Close()
		}
	})
	sc.Dial = func(addr string) (net.Conn, error) {
		mu.Lock()
		if front == nil {
			f := cluster.NewFront(cluster.FrontConfig{Shards: []string{addr}})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				mu.Unlock()
				return nil, err
			}
			fAddr = ln.Addr().String()
			go f.Serve(ln)
			front = f
		}
		a := fAddr
		mu.Unlock()
		return net.Dial("tcp", a)
	}

	res, err := Run(sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	for _, f := range res.Failures {
		t.Errorf("expectation failed: %s", f)
	}
	t.Logf("%s through front: %d frames, %d tracked, %d merges, %d survivors",
		res.Scenario, res.FramesSent, res.Tracked, res.Merges, res.Survivors)
}

// walker is one device session a cluster test drives through
// client.Run in lockstep with the others: its OnAnswer books the answer
// and parks at the shared round barrier.
type walker struct {
	id    uint32
	qos   offload.QoS
	caps  offload.Caps
	split bool
	seq   *dataset.Sequence

	cl               *client.Client
	tracked          int
	trackedAfterKill int
	err              error
}

// strideFrames is the frame index list of an n-frame walk.
func strideFrames(n, stride int) []int {
	frames := make([]int, n)
	for i := range frames {
		frames[i] = i * stride
	}
	return frames
}

// walkAll runs every walker's session over frames, dialing addrs in
// rotation, one frame per barrier round, and returns when all have ended.
// redial is the walkers' backoff, seeded per walker with its ID;
// MaxAttempts 1 fails a walker whose one link drops, for the tests in
// which the front must keep its devices attached.
func walkAll(walkers []*walker, addrs []string, frames []int, bar *roundBarrier, killed *atomic.Bool, redial overload.Backoff) {
	var wg sync.WaitGroup
	for _, w := range walkers {
		w.cl = client.New(w.id, w.seq)
		w.cl.EnableAdaptive(w.qos, w.caps)
		if w.split {
			w.cl.ForceMode(offload.ModeSplit)
		}
		w.cl.OnAnswer = func(pm *protocol.PoseMsg) {
			if pm.Tracked && !pm.Shed {
				w.tracked++
				if killed.Load() {
					w.trackedAfterKill++
				}
			}
			bar.wait()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pol := redial
			pol.Seed = int64(w.id)
			if err := w.cl.Run(client.AddrDialer(addrs...), frames, pol); err != nil {
				w.err = err
				bar.leave()
			}
		}()
	}
	wg.Wait()
}

// checkExactlyOnce fails the test unless each of the walker's n frames
// was answered exactly once on its live socket.
func (w *walker) checkExactlyOnce(t *testing.T, n int) {
	t.Helper()
	counts := w.cl.AnswerCounts()
	if len(counts) != n {
		t.Errorf("client %d: %d distinct frames answered, sent %d", w.id, len(counts), n)
	}
	for idx, k := range counts {
		if k != 1 {
			t.Errorf("client %d: frame %d answered %d times", w.id, idx, k)
		}
	}
}

// TestClusterShardKill is the cluster-shard-kill chaos scenario: two
// real shard processes behind an in-process front, four mixed-QoS
// sessions, and a SIGKILL landing on shard 1 exactly inside a
// cross-shard merge's crash window (the import-stall failpoint holds
// the WAL-journaled half-merge open). The respawned shard's WAL
// recovery must truncate the unmatched import bracket — rolling the
// half-merge back — the front must abort that handoff attempt and
// commit a later retry, sessions homed on the killed shard must
// relocalize, and the cluster invariants (per-shard map invariants,
// no keyframe owned by two shards, consistent anchors) must hold at
// every quiescent checkpoint. A surviving half-merge would surface as
// a kf-owned-twice violation, since the source shard kept its copy
// when the handoff aborted.
func TestClusterShardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process cluster chaos is minutes-long")
	}
	const (
		token      = uint64(0xBADC0DE)
		rounds     = 80
		stride     = 4
		checkEvery = 30 // quiescent checkpoints at rounds 30 and 60
	)
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}

	// Shard 1 gets the import-stall failpoint: its first cross-shard
	// import commits to the WAL and then holds the map lock, giving the
	// killer a 6 s window that SIGKILL is guaranteed to land in.
	dir0, dir1 := t.TempDir(), t.TempDir()
	sh0, err := SpawnShard(ShardSpec{Bin: bin, ID: 0, Token: token, Addr: "127.0.0.1:0", Dir: dir0})
	if err != nil {
		t.Fatal(err)
	}
	defer sh0.Kill()
	sh1, err := SpawnShard(ShardSpec{Bin: bin, ID: 1, Token: token, Addr: "127.0.0.1:0", Dir: dir1, StallMs: 6000})
	if err != nil {
		t.Fatal(err)
	}
	var procMu sync.Mutex
	defer func() {
		procMu.Lock()
		sh1.Kill()
		procMu.Unlock()
	}()
	addrs := []string{sh0.Addr, sh1.Addr}

	part := cluster.Partition{Min: 0, Max: 180, N: 2, Hysteresis: 5}
	front := cluster.NewFront(cluster.FrontConfig{
		Shards: addrs, Token: token, Part: part,
		HandoffCooldown: 300 * time.Millisecond,
	})
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(fln)
	defer front.Close()
	frontAddr := fln.Addr().String()

	// The killer waits for shard 1 to enter the crash window — the
	// ImportsStalled counter is served off atomics, never the map lock,
	// so the probe answers while the import holds gmu — then SIGKILLs
	// it and respawns on the same address with the same WAL directory
	// and no stall, forcing recovery to decide the half-merge's fate.
	killed := &atomic.Bool{}
	killErrCh := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(8 * time.Minute)
		for time.Now().Before(deadline) {
			st, err := cluster.ShardStats(sh1.Addr, token)
			if err == nil && st.ImportsStalled >= 1 {
				procMu.Lock()
				sh1.Kill()
				np, err := SpawnShard(ShardSpec{Bin: bin, ID: 1, Token: token, Addr: sh1.Addr, Dir: dir1})
				if err == nil {
					sh1 = np
				}
				procMu.Unlock()
				killed.Store(true)
				killErrCh <- err
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		killErrCh <- fmt.Errorf("import stall never observed on shard 1")
	}()

	// Quiescent checkpoints: with every walker parked at the barrier,
	// no frame or handoff is in flight. The retry loop absorbs the
	// kill/respawn window if the checkpoint lands inside it.
	var (
		hookMu   sync.Mutex
		hookErrs []string
	)
	hook := func(round int) {
		if round < 0 || (round+1)%checkEvery != 0 || round+1 >= rounds {
			return
		}
		deadline := time.Now().Add(90 * time.Second)
		for {
			rep, err := cluster.CheckCluster(addrs, token)
			if err == nil && rep.OK() {
				return
			}
			if time.Now().After(deadline) {
				hookMu.Lock()
				if err != nil {
					hookErrs = append(hookErrs, fmt.Sprintf("round %d: %v", round+1, err))
				} else {
					hookErrs = append(hookErrs, fmt.Sprintf("round %d: %s", round+1, clusterSummary(rep)))
				}
				hookMu.Unlock()
				return
			}
			time.Sleep(500 * time.Millisecond)
		}
	}

	// Four mixed-QoS sessions in the shared city grid. Client 11
	// crosses the x=90 boundary (~round 38), triggering the cross-shard
	// merge the killer is aimed at; 12 stays on shard 0 as the control;
	// 13 and 14 are homed on shard 1 and must survive its death by
	// redialing through the front and relocalizing against the
	// WAL-recovered map. Routes turn right angles only — a straight
	// U-turn cannot keep visual tracking.
	walkers := []*walker{
		{id: 11, qos: offload.QoSHeadset,
			seq: dataset.HalfRes(dataset.CityRoute("ck-cross", [][2]int{{1, 1}, {3, 1}}, 7, camera.Stereo, 911))},
		{id: 12, qos: offload.QoSHandheld,
			seq: dataset.HalfRes(dataset.CityRoute("ck-west", [][2]int{{0, 1}, {1, 1}, {1, 2}}, 7, camera.Stereo, 912))},
		{id: 13, qos: offload.QoSHeadset,
			seq: dataset.HalfRes(dataset.CityRoute("ck-east1", [][2]int{{2, 2}, {2, 1}, {3, 1}}, 7, camera.Stereo, 913))},
		{id: 14, qos: offload.QoSDrone,
			seq: dataset.HalfRes(dataset.CityRoute("ck-east2", [][2]int{{3, 2}, {3, 1}, {2, 1}}, 7, camera.Stereo, 914))},
	}
	// One link per device: the front, not a client redial, must carry
	// every session through the shard's death.
	bar := newRoundBarrier(len(walkers), hook)
	walkAll(walkers, []string{frontAddr}, strideFrames(rounds, stride), bar, killed, overload.Backoff{MaxAttempts: 1})

	for _, w := range walkers {
		if w.err != nil {
			t.Errorf("client %d: %v", w.id, w.err)
		}
	}
	if err := <-killErrCh; err != nil {
		t.Fatalf("shard kill: %v", err)
	}
	if !killed.Load() {
		t.Fatal("shard 1 was never killed")
	}

	// Let the Byes drain so the final check is a true quiescent point.
	drainShards(t, addrs, token)

	hookMu.Lock()
	for _, e := range hookErrs {
		t.Errorf("mid-run invariant check: %s", e)
	}
	hookMu.Unlock()

	rep, err := cluster.CheckCluster(addrs, token)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("final cluster invariants: %s", clusterSummary(rep))
	}
	if len(rep.Shards) > 1 && rep.Shards[1].KeyFrames == 0 {
		t.Error("shard 1 recovered empty — WAL replay lost the map")
	}

	// Delivery contract: every frame answered exactly once, every
	// session tracking; the sessions touching shard 1 (11 crossing
	// into it, 13 and 14 homed on it) must track again after the kill.
	for _, w := range walkers {
		if w.err != nil {
			continue
		}
		w.checkExactlyOnce(t, rounds)
		if w.tracked == 0 {
			t.Errorf("client %d: never tracked", w.id)
		}
	}
	// Clients 13 and 14 lost their home shard to the SIGKILL: tracking
	// again proves the WAL-recovered map relocalizes returning
	// sessions. (Client 11's post-handoff relocalization on the
	// recovered shard is timing-sensitive under load, so its merge is
	// proven by the committed handoff, shard 1's keyframes and the
	// ownership invariants instead.)
	for _, w := range walkers {
		if w.err == nil && (w.id == 13 || w.id == 14) && w.trackedAfterKill == 0 {
			t.Errorf("client %d: never tracked after the kill", w.id)
		}
	}

	// Handoff log: the kill lands inside client 11's first cross-shard
	// merge, so at least one attempt aborts with a reason, a retry
	// commits against the recovered shard, and epochs stay monotonic.
	var aborted, committed int
	var lastEpoch uint64
	for _, ev := range front.Events() {
		if ev.Client != 11 {
			t.Errorf("handoff event for unexpected client %d", ev.Client)
		}
		if ev.Epoch <= lastEpoch {
			t.Errorf("handoff epoch %d not strictly increasing (prev %d)", ev.Epoch, lastEpoch)
		}
		lastEpoch = ev.Epoch
		if ev.Committed {
			committed++
		} else {
			aborted++
			if ev.Reason == "" {
				t.Error("aborted handoff recorded without a reason")
			}
		}
	}
	if committed < 1 {
		t.Error("boundary crossing never committed a handoff")
	}
	if aborted < 1 {
		t.Error("the mid-merge kill should have aborted at least one handoff attempt")
	}
	t.Logf("handoffs: %d committed, %d aborted; trackedAfterKill: 11=%d 13=%d 14=%d",
		committed, aborted,
		walkers[0].trackedAfterKill, walkers[2].trackedAfterKill, walkers[3].trackedAfterKill)
}

// drainShards waits until no shard holds a session any more.
func drainShards(t *testing.T, addrs []string, token uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var n uint64
		ok := true
		for _, a := range addrs {
			st, err := cluster.ShardStats(a, token)
			if err != nil {
				ok = false
				break
			}
			n += st.Sessions
		}
		if ok && n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("shard sessions did not drain")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func clusterSummary(rep *cluster.ClusterReport) string {
	s := rep.Summary()
	for _, v := range rep.Violations {
		s += "\n  cross-shard: " + v
	}
	for _, sh := range rep.Shards {
		for _, v := range sh.Violations {
			s += fmt.Sprintf("\n  shard %d: %s", sh.ID, v)
		}
	}
	return s
}
