package chaos

import (
	"fmt"
	"net"
	"os"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/cluster"
	"slamshare/internal/dataset"
	"slamshare/internal/lifecycle"
	"slamshare/internal/netem"
	"slamshare/internal/persist"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
	"slamshare/internal/smap"
)

// ClientScript scripts one client's behaviour across a scenario's
// rounds. All events are keyed to round numbers, never wall-clock, so
// a scenario replays identically from its seed. The zero round value
// disables an event (round 0 events are therefore not expressible,
// which no scenario needs — clients join at 0 via JoinRound's zero).
type ClientScript struct {
	ID uint32
	// SeqName picks the dataset sequence (resolved at half resolution);
	// empty defaults to MH04 for odd IDs and MH05 for even ones, both
	// in the shared machine-hall world so maps can merge.
	SeqName string
	// Seq supplies a generated sequence directly (e.g. a city-grid
	// route), overriding SeqName. The harness still halves its
	// resolution.
	Seq *dataset.Sequence
	// JoinRound is the round this client first connects.
	JoinRound int
	// CrashAt hard-cuts the link at that round: the client goes away
	// without a Bye, mid-stream.
	CrashAt int
	// ReconnectAt rejoins with the same ID after a crash/drop; the
	// server resumes the session by relocalization on the global map.
	ReconnectAt int
	// AutoReconnect rejoins one round after any link death (used with
	// probabilistic faults and server kills, where the death round is
	// not scripted).
	AutoReconnect bool
	// CorruptAt sends an undecodable frame payload at that round; the
	// server must reject it and drop the connection.
	CorruptAt int
	// DupHelloAt sends a second hello at that round; the server must
	// drop the connection without leaking the session.
	DupHelloAt int
	// FreezeAt/ThawAt bracket a link partition: writes stall, the
	// client misses the rounds in between, then resumes on the same
	// connection.
	FreezeAt int
	ThawAt   int
	// Fault seeds probabilistic link faults (resets, stalls, reorder).
	Fault netem.FaultConfig
	// Shape is the netem shaping discipline for the link.
	Shape netem.Config
}

// Expect is a scenario's pass criteria beyond zero invariant
// violations.
type Expect struct {
	// Survivors is the exact number of clients alive at scenario end.
	Survivors int
	// MinMerges is the minimum successful merges (founding insert
	// included) across server lifetimes.
	MinMerges int
	// MinReconnects is the minimum client rejoin count.
	MinReconnects int
	// MinCulled / MinEvictions are floors on the lifecycle manager's
	// work across server lifetimes (scenarios with a map budget).
	MinCulled    int64
	MinEvictions int64
	// ResumedTracking requires at least one reconnected client to get
	// a tracked pose after resuming (relocalization worked).
	ResumedTracking bool
	// Counter floors, asserted against the server's NetStats.
	MinDupHello       int64
	MinBadHello       int64
	MinFramesRejected int64
	MinDropped        int64
}

// Scenario is one deterministic chaos run.
type Scenario struct {
	Name string
	// Seed drives every RNG in the scenario (link faults per client are
	// derived from it).
	Seed int64
	// Rounds is the number of lockstep send/reply rounds.
	Rounds int
	// Stride is the dataset frame step per round (larger = more motion
	// per round = faster map growth).
	Stride int
	// KillServerAt kills the server at that round and recovers it from
	// checkpoint + WAL (persistence is enabled iff non-zero).
	KillServerAt int
	// CheckEvery audits map invariants every k rounds (the final audit
	// always runs).
	CheckEvery int
	// Lifecycle bounds the resident map (zero disables). Evicted
	// regions live in the scenario's persist dir.
	Lifecycle lifecycle.Config
	// Urban applies the vehicular tracking profile city-grid routes
	// need: a wider keyframe-insertion window and a lower lost line, so
	// fast forward motion cannot decay straight past both thresholds.
	Urban   bool
	Clients []ClientScript
	Expect  Expect
	// Dial overrides how clients reach the server under test; it
	// receives the in-process server's address. nil means a direct TCP
	// dial. Cluster tests point it at a front router (with the server
	// as the routed shard) so scenarios run unchanged against one
	// process or a sharded topology.
	Dial func(addr string) (net.Conn, error)
}

// Result summarizes one scenario run.
type Result struct {
	Scenario   string
	Rounds     int
	FramesSent int
	Poses      int // pose replies applied
	Tracked    int // replies with tracking OK
	Merges     int
	Reconnects int
	Survivors  int
	Checks     int // invariant audits run
	Violations []smap.Violation
	KeyFrames  int
	MapPoints  int
	DupHello   int64
	BadHello   int64
	FramesRej  int64
	Dropped    int64
	Culled     int64 // lifecycle: keyframes culled
	Evicted    int64 // lifecycle: regions evicted
	Reloaded   int64 // lifecycle: regions reloaded
	Elapsed    time.Duration
	// Failures lists expectation mismatches (empty = scenario passed).
	Failures []string
}

// OK reports whether the scenario met every expectation with zero
// invariant violations.
func (r *Result) OK() bool { return len(r.Violations) == 0 && len(r.Failures) == 0 }

// runtime state for one scripted client.
type rclient struct {
	sc  *ClientScript
	cl  *client.Client
	seq *dataset.Sequence

	conn net.Conn
	fc   *netem.FaultConn

	joined  bool
	dead    bool
	diedAt  int
	gen     int // connection generation (seeds fault RNG per life)
	frozen  bool
	busy    chan struct{} // non-nil while a send is in flight
	frame   int           // next dataset frame index
	sent    int
	poses   int
	tracked int
	// afterRejoin counts tracked poses received on a resumed session.
	afterRejoin int
	reconnects  int
}

type harness struct {
	sc   Scenario
	cfg  server.Config
	srv  *server.Server
	lis  net.Listener
	addr string

	clients []*rclient
	merges  int // accumulated across server lifetimes
	res     *Result
}

// serverConfig is the chaos pipeline tuning (cluster.HalfResConfig)
// plus the scenario's lifecycle and persistence.
func serverConfig(sc Scenario, persistDir string) server.Config {
	cfg := cluster.HalfResConfig(sc.Urban)
	cfg.Lifecycle = sc.Lifecycle
	if sc.KillServerAt > 0 {
		// Journal-only persistence: recovery replays the WAL from the
		// last (absent) checkpoint, the hardest recovery path.
		cfg.Persist = persist.Options{Dir: persistDir, CheckpointEvery: -1}
	}
	return cfg
}

// Run executes one scenario. persistDir backs the WAL for scenarios
// that kill and recover the server (ignored otherwise).
func Run(sc Scenario, persistDir string) (*Result, error) {
	start := time.Now()
	if sc.KillServerAt > 0 {
		if err := os.MkdirAll(persistDir, 0o755); err != nil {
			return nil, err
		}
	}
	h := &harness{
		sc:  sc,
		cfg: serverConfig(sc, persistDir),
		res: &Result{Scenario: sc.Name, Rounds: sc.Rounds},
	}
	srv, err := server.New(h.cfg)
	if err != nil {
		return nil, err
	}
	h.srv = srv
	defer func() { h.srv.Close() }()
	if err := h.listen(); err != nil {
		return nil, err
	}
	defer func() { h.lis.Close() }()

	for i := range sc.Clients {
		cs := &sc.Clients[i]
		name := cs.SeqName
		if name == "" {
			if cs.ID%2 == 1 {
				name = "MH04"
			} else {
				name = "MH05"
			}
		}
		seq := cs.Seq
		if seq == nil {
			var err error
			seq, err = dataset.ByName(name, camera.Stereo)
			if err != nil {
				return nil, err
			}
		}
		seq = HalfRes(seq)
		h.clients = append(h.clients, &rclient{
			sc:  cs,
			cl:  client.New(cs.ID, seq),
			seq: seq,
		})
	}

	for r := 0; r < sc.Rounds; r++ {
		if err := h.events(r); err != nil {
			return nil, err
		}
		h.sendRound(r)
		if sc.CheckEvery > 0 && (r+1)%sc.CheckEvery == 0 && r != sc.Rounds-1 {
			h.check()
		}
	}
	h.finish()
	h.res.Elapsed = time.Since(start)
	h.assess()
	return h.res, nil
}

// dialServer opens one client link to whatever fronts the server —
// the server itself by default, or the scenario's Dial override.
func (h *harness) dialServer() (net.Conn, error) {
	if h.sc.Dial != nil {
		return h.sc.Dial(h.addr)
	}
	return net.Dial("tcp", h.addr)
}

func (h *harness) listen() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h.lis = l
	h.addr = l.Addr().String()
	go h.srv.Serve(l)
	return nil
}

// events applies the scripted round-r events in deterministic order:
// server kill/recovery first, then per-client partitions, crashes and
// (re)joins.
func (h *harness) events(r int) error {
	if h.sc.KillServerAt > 0 && r == h.sc.KillServerAt {
		if err := h.killAndRecoverServer(r); err != nil {
			return err
		}
	}
	for _, rc := range h.clients {
		if rc.frozen && rc.busy != nil && rc.sc.ThawAt == r {
			rc.fc.Thaw()
			rc.frozen = false
			<-rc.busy // the stalled send completes deterministically now
			rc.busy = nil
		}
		// The round barrier guarantees busy == nil here for un-frozen
		// clients, so crash/freeze never race a send goroutine.
		if rc.joined && !rc.dead && rc.busy == nil && rc.sc.FreezeAt > 0 && r == rc.sc.FreezeAt {
			rc.fc.Freeze()
			rc.frozen = true
		}
		if rc.joined && !rc.dead && rc.busy == nil && rc.sc.CrashAt > 0 && r == rc.sc.CrashAt {
			rc.fc.Cut()
			rc.markDead(r)
		}
		join := false
		switch {
		case !rc.joined && r >= rc.sc.JoinRound:
			join = true
		case rc.dead && rc.sc.ReconnectAt > 0 && r == rc.sc.ReconnectAt:
			join = true
		case rc.dead && rc.sc.AutoReconnect && r > rc.diedAt:
			join = true
		}
		if join {
			if err := h.join(rc); err != nil {
				return fmt.Errorf("%s: client %d join at round %d: %w", h.sc.Name, rc.sc.ID, r, err)
			}
		}
	}
	return nil
}

func (rc *rclient) markDead(r int) {
	rc.dead = true
	rc.diedAt = r
	rc.frozen = false
	if rc.conn != nil {
		rc.conn.Close()
	}
}

// join dials, wraps the link with the scripted shaping + faults, and
// sends the hello (with the half-resolution rig calibration). Rejoins
// first wait for the server to have reaped the previous session, so
// the same client ID is accepted deterministically.
func (h *harness) join(rc *rclient) error {
	if rc.joined {
		if err := h.waitSessions(h.aliveSessions()); err != nil {
			return err
		}
	}
	raw, err := h.dialServer()
	if err != nil {
		return err
	}
	var inner net.Conn = raw
	if rc.sc.Shape != (netem.Config{}) {
		inner = netem.Wrap(raw, rc.sc.Shape)
	}
	fault := rc.sc.Fault
	fault.Seed = h.sc.Seed*1_000_003 + int64(rc.sc.ID)*8191 + int64(rc.gen)
	rc.fc = netem.WrapFault(inner, fault)
	rc.conn = rc.fc
	rc.gen++
	if rc.joined {
		rc.cl.Reconnect() // restart the video stream with an intra frame
		rc.reconnects++
	}
	hello := protocol.HelloMsg{
		ClientID: rc.sc.ID,
		Mode:     rc.seq.Rig.Mode,
		HasRig:   true,
		Intr:     rc.seq.Rig.Intr,
		Baseline: rc.seq.Rig.Baseline,
	}
	if err := protocol.WriteMessage(rc.conn, protocol.TypeHello, hello.Encode()); err != nil {
		return err
	}
	rc.joined = true
	rc.dead = false
	return nil
}

// sendRound runs the send/reply phase: every live, unblocked client
// concurrently sends its next frame and waits for the pose answer. A
// frozen client's send keeps blocking in the background; the round
// barrier skips it until the scripted thaw.
func (h *harness) sendRound(r int) {
	var launched []*rclient
	for _, rc := range h.clients {
		if !rc.joined || rc.dead || rc.busy != nil {
			continue
		}
		rc.busy = make(chan struct{})
		launched = append(launched, rc)
		go h.sendOne(rc, r)
	}
	for _, rc := range launched {
		if rc.frozen {
			continue // barrier excludes partitioned clients
		}
		<-rc.busy
		rc.busy = nil
	}
}

// garbageFrame is an undecodable TypeFrame payload (shorter than the
// fixed header DecodeFrameMsg requires).
var garbageFrame = []byte("this is not a frame message, reject me")

func (h *harness) sendOne(rc *rclient, r int) {
	defer close(rc.busy)
	switch {
	case rc.sc.CorruptAt > 0 && r == rc.sc.CorruptAt:
		// Corrupt stream: the server must reject the payload and drop
		// the connection; we observe the close on the read side.
		protocol.WriteMessage(rc.conn, protocol.TypeFrame, garbageFrame)
		h.expectDrop(rc, r)
		return
	case rc.sc.DupHelloAt > 0 && r == rc.sc.DupHelloAt:
		hello := protocol.HelloMsg{ClientID: rc.sc.ID, Mode: rc.seq.Rig.Mode}
		protocol.WriteMessage(rc.conn, protocol.TypeHello, hello.Encode())
		h.expectDrop(rc, r)
		return
	}
	msg := rc.cl.BuildFrame(rc.frame)
	rc.frame += h.sc.Stride
	if err := protocol.WriteMessage(rc.conn, protocol.TypeFrame, msg.Encode()); err != nil {
		rc.markDead(r)
		return
	}
	rc.sent++
	rc.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for {
		mt, payload, err := protocol.ReadMessage(rc.conn)
		if err != nil {
			rc.markDead(r)
			return
		}
		if mt != protocol.TypePose {
			continue
		}
		pm, err := protocol.DecodePoseMsg(payload)
		if err != nil {
			rc.markDead(r)
			return
		}
		if pm.FrameIdx != msg.FrameIdx {
			continue
		}
		rc.cl.ApplyPose(int(pm.FrameIdx), pm.Pose, pm.Tracked)
		rc.poses++
		if pm.Tracked {
			rc.tracked++
			if rc.reconnects > 0 {
				rc.afterRejoin++
			}
		}
		return
	}
}

// expectDrop reads until the server closes the connection (it must,
// for both corrupt frames and duplicate hellos), then marks the client
// dead.
func (h *harness) expectDrop(rc *rclient, r int) {
	rc.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for {
		if _, _, err := protocol.ReadMessage(rc.conn); err != nil {
			break
		}
	}
	rc.markDead(r)
}

// killAndRecoverServer emulates a server crash mid-run: every link
// dies, the process state is discarded, and a fresh server recovers
// the global map from the WAL. Clients come back via AutoReconnect and
// resume by relocalization.
func (h *harness) killAndRecoverServer(r int) error {
	h.merges += len(h.srv.MergeReports())
	for _, rc := range h.clients {
		if rc.joined && !rc.dead {
			if rc.frozen {
				rc.fc.Thaw()
				rc.frozen = false
			}
			if rc.busy != nil {
				<-rc.busy
				rc.busy = nil
			}
			rc.markDead(r)
		}
	}
	h.lis.Close()
	if err := h.waitSessions(0); err != nil {
		return err
	}
	h.snapshotNet() // bank the dying server's counters before discard
	h.srv.Close()   // flushes the journal; no final checkpoint
	srv, err := server.New(h.cfg)
	if err != nil {
		return err
	}
	h.srv = srv
	return h.listen()
}

// snapshotNet accumulates the current server's counters into the
// result (called once per server lifetime).
func (h *harness) snapshotNet() {
	ns := h.srv.NetStats()
	h.res.DupHello += ns.DupHello.Load()
	h.res.BadHello += ns.BadHello.Load()
	h.res.FramesRej += ns.FramesRejected.Load()
	h.res.Dropped += ns.SessionsDropped.Load()
	if lm := h.srv.Lifecycle(); lm != nil {
		st := lm.Stats()
		h.res.Culled += st.CulledKeyFrames.Load()
		h.res.Evicted += st.EvictedRegions.Load()
		h.res.Reloaded += st.ReloadedRegions.Load()
	}
}

// aliveSessions counts the clients whose server session should exist.
func (h *harness) aliveSessions() int {
	n := 0
	for _, rc := range h.clients {
		if rc.joined && !rc.dead {
			n++
		}
	}
	return n
}

// waitSessions polls until the server session count drops to want
// (session teardown is asynchronous with connection death).
func (h *harness) waitSessions(want int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h.srv.NSessions() <= want {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("chaos: %d sessions still open, want <= %d", h.srv.NSessions(), want)
}

// check audits the global map at a quiescent point: the round barrier
// guarantees no frames are in flight, and waitSessions that no
// serveConn is mid-teardown.
func (h *harness) check() {
	if err := h.waitSessions(h.aliveSessions()); err != nil {
		h.res.Failures = append(h.res.Failures, err.Error())
		return
	}
	rep := h.srv.Global().CheckInvariants()
	h.res.Checks++
	h.res.Violations = append(h.res.Violations, rep.Violations...)
}

// finish closes every surviving client cleanly, runs the final audit,
// and fills the result.
func (h *harness) finish() {
	survivors := 0
	for _, rc := range h.clients {
		if rc.frozen {
			rc.fc.Thaw()
			rc.frozen = false
		}
		if rc.busy != nil {
			<-rc.busy
			rc.busy = nil
		}
		if rc.joined && !rc.dead {
			survivors++
			protocol.WriteMessage(rc.conn, protocol.TypeBye, nil)
			rc.conn.Close()
		}
		h.res.FramesSent += rc.sent
		h.res.Poses += rc.poses
		h.res.Tracked += rc.tracked
		h.res.Reconnects += rc.reconnects
	}
	h.res.Survivors = survivors
	if err := h.waitSessions(0); err != nil {
		h.res.Failures = append(h.res.Failures, err.Error())
	}
	rep := h.srv.Global().CheckInvariants()
	h.res.Checks++
	h.res.Violations = append(h.res.Violations, rep.Violations...)
	h.res.KeyFrames = rep.KeyFrames
	h.res.MapPoints = rep.MapPoints
	h.res.Merges = h.merges + len(h.srv.MergeReports())
	h.snapshotNet()
}

// assess compares the result against the scenario's expectations.
func (h *harness) assess() {
	e := h.sc.Expect
	fail := func(format string, args ...any) {
		h.res.Failures = append(h.res.Failures, fmt.Sprintf(format, args...))
	}
	if h.res.Survivors != e.Survivors {
		fail("survivors = %d, want %d", h.res.Survivors, e.Survivors)
	}
	if h.res.Merges < e.MinMerges {
		fail("merges = %d, want >= %d", h.res.Merges, e.MinMerges)
	}
	if h.res.Reconnects < e.MinReconnects {
		fail("reconnects = %d, want >= %d", h.res.Reconnects, e.MinReconnects)
	}
	if e.ResumedTracking {
		resumed := false
		for _, rc := range h.clients {
			if rc.afterRejoin > 0 {
				resumed = true
			}
		}
		if !resumed {
			fail("no reconnected client regained tracking")
		}
	}
	if h.res.DupHello < e.MinDupHello {
		fail("DupHello = %d, want >= %d", h.res.DupHello, e.MinDupHello)
	}
	if h.res.BadHello < e.MinBadHello {
		fail("BadHello = %d, want >= %d", h.res.BadHello, e.MinBadHello)
	}
	if h.res.FramesRej < e.MinFramesRejected {
		fail("FramesRejected = %d, want >= %d", h.res.FramesRej, e.MinFramesRejected)
	}
	if h.res.Dropped < e.MinDropped {
		fail("SessionsDropped = %d, want >= %d", h.res.Dropped, e.MinDropped)
	}
	if h.res.Culled < e.MinCulled {
		fail("lifecycle culled = %d keyframes, want >= %d", h.res.Culled, e.MinCulled)
	}
	if h.res.Evicted < e.MinEvictions {
		fail("lifecycle evicted = %d regions, want >= %d", h.res.Evicted, e.MinEvictions)
	}
	if h.res.Poses == 0 {
		fail("no pose replies at all")
	}
}
