package chaos

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/cluster"
	"slamshare/internal/dataset"
	"slamshare/internal/lifecycle"
	"slamshare/internal/netem"
	"slamshare/internal/overload"
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
	// ReconnectAt rejoins with the same ID after a scripted death; the
	// server resumes the session by relocalization on the global map.
	ReconnectAt int
	// AutoReconnect lets the client redial at once when its link dies
	// unscripted (probabilistic faults, server kills); without it such
	// a death is final.
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
	// Fault is the link's scripted write-side fault (a mid-message cut
	// after a byte budget).
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
	// Seed drives the scenario's randomness: each client's redial
	// backoff jitter is derived from it.
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

// phase is a scripted client's state in one round.
type phase uint8

const (
	waiting phase = iota // not joined yet
	live                 // answers one frame this round
	frozen               // link partitioned: its writes stall until the thaw
	dead                 // gone until ReconnectAt, if ever
)

// next is the client's phase in round r, given its phase in round r-1
// (waiting before round 0).
func (cs *ClientScript) next(p phase, r int) phase {
	at := func(round int) bool { return round > 0 && round == r }
	switch {
	case p == waiting && r >= cs.JoinRound,
		p == frozen && at(cs.ThawAt),
		p == dead && at(cs.ReconnectAt):
		return live
	case p == live && at(cs.FreezeAt):
		return frozen
	case p == live && (at(cs.CrashAt) || at(cs.CorruptAt) || at(cs.DupHelloAt)):
		return dead
	}
	return p
}

// frames lists the dataset frames the client's Run sends: one per
// round it is live, plus the one a freeze holds in flight until the
// thaw. The script fixes the count, so the last one is answered in the
// client's last live round and Run then says Bye.
func (cs *ClientScript) frames(rounds, stride int) []int {
	var out []int
	p := waiting
	for r := 0; r < rounds; r++ {
		q := cs.next(p, r)
		if q == live || q == frozen && p == live {
			out = append(out, len(out)*stride)
		}
		p = q
	}
	return out
}

// rclient is one scripted client: a client.Client that Run drives
// through the harness's dialer. Its fields are guarded by the barrier
// lock.
type rclient struct {
	sc     *ClientScript
	cl     *client.Client
	frames []int

	phase      phase
	link       *netem.FaultConn // newest link the dialer handed out; nil until the first of a life
	stalled    bool             // the next answer is the frame a freeze held back: it does not park
	answeredOn *netem.FaultConn // link of the latest answer

	poses, tracked, reconnects int
	afterRejoin                int // tracked poses received on a resumed session
}

type harness struct {
	sc   Scenario
	cfg  server.Config
	srv  *server.Server
	lis  net.Listener
	addr string

	// bar's lock guards everything below and every rclient. Its hook,
	// advance, runs each round's scripted events while every live
	// client is parked in its OnAnswer.
	bar     *roundBarrier
	round   int
	done    bool
	err     error // a harness failure that aborted the run
	clients []*rclient
	merges  int // accumulated across server lifetimes
	res     *Result
}

// Run executes one scenario. persistDir backs the WAL for scenarios
// that kill and recover the server (ignored otherwise).
func Run(sc Scenario, persistDir string) (*Result, error) {
	start := time.Now()
	// The chaos pipeline tuning plus the scenario's lifecycle and, for a
	// server kill, journal-only persistence: recovery replays the WAL
	// from the last (absent) checkpoint, the hardest recovery path.
	cfg := cluster.HalfResConfig(sc.Urban)
	cfg.Lifecycle = sc.Lifecycle
	if sc.KillServerAt > 0 {
		if err := os.MkdirAll(persistDir, 0o755); err != nil {
			return nil, err
		}
		cfg.Persist = persist.Options{Dir: persistDir, CheckpointEvery: -1}
	}
	if sc.Dial == nil {
		sc.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	h := &harness{sc: sc, cfg: cfg, round: -1, res: &Result{Scenario: sc.Name, Rounds: sc.Rounds}}
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
		h.clients = append(h.clients, &rclient{
			sc:     cs,
			cl:     client.New(cs.ID, dataset.HalfRes(seq)),
			frames: cs.frames(sc.Rounds, sc.Stride),
		})
	}

	h.bar = newRoundBarrier(0, func(int) { h.advance() })
	h.advance() // round 0's events; no client runs yet
	var wg sync.WaitGroup
	for _, rc := range h.clients {
		if len(rc.frames) == 0 {
			continue
		}
		rc.cl.OnAnswer = func(pm *protocol.PoseMsg) { h.answered(rc, pm) }
		pol := overload.Backoff{Base: 5, Factor: 2, Max: 50, Jitter: 0.2, Seed: sc.Seed + int64(rc.sc.ID)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := rc.cl.Run(h.dialer(rc), rc.frames, pol)
			h.bar.mu.Lock()
			defer h.bar.mu.Unlock()
			if err != nil && rc.phase != dead {
				h.fail("client %d: %v", rc.sc.ID, err)
			}
		}()
	}
	wg.Wait()
	if h.err != nil {
		return nil, h.err
	}
	h.finish()
	h.res.Elapsed = time.Since(start)
	h.assess()
	return h.res, nil
}

func (h *harness) fail(format string, args ...any) {
	h.res.Failures = append(h.res.Failures, fmt.Sprintf(format, args...))
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

// dialer is the client's Dialer: it holds the client until its
// scripted (re)join round, refuses it once it is dead for good, and
// wraps every link in the scripted shaping and faults.
func (h *harness) dialer(rc *rclient) client.Dialer {
	return func() (net.Conn, error) {
		b := h.bar
		b.mu.Lock()
		for !h.done && (rc.phase == waiting || rc.phase == dead) {
			b.cond.Wait()
		}
		// A live client asking again lost its link unscripted.
		if h.done || rc.link != nil && !rc.sc.AutoReconnect {
			quit := !h.done && rc.phase == live
			rc.phase = dead
			b.mu.Unlock()
			if quit {
				b.leave()
			}
			return nil, client.ErrNoRedial
		}
		// Its redial waits, as a scripted rejoin does, for the server to
		// reap the old session, so the same client ID is accepted at once
		// and the link count (the fault seed) does not depend on timing.
		if rc.link != nil {
			if err := h.waitSessions(h.sessions() - 1); err != nil {
				b.mu.Unlock()
				return nil, err
			}
		}
		addr := h.addr
		b.mu.Unlock()

		raw, err := h.sc.Dial(addr)
		if err != nil {
			return nil, err
		}
		if rc.sc.Shape != (netem.Config{}) {
			raw = netem.Wrap(raw, rc.sc.Shape)
		}
		fc := netem.WrapFault(raw, rc.sc.Fault)
		b.mu.Lock()
		rc.link = fc
		b.mu.Unlock()
		return fc, nil
	}
}

// answered is every scripted client's OnAnswer: it books the pose and
// parks the client at the round barrier.
func (h *harness) answered(rc *rclient, pm *protocol.PoseMsg) {
	b := h.bar
	b.mu.Lock()
	rc.poses++
	if rc.link != rc.answeredOn {
		if rc.answeredOn != nil {
			rc.reconnects++
		}
		rc.answeredOn = rc.link
	}
	if pm.Tracked {
		rc.tracked++
		if rc.reconnects > 0 {
			rc.afterRejoin++
		}
	}
	park := !h.done && !rc.stalled
	rc.stalled = false
	b.mu.Unlock()
	if park {
		b.wait()
	}
}

// advance ends the round in progress — the periodic audit — and runs
// the next round's scripted events, skipping rounds nobody answers in.
// It runs under the barrier lock with every live client parked.
func (h *harness) advance() {
	for {
		if r := h.round; r >= 0 && h.sc.CheckEvery > 0 && (r+1)%h.sc.CheckEvery == 0 && r != h.sc.Rounds-1 {
			h.check()
		}
		h.round++
		n, err := h.events(h.round)
		if err != nil {
			h.err = fmt.Errorf("%s: round %d: %w", h.sc.Name, h.round, err)
		}
		if h.round >= h.sc.Rounds || h.err != nil {
			h.done = true
			for _, rc := range h.clients {
				if rc.phase == frozen {
					rc.link.Thaw()
					rc.phase = live
				}
			}
			return
		}
		if n > 0 {
			h.bar.n = n
			return
		}
	}
}

// events applies round r's scripted events in a fixed order — server
// kill first, then each client's partition, death or (re)join — and
// returns how many clients answer in round r.
func (h *harness) events(r int) (int, error) {
	if r >= h.sc.Rounds {
		return 0, nil
	}
	if h.sc.KillServerAt > 0 && r == h.sc.KillServerAt {
		if err := h.killAndRecoverServer(); err != nil {
			return 0, err
		}
	}
	n := 0
	for _, rc := range h.clients {
		p := rc.sc.next(rc.phase, r)
		switch {
		case p == rc.phase:
		case p == frozen:
			rc.link.Freeze()
			rc.stalled = true
		case rc.phase == frozen:
			rc.link.Thaw()
		case p == dead:
			// A crash cuts the parked client's link; a corrupt frame or a
			// second hello — the only bytes the harness writes itself —
			// make the server drop it. Released, the client redials, and
			// its dialer holds it until ReconnectAt.
			switch r {
			case rc.sc.CrashAt:
				rc.link.Cut()
			case rc.sc.CorruptAt:
				protocol.WriteMessage(rc.link, protocol.TypeFrame, garbageFrame)
			default:
				rig := rc.cl.Seq.Rig
				hello := protocol.HelloMsg{ClientID: rc.sc.ID, Mode: rig.Mode, Intr: rig.Intr, Baseline: rig.Baseline}
				protocol.WriteMessage(rc.link, protocol.TypeHello, hello.Encode())
			}
		case rc.phase == dead:
			// A rejoin: the server must have reaped the previous session
			// first, so the same client ID is accepted.
			if err := h.waitSessions(h.sessions()); err != nil {
				return 0, err
			}
			rc.link = nil
		}
		rc.phase = p
		if p == live {
			n++
		}
	}
	return n, nil
}

// garbageFrame is an undecodable TypeFrame payload (shorter than the
// fixed header DecodeFrameMsg requires).
var garbageFrame = []byte("this is not a frame message, reject me")

// killAndRecoverServer emulates a server crash mid-run: every link
// dies, the process state is discarded, and a fresh server recovers
// the global map from the WAL. AutoReconnect clients redial it and
// resume by relocalization.
func (h *harness) killAndRecoverServer() error {
	h.merges += len(h.srv.MergeReports())
	for _, rc := range h.clients {
		if rc.link != nil {
			rc.link.Cut()
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

// sessions counts the clients whose server session should exist.
func (h *harness) sessions() int {
	n := 0
	for _, rc := range h.clients {
		if rc.phase == live || rc.phase == frozen {
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
	if err := h.waitSessions(h.sessions()); err != nil {
		h.fail("%v", err)
		return
	}
	rep := h.srv.Global().CheckInvariants()
	h.res.Checks++
	h.res.Violations = append(h.res.Violations, rep.Violations...)
}

// finish runs the final audit once every client's Run has returned
// (survivors with a Bye) and fills the result, including the
// exactly-once check: every frame a client sent answered exactly once.
func (h *harness) finish() {
	for _, rc := range h.clients {
		if rc.phase == live {
			h.res.Survivors++
		}
		h.res.FramesSent += rc.cl.FramesSent()
		h.res.Poses += rc.poses
		h.res.Tracked += rc.tracked
		h.res.Reconnects += rc.reconnects
		counts := rc.cl.AnswerCounts()
		if len(counts) != len(rc.frames) {
			h.fail("client %d: %d frames answered, %d sent", rc.sc.ID, len(counts), len(rc.frames))
		}
		for idx, n := range counts {
			if n != 1 {
				h.fail("client %d: frame %d answered %d times", rc.sc.ID, idx, n)
			}
		}
	}
	if err := h.waitSessions(0); err != nil {
		h.fail("%v", err)
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
	fail := h.fail
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

// roundBarrier keeps concurrent device sessions in lockstep rounds. A
// round ends when its n participants have arrived; the last arriver
// runs hook(round) under the barrier's lock while every other
// participant is parked in its OnAnswer — a quiescent point for
// scripted faults and invariant audits. The hook may set n for the
// next round.
type roundBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	arr   int
	round int
	hook  func(round int)
}

func newRoundBarrier(n int, hook func(round int)) *roundBarrier {
	b := &roundBarrier{n: n, hook: hook}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait parks the caller until the round it arrived in has ended.
func (b *roundBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arr++
	round := b.round
	b.endRound()
	for b.round == round {
		b.cond.Wait()
	}
}

// leave removes a participant that will not arrive again, so the rest
// do not wait for it.
func (b *roundBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n--
	b.endRound()
}

// endRound ends the round if everyone expected has arrived. Callers
// hold b.mu.
func (b *roundBarrier) endRound() {
	if b.arr < b.n {
		return
	}
	if b.hook != nil {
		b.hook(b.round)
	}
	b.arr = 0
	b.round++
	b.cond.Broadcast()
}
