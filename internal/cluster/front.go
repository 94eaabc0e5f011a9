package cluster

import (
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slamshare/internal/img"
	"slamshare/internal/obs"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
	"slamshare/internal/video"
)

// FrontConfig configures the session router.
type FrontConfig struct {
	// Shards lists the shard addresses; the index is the shard ID the
	// partition maps positions to.
	Shards []string
	// Token authenticates the front on shard listeners.
	Token uint64
	// Part is the spatial sharding function.
	Part Partition
	// FrontID identifies this front in ShardHello sender fields.
	FrontID uint32
	// HandoffCooldown is the minimum spacing between handoff attempts
	// for one session — an aborted handoff (target refused or died)
	// must not be retried on the very next frame.
	HandoffCooldown time.Duration
	// RedialBudget bounds how long one shard outage may last before the
	// session gives up and drops the client. Refused dials, failed
	// writes and connections that die before delivering anything (a
	// shard replaying its WAL on a slow restart) all spend the same
	// budget, with capped jittered backoff between attempts; see
	// session.reconnectShard.
	RedialBudget time.Duration
	// HandoffStall is a test failpoint: it holds every handoff open for
	// this long between the source's boundary export and the offer to
	// the target, so a chaos harness can land a front SIGKILL
	// mid-handoff deterministically.
	HandoffStall time.Duration
}

const (
	// dialTimeout bounds each shard dial and control-plane reply.
	dialTimeout = 5 * time.Second
	// maxUnacked caps the per-session unacked-frame ledger; beyond it
	// the oldest pending frame is dropped (counted in
	// front.ledger_evictions) so a stalled client cannot grow front
	// memory without bound.
	maxUnacked = 256
)

// FrontStats counts the failover-relevant front events, published on
// /debug/vars by RegisterDebug.
type FrontStats struct {
	// SessionsAdopted counts sessions resumed from a presented token;
	// ResumeFailures counts presented tokens that failed validation or
	// whose owning-shard probe failed.
	SessionsAdopted obs.Counter
	ResumeFailures  obs.Counter
	// LedgerEvictions counts pending frames dropped by the maxUnacked
	// cap.
	LedgerEvictions obs.Counter
	// HandoffStalls counts handoffs that entered the HandoffStall
	// failpoint window.
	HandoffStalls obs.Counter
	// FramesRelayed counts video frames written to a shard as the device
	// sent them, FramesTranscoded those decoded and re-encoded inside a
	// resync window (a frame re-sent after a reconnect counts again);
	// Resyncs counts the windows: shard connections opened while the
	// session was following the device stream.
	FramesRelayed    obs.Counter
	FramesTranscoded obs.Counter
	Resyncs          obs.Counter
}

// HandoffEvent records one ownership-handoff attempt, committed or
// aborted. The per-session Epoch is strictly increasing across
// attempts, so the event log doubles as the monotonicity proof.
type HandoffEvent struct {
	Client    uint32
	Epoch     uint64
	From, To  uint32
	Committed bool
	Reason    string // why an aborted handoff failed
}

// Front is the cluster's door: devices connect here with the ordinary
// device protocol and the front proxies each session to the shard
// owning its current position, moving map-region ownership between
// shards as the session travels.
//
// The video stream is the subtle part: the device codec is a stateful
// delta stream whose inter frames only decode against the frames
// before them, but a handoff (or shard crash) gives the session a
// fresh server-side decoder that needs an intra reference — and the
// device has no idea anything happened. The front therefore follows
// the stream without decoding it: a frame's bytes go to the shard as
// the device wrote them, and its compressed video is appended to a
// per-session log that is dropped at every device intra (a sync point:
// nothing before it is needed to decode what follows) and never holds
// more than maxStreamLog frames. Only a shard connection that opens
// mid-GOP makes the front touch pixels: it feeds the log to its
// decoders, re-encodes the unanswered frames and every following one
// on encoders reset for that connection — so the first frame the new
// server session sees is an intra and tracking resumes immediately, no
// client cooperation, no GOP-length blind window — and goes back to
// forwarding bytes at the device's next intra, which puts the shard's
// decoders back on the device stream by itself.
type Front struct {
	cfg    FrontConfig
	ln     net.Listener
	closed atomic.Bool
	wg     sync.WaitGroup
	stats  FrontStats
	// redial schedules the sleeps between a session's shard redials:
	// capped jittered exponential backoff keyed per client,
	// deterministic for a fixed front ID.
	redial overload.Backoff

	mu     sync.Mutex
	events []HandoffEvent
}

// NewFront builds a front router over the given shard table.
func NewFront(cfg FrontConfig) *Front {
	if cfg.HandoffCooldown == 0 {
		cfg.HandoffCooldown = 500 * time.Millisecond
	}
	if cfg.RedialBudget == 0 {
		cfg.RedialBudget = 30 * time.Second
	}
	if cfg.Part.N == 0 {
		cfg.Part.N = len(cfg.Shards)
	}
	return &Front{cfg: cfg, redial: overload.Backoff{
		Base: 100, Factor: 2, Max: 2000, Jitter: 0.2, Seed: int64(cfg.FrontID),
	}}
}

// Stats exposes the failover counters.
func (f *Front) Stats() *FrontStats { return &f.stats }

// RegisterDebug publishes the front gauges on an obs registry (served
// at /debug/vars by obs.Handler).
func (f *Front) RegisterDebug(reg *obs.Registry) {
	reg.RegisterCounter("front.sessions_adopted", &f.stats.SessionsAdopted)
	reg.RegisterCounter("front.resume_failures", &f.stats.ResumeFailures)
	reg.RegisterCounter("front.ledger_evictions", &f.stats.LedgerEvictions)
	reg.RegisterCounter("front.handoff_stalls", &f.stats.HandoffStalls)
	reg.RegisterCounter("front.frames_relayed", &f.stats.FramesRelayed)
	reg.RegisterCounter("front.frames_transcoded", &f.stats.FramesTranscoded)
	reg.RegisterCounter("front.resyncs", &f.stats.Resyncs)
	reg.RegisterFunc("front.handoffs", func() any {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.events)
	})
}

// Serve accepts device sessions on ln until Close. Blocks.
func (f *Front) Serve(ln net.Listener) error {
	f.ln = ln
	for {
		conn, err := ln.Accept()
		if err != nil {
			if f.closed.Load() {
				return nil
			}
			return err
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.serveSession(conn)
		}()
	}
}

// Close stops accepting and waits for the proxied sessions to end.
func (f *Front) Close() {
	f.closed.Store(true)
	if f.ln != nil {
		f.ln.Close()
	}
	f.wg.Wait()
}

// Events returns the handoff log.
func (f *Front) Events() []HandoffEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]HandoffEvent, len(f.events))
	copy(out, f.events)
	return out
}

func (f *Front) record(ev HandoffEvent) {
	f.mu.Lock()
	f.events = append(f.events, ev)
	f.mu.Unlock()
}

func (f *Front) dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// dialPeer opens a shard control connection and identifies as a
// cluster peer. sender is what the receiving shard sees as the message
// origin — for a boundary import that is the *source shard's* ID, so
// the target's import quarantine is charged per source.
func (f *Front) dialPeer(shard uint32, role byte, sender uint32) (net.Conn, error) {
	c, err := f.dial(f.cfg.Shards[shard])
	if err != nil {
		return nil, err
	}
	hello := protocol.ShardHelloMsg{Role: role, SenderID: sender, Token: f.cfg.Token}
	if err := protocol.WriteMessage(c, protocol.TypeShardHello, hello.Encode()); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// message is one framed protocol message in transit.
type message struct {
	mt      byte
	payload []byte
}

// pendingFrame is an uplink frame forwarded to a shard but not yet
// answered with a pose: the device's bytes, which is all a shard that
// follows the device stream needs to be sent again. Images appear only
// on a frame the decoders consumed while it was unanswered (a resync
// window, a log overflow), so that it can be re-encoded onto yet
// another connection's stream.
type pendingFrame struct {
	mt      byte
	idx     uint32 // FrameIdx, matching the answering pose
	payload []byte // as the device sent it
	left    *img.Gray
	right   *img.Gray
}

// maxStreamLog bounds a session's stream log. A device stream has an
// intra every GOP (30) frames and the log is dropped there, so the
// bound only bites on a stream that stops sending them — or a device
// that always has a frame in flight at its intras — which then costs a
// decode per frame, never unbounded memory (64 half-megapixel stereo
// frames are about 2.8 MB).
const maxStreamLog = 64

// streamFrame is one device video frame the decoders have not consumed.
type streamFrame struct {
	idx         uint32
	left, right []byte // compressed, aliasing the uplink payload
}

// session is one proxied device connection.
type session struct {
	f        *Front
	client   net.Conn
	clientID uint32
	helloRaw []byte // replayed verbatim on every shard (re)connect
	cur      uint32 // shard currently owning the session
	epoch    uint64 // handoff epoch, strictly increasing per attempt

	shard    net.Conn
	down     chan message  // closed when the shard connection dies
	downDone chan struct{} // closed with the connection: stops its pump

	// Stream-following state. relay says the current shard connection's
	// decoders are on the device's stream, so frames are forwarded as
	// bytes; it is cleared by every new connection and set by the
	// device's next intra. log is the device video dec* have not
	// consumed: they have seen everything before log[0], or log[0] is an
	// intra and what they have seen does not matter. enc* produce the
	// stream of a connection that is not on the device's (reset on every
	// connect so a new server session starts on an intra frame).
	relay      bool
	log        []streamFrame
	decL, decR *video.Decoder
	encL, encR *video.Encoder

	// unacked holds uplink frames forwarded to the shard but not yet
	// answered with a pose. On a shard death or handoff they are
	// re-encoded and re-sent, so every client frame is answered
	// exactly once.
	unacked []pendingFrame

	// caps are the hello capability bits; token is the session's
	// resumable state, re-issued on every answered pose when the client
	// advertised CapResume. Both are owned by the serveSession loop.
	caps  offload.Caps
	token protocol.SessionTokenMsg

	// attempt counts the redials spent on the current shard outage and
	// outageStart marks when it opened (zero while healthy); the first
	// downlink message refunds both. See reconnectShard.
	attempt     int
	outageStart time.Time

	lastHandoff time.Time
}

// newSession returns the state of a device connection nothing has been
// read from yet.
func (f *Front) newSession(client net.Conn) *session {
	return &session{
		f: f, client: client,
		decL: video.NewDecoder(), decR: video.NewDecoder(),
		encL: video.NewEncoder(), encR: video.NewEncoder(),
	}
}

// serveSession proxies one device connection for its lifetime.
func (f *Front) serveSession(client net.Conn) {
	defer client.Close()
	s := f.newSession(client)

	// The device protocol opens with a hello; the session is routed on
	// the first frame's world-frame prior, so buffer until it arrives.
	var pending []message
	routed := false
	for !routed {
		mt, payload, err := protocol.ReadMessage(client)
		if err != nil {
			return
		}
		switch mt {
		case protocol.TypeHello:
			if s.helloRaw != nil {
				return // duplicate hello: the shard would drop it anyway
			}
			hm, err := protocol.DecodeHelloMsg(payload)
			if err != nil {
				return
			}
			s.clientID, s.caps, s.helloRaw = hm.ClientID, hm.Caps, payload
		case protocol.TypeSessionToken:
			// A reconnecting client presents the token from its last
			// answered pose: adopt the session — any front replica can,
			// the token plus the owning shard's resume probe carry all
			// the state the dead front held in memory.
			if s.helloRaw == nil || !s.adopt(payload) {
				return
			}
			routed = true
		case protocol.TypeBye:
			return
		case protocol.TypeFrame, protocol.TypeKeypoint:
			// The first uplink — a video frame, or a keypoint frame from a
			// session pinned to split mode — routes the session by its
			// world-frame prior, peeked as (*session).uplink peeks it.
			if s.helloRaw == nil {
				return // frame before hello
			}
			if h, _, _, err := protocol.PeekUplink(mt, payload); err == nil && h.HasPrior {
				s.cur = f.cfg.Part.Shard(h.Prior.T.X)
			}
			pending = append(pending, message{mt, payload})
			routed = true
		default:
			if s.helloRaw == nil {
				return
			}
			pending = append(pending, message{mt, payload})
		}
	}
	if !s.connectShard() {
		return
	}
	defer s.closeShard()

	// Uplink pump: one goroutine owns the client read side. done stops
	// it when the session ends with the device's window still queued.
	up := make(chan message, protocol.UplinkWindow)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(up)
		for {
			mt, payload, err := protocol.ReadMessage(client)
			if err != nil {
				return
			}
			select {
			case up <- message{mt, payload}:
			case <-done:
				return
			}
		}
	}()

	for _, m := range pending {
		if !s.uplink(m) {
			return
		}
	}
	for {
		select {
		case m, ok := <-up:
			if !ok {
				// Client went away. Tell the shard if we still can.
				if s.shard != nil {
					protocol.WriteMessage(s.shard, protocol.TypeBye, nil)
				}
				return
			}
			if m.mt == protocol.TypeBye {
				if s.shard != nil {
					protocol.WriteMessage(s.shard, protocol.TypeBye, nil)
				}
				return
			}
			if !s.uplink(m) {
				return
			}
		case m, ok := <-s.down:
			if !ok {
				// Shard died outside a handoff: re-dial (the chaos tier
				// restarts killed shards on the same address) and resume.
				if !s.reconnectShard() {
					return
				}
				continue
			}
			if !s.downlink(m) {
				return
			}
		}
	}
}

// adopt resumes a session from a presented token. The token seeds the
// routing state (owning shard, handoff epoch, offload mode, partition
// position) the dead front held in memory; the owning shard's resume
// probe then continues the epoch sequence past anything the shard saw
// — including a handoff the dead front had begun but never committed.
// The unacked ledger starts empty on purpose: the client's own ledger
// is authoritative (it resends exactly the frames it has no answer
// for), and the token's marks prove receipt up to the watermark, so
// every in-flight frame is re-answered once or cleanly superseded.
// Returns false when the token is unusable.
func (s *session) adopt(payload []byte) bool {
	tok, err := protocol.DecodeSessionTokenMsg(payload)
	if err != nil || tok.ClientID != s.clientID || int(tok.Shard) >= len(s.f.cfg.Shards) {
		s.f.stats.ResumeFailures.Inc()
		return false
	}
	s.token = *tok
	s.cur = tok.Shard
	s.epoch = tok.Epoch
	// Best-effort epoch continuation: the shard remembers the newest
	// handoff epoch per client, so even if the dead front crashed
	// mid-handoff (after Begin, before commit) the next attempt's epoch
	// still exceeds every wire epoch the shards have seen.
	if st, err := s.f.probeResume(s.cur, s.clientID); err == nil {
		if st.ResumeEpoch > s.epoch {
			s.epoch = st.ResumeEpoch
		}
		s.f.stats.SessionsAdopted.Inc()
	} else {
		// The shard may itself be restarting; the session still resumes
		// through the ordinary reconnect path, just without the probe.
		s.f.stats.ResumeFailures.Inc()
	}
	return true
}

// probeResume asks a shard for one client's resume state over a fresh
// admin connection.
func (f *Front) probeResume(shard, clientID uint32) (*protocol.ShardStatusMsg, error) {
	c, err := f.dialPeer(shard, protocol.ShardRoleAdmin, f.cfg.FrontID)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	probe := protocol.ShardControlMsg{
		Op: protocol.ShardOpResume, Token: f.cfg.Token, ClientID: clientID,
	}
	if err := protocol.WriteMessage(c, protocol.TypeShardControl, probe.Encode()); err != nil {
		return nil, err
	}
	raw, err := readReply(c, protocol.TypeShardStatus, dialTimeout)
	if err != nil {
		return nil, err
	}
	return protocol.DecodeShardStatusMsg(raw)
}

// isFrame reports whether an uplink message expects a pose answer.
func isFrame(mt byte) bool {
	return mt == protocol.TypeFrame || mt == protocol.TypeKeypoint
}

// uplink handles one client message. Every uplink, whichever offload
// mode built it, goes the same way: its prior routes it (possibly
// through a handoff: each session has one owning shard, following its
// world-frame prior), it joins the unacked ledger, and it is
// forwarded; a video frame also joins the stream log. Returns false
// when the session must end.
func (s *session) uplink(m message) bool {
	if !isFrame(m.mt) {
		return s.forward(m.mt, m.payload)
	}
	h, left, right, err := protocol.PeekUplink(m.mt, m.payload)
	if err != nil {
		// Undecodable uplink: forward untouched and let the shard apply
		// its own rejection policy. Not tracked as unacked — the shard
		// never answers uplinks it rejects.
		return s.forward(m.mt, m.payload)
	}
	if h.HasPrior {
		s.token.PosX = h.Prior.T.X
		tgt := s.f.cfg.Part.ShardFrom(s.cur, h.Prior.T.X)
		if tgt != s.cur && time.Since(s.lastHandoff) >= s.f.cfg.HandoffCooldown {
			if !s.drain() {
				return false
			}
			if !s.handoff(tgt) {
				return false
			}
		}
	}
	if m.mt == protocol.TypeFrame {
		if video.IsIntra(left) && (len(right) == 0 || video.IsIntra(right)) {
			// A sync point: the shard decodes this frame and everything
			// after it from the device's own bytes, whatever stream its
			// connection opened on. With nothing older unanswered, nothing
			// before it can need decoding again either.
			s.relay = true
			if len(s.unacked) == 0 {
				s.dropLog()
			}
		}
		if len(s.log) == maxStreamLog {
			s.feed(s.log[0])
			s.log = append(s.log[:0], s.log[1:]...)
		}
		s.log = append(s.log, streamFrame{h.FrameIdx, left, right})
	}
	s.unacked = append(s.unacked, pendingFrame{mt: m.mt, idx: h.FrameIdx, payload: m.payload})
	return s.forwardPending()
}

// capLedger enforces the maxUnacked bound, dropping oldest-first. A
// dropped frame is never re-sent on a reconnect — the client's own
// ledger still covers it, at the cost of a relocalize-grade answer.
func (s *session) capLedger() {
	if len(s.unacked) <= maxUnacked {
		return
	}
	dropped := len(s.unacked) - maxUnacked
	n := copy(s.unacked, s.unacked[dropped:])
	for i := n; i < len(s.unacked); i++ {
		s.unacked[i] = pendingFrame{} // release image buffers
	}
	s.unacked = s.unacked[:n]
	s.f.stats.LedgerEvictions.Add(int64(dropped))
}

// feed advances the device-stream decoders by one logged frame and, if
// that frame is still unanswered, leaves its images on the ledger
// entry. A frame that does not decode leaves none: it is only ever
// forwarded as the device sent it, and the shard fails it exactly as
// it would without a front in the path.
func (s *session) feed(e streamFrame) {
	left, err := s.decL.Decode(e.left)
	var right *img.Gray
	if err == nil && len(e.right) > 0 {
		right, err = s.decR.Decode(e.right)
	}
	if err != nil {
		return
	}
	for i := range s.unacked {
		if p := &s.unacked[i]; p.mt == protocol.TypeFrame && p.idx == e.idx {
			p.left, p.right = left, right
			return
		}
	}
}

// dropLog empties the stream log, releasing the payloads it aliases.
func (s *session) dropLog() {
	clear(s.log)
	s.log = s.log[:0]
}

// writePending sends one ledger entry on conn: the device's bytes while
// the connection follows the device stream (and for split-mode frames,
// which carry no video), otherwise the frame re-encoded on the
// connection's own stream — for which the decoders first consume
// whatever the log still holds, this frame included.
func (s *session) writePending(conn net.Conn, p *pendingFrame) error {
	if p.mt != protocol.TypeFrame {
		return protocol.WriteMessage(conn, p.mt, p.payload)
	}
	if !s.relay {
		for _, e := range s.log {
			s.feed(e)
		}
		s.dropLog()
		if p.left != nil {
			fm, _ := protocol.DecodeFrameMsg(p.payload) // uplink decoded it once already
			fm.Video, fm.VideoRight = video.EncodeStereo(s.encL, s.encR, p.left, p.right)
			s.f.stats.FramesTranscoded.Inc()
			return protocol.WriteMessage(conn, p.mt, fm.Encode())
		}
	}
	s.f.stats.FramesRelayed.Inc()
	return protocol.WriteMessage(conn, p.mt, p.payload)
}

// forwardPending caps the ledger and sends the most recently queued
// pending frame (capLedger drops oldest-first, so the new frame always
// survives the cap), reconnecting on failure.
func (s *session) forwardPending() bool {
	s.capLedger()
	if err := s.writePending(s.shard, &s.unacked[len(s.unacked)-1]); err != nil {
		return s.reconnectShard()
	}
	return true
}

// forward writes one message to the shard, reconnecting on failure.
func (s *session) forward(mt byte, payload []byte) bool {
	if err := protocol.WriteMessage(s.shard, mt, payload); err != nil {
		return s.reconnectShard()
	}
	return true
}

// downlink forwards one shard message to the client, settles the frame
// bookkeeping, and (for resume-capable clients) re-issues the session
// token on the answering pose. Returns false when the client write
// fails.
func (s *session) downlink(m message) bool {
	s.attempt, s.outageStart = 0, time.Time{} // the shard answers: outage over
	switch m.mt {
	case protocol.TypePose:
		// Settle the matching ledger entry (not the head — a reconnect
		// replay can answer out of order).
		if idx, ok := protocol.PeekFrameIdx(m.mt, m.payload); ok {
			s.settle(idx)
			if s.caps&offload.CapResume != 0 {
				if tagged := s.attachToken(m.payload, idx); tagged != nil {
					m.payload = tagged
				}
			}
		}
	case protocol.TypeModeSwitch:
		// Track the offload mode into the token so an adopting front
		// resumes the session in the mode the client is actually in. In
		// arrival order, as the client applies them: a shard connection's
		// downlinks are ordered, and epochs restart with every session.
		if ms, err := protocol.DecodeModeSwitchMsg(m.payload); err == nil {
			s.token.Mode = ms.Mode
			s.token.ModeEpoch = ms.Epoch
		}
	}
	return protocol.WriteMessage(s.client, m.mt, m.payload) == nil
}

// settle removes the ledger entry answered by pose idx. No match is
// fine: the answer belongs to a frame the cap evicted, or to a frame
// some earlier front forwarded (post-adoption replays).
func (s *session) settle(idx uint32) {
	for i := range s.unacked {
		if s.unacked[i].idx == idx {
			n := len(s.unacked)
			copy(s.unacked[i:], s.unacked[i+1:])
			s.unacked[n-1] = pendingFrame{} // release image buffers
			s.unacked = s.unacked[:n-1]
			return
		}
	}
}

// attachToken re-issues the session token on an answered pose. The
// mark for the owning shard is set to this pose's own FrameIdx before
// encoding, so mark=i rides on answer i: possession of the token
// proves the client received every answer up to the mark, which makes
// the mark a sound dedup floor for whoever adopts the session next.
// Returns nil when the pose payload cannot be decoded (forward as-is).
func (s *session) attachToken(payload []byte, idx uint32) []byte {
	pm, err := protocol.DecodePoseMsg(payload)
	if err != nil {
		return nil
	}
	s.token.ClientID = s.clientID
	s.token.Shard = s.cur
	s.token.Epoch = s.epoch
	s.token.SetMark(s.cur, idx)
	pm.Token = s.token.Encode()
	return pm.Encode()
}

// drain waits until every forwarded frame has been answered — the
// handoff precondition (outstanding == 0 means the boundary export
// cannot race an in-flight tracking answer). Downlink messages keep
// flowing to the client while draining.
func (s *session) drain() bool {
	for len(s.unacked) > 0 {
		m, ok := <-s.down
		if !ok {
			if !s.reconnectShard() {
				return false
			}
			continue
		}
		if !s.downlink(m) {
			return false
		}
	}
	return true
}

// connectShard dials the session's current shard, replays the original
// hello verbatim, opens a resync window — the new server-side decoders
// are not on the device's stream, so the encoders reset and the first
// frame they produce is an intra — re-encodes and re-sends any
// unanswered frames, and restarts the downlink pump.
func (s *session) connectShard() bool {
	conn, err := s.f.dial(s.f.cfg.Shards[s.cur])
	if err != nil {
		return false
	}
	if err := protocol.WriteMessage(conn, protocol.TypeHello, s.helloRaw); err != nil {
		conn.Close()
		return false
	}
	if s.relay {
		s.relay = false
		s.f.stats.Resyncs.Inc()
	}
	s.encL.Reset()
	s.encR.Reset()
	for i := range s.unacked {
		if err := s.writePending(conn, &s.unacked[i]); err != nil {
			conn.Close()
			return false
		}
	}
	s.shard = conn
	down, done := make(chan message, 64), make(chan struct{})
	s.down, s.downDone = down, done
	go func() {
		defer close(down)
		for {
			mt, payload, err := protocol.ReadMessage(conn)
			if err != nil {
				return
			}
			select {
			case down <- message{mt, payload}:
			case <-done:
				return
			}
		}
	}()
	return true
}

// closeShard drops the current shard connection, if any, and stops its
// downlink pump even if nobody reads s.down again.
func (s *session) closeShard() {
	if s.shard != nil {
		s.shard.Close()
		close(s.downDone)
		s.shard = nil
	}
}

// reconnectShard replaces a failed shard connection under the rule
// client.Run states for the device's end of the socket: the first
// failure — a dead connection, a failed write, a refused dial — opens
// an outage, every redial inside it first sleeps its backoff delay,
// and the first downlink message closes it and refunds the attempts.
// A connection that dies before delivering anything is therefore one
// more attempt of the same outage, so a shard that accepts and kills
// connections while it replays its WAL is retried at a falling rate.
// Returns false, dropping the session, once the outage has outlived
// RedialBudget. The shard's session resume path (relocalization
// against the recovered map) takes it from a successful redial.
func (s *session) reconnectShard() bool {
	s.closeShard()
	for {
		if s.outageStart.IsZero() {
			s.outageStart = time.Now()
		} else if time.Since(s.outageStart) > s.f.cfg.RedialBudget {
			return false
		}
		time.Sleep(s.f.redial.DelayDuration(uint64(s.clientID), s.attempt))
		s.attempt++
		if s.connectShard() {
			return true
		}
	}
}

// handoff moves the session (and its boundary map region) from s.cur
// to tgt. Precondition: no unanswered frames. On any failure the
// handoff aborts without the commit step — the source shard keeps
// ownership — and the session reconnects to wherever it ended up
// owned. Returns false only when the session cannot continue at all.
func (s *session) handoff(tgt uint32) bool {
	s.epoch++
	ev := HandoffEvent{Client: s.clientID, Epoch: s.epoch, From: s.cur, To: tgt}
	abort := func(why string) bool {
		ev.Reason = why
		s.f.record(ev)
		s.lastHandoff = time.Now()
		// The source still owns the region; the Bye below may already
		// have closed the session there, so reconnect and resume. The
		// session hung up itself: only a failed dial opens an outage.
		return s.connectShard() || s.reconnectShard()
	}

	// Close the session on the source cleanly so its tracking state is
	// settled before the export (no mapper can insert behind it).
	// Nothing left in its downlink can be a pose: we drained before the
	// handoff started.
	protocol.WriteMessage(s.shard, protocol.TypeBye, nil)
	s.closeShard()

	src, err := s.f.dialPeer(s.cur, protocol.ShardRoleFront, s.f.cfg.FrontID)
	if err != nil {
		return abort("source control dial: " + err.Error())
	}
	defer src.Close()
	hm := &protocol.HandoffMsg{
		Phase:     protocol.HandoffBegin,
		ClientID:  s.clientID,
		Epoch:     s.epoch,
		FromShard: s.cur,
		ToShard:   tgt,
	}
	if err := protocol.WriteMessage(src, protocol.TypeHandoff, hm.Encode()); err != nil {
		return abort("handoff begin: " + err.Error())
	}
	regionRaw, err := readReply(src, protocol.TypeBoundaryRegion, s.f.cfg.RedialBudget)
	if err != nil {
		return abort("boundary export: " + err.Error())
	}
	if s.f.cfg.HandoffStall > 0 {
		// Failpoint: the source has exported (and recorded the begun
		// epoch) but nothing has been offered to the target yet — the
		// widest window in which a front death strands a handoff.
		s.f.stats.HandoffStalls.Inc()
		time.Sleep(s.f.cfg.HandoffStall)
	}

	// Offer the region to the target, identified as the source shard so
	// import quarantine is charged to the right peer.
	dst, err := s.f.dialPeer(tgt, protocol.ShardRolePeer, s.cur)
	if err != nil {
		return abort("target control dial: " + err.Error())
	}
	defer dst.Close()
	if err := protocol.WriteMessage(dst, protocol.TypeBoundaryRegion, regionRaw); err != nil {
		return abort("boundary offer: " + err.Error())
	}
	ackRaw, err := readReply(dst, protocol.TypeHandoff, s.f.cfg.RedialBudget)
	if err != nil {
		return abort("import answer: " + err.Error())
	}
	ack, err := protocol.DecodeHandoffMsg(ackRaw)
	if err != nil || ack.Epoch != s.epoch {
		return abort("import answer: bad handoff reply")
	}
	if ack.Phase != protocol.HandoffAck {
		return abort("import refused: " + ack.Reason)
	}

	// The target committed (its WAL end marker is durable). Erase the
	// source's copy to restore ownership disjointness.
	hm.Phase = protocol.HandoffCommit
	if err := protocol.WriteMessage(src, protocol.TypeHandoff, hm.Encode()); err == nil {
		readReply(src, protocol.TypeHandoff, s.f.cfg.RedialBudget) // CommitAck, best effort
	}
	s.cur = tgt
	ev.Committed = true
	s.f.record(ev)
	s.lastHandoff = time.Now()
	return s.connectShard() || s.reconnectShard()
}

// readReply reads framed messages until one of the wanted type arrives
// (interleaved unrelated types are not expected on control
// connections, but a bounded skip is cheap insurance).
func readReply(conn net.Conn, want byte, timeout time.Duration) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	defer conn.SetReadDeadline(time.Time{})
	for i := 0; i < 16; i++ {
		mt, payload, err := protocol.ReadMessage(conn)
		if err != nil {
			return nil, err
		}
		if mt == want {
			return payload, nil
		}
	}
	return nil, errors.New("no matching reply")
}

// FrontMain is the slamshare-front process: it registers the front's
// flags on fs, bound onto cfg, parses args, and routes devices until
// the listener fails. A flag sets the field it binds, to its default
// when absent; Shards, FrontID and Part.N come from the flags too, and
// every other field is the caller's. The slamshare-front binary starts
// from a zero FrontConfig; a caller may register flags of its own on fs
// first.
func FrontMain(fs *flag.FlagSet, args []string, cfg *FrontConfig) error {
	addr := fs.String("addr", "127.0.0.1:7006", "listen address devices dial")
	shards := fs.String("shards", "", "comma-separated shard addresses; index is the shard ID")
	fs.Uint64Var(&cfg.Token, "token", 0, "shared secret matching the shards' -shard-token")
	frontID := fs.Uint("front-id", 0, "this front's ID in shard-to-shard sender fields")
	fs.Float64Var(&cfg.Part.Min, "min-x", -100, "west edge of the partitioned region (metres, world frame)")
	fs.Float64Var(&cfg.Part.Max, "max-x", 100, "east edge of the partitioned region")
	fs.Float64Var(&cfg.Part.Hysteresis, "hysteresis", 5, "half-width of the no-handoff band around shard boundaries (metres)")
	fs.DurationVar(&cfg.HandoffCooldown, "handoff-cooldown", 500*time.Millisecond, "minimum dwell between ownership handoffs per session")
	debugAddr := fs.String("debug-addr", "", "serve /debug/vars with the front failover gauges on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg.Shards = nil
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Shards = append(cfg.Shards, a)
		}
	}
	if len(cfg.Shards) == 0 {
		return errors.New("at least one -shards address is required")
	}
	cfg.FrontID = uint32(*frontID)
	cfg.Part.N = len(cfg.Shards)
	front := NewFront(*cfg)

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		front.RegisterDebug(reg)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		log.Printf("debug endpoint on http://%s/debug/vars", dln.Addr())
		go http.Serve(dln, obs.Handler(obs.NewTracer(reg, obs.DefaultRingSize)))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("slamshare-front on %s routing x∈[%v, %v) across %d shards: %v",
		ln.Addr(), cfg.Part.Min, cfg.Part.Max, len(cfg.Shards), cfg.Shards)

	go func() {
		seen := 0
		for range time.Tick(5 * time.Second) {
			evs := front.Events()
			for ; seen < len(evs); seen++ {
				ev := evs[seen]
				if ev.Committed {
					log.Printf("handoff: client %d shard %d -> %d (epoch %d)",
						ev.Client, ev.From, ev.To, ev.Epoch)
				} else {
					log.Printf("handoff aborted: client %d shard %d -> %d: %s",
						ev.Client, ev.From, ev.To, ev.Reason)
				}
			}
		}
	}()

	return front.Serve(ln)
}
