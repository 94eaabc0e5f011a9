// Package client implements the SLAM-Share AR device (Fig. 3, left):
// it integrates its IMU with the paper's Algorithm 1 for short-horizon
// pose prediction, encodes camera frames as video, uploads them to the
// edge server, and folds the returned SLAM poses back into its motion
// model. The client's compute is only IMU integration plus video
// encoding — the source of the ~35x CPU reduction of Fig. 13.
package client

import (
	"sync"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/imu"
	"slamshare/internal/metrics"
	"slamshare/internal/obs"
	"slamshare/internal/offload"
	"slamshare/internal/protocol"
	"slamshare/internal/video"
)

// Client is one AR device replaying a dataset sequence.
type Client struct {
	ID  uint32
	Seq *dataset.Sequence
	// Pace is the device's camera clock. Zero means there is none and
	// Run is a closed loop: the next frame is built once the previous
	// one is answered. Positive makes Run an open loop that spaces its
	// uplinks by this interval without waiting for answers, up to
	// maxInFlight unanswered ones. Set before the run starts.
	Pace time.Duration
	// Obs, when non-nil, records a "client.encode" span per built
	// frame (the device's whole per-frame compute: IMU integration +
	// video encoding), completing the end-to-end frame trace the
	// server-side stages continue.
	Obs *obs.Tracer
	// OnAnswer, when non-nil, is called by Run once per settled answer
	// — the first answer to an uplink it is still waiting on, after the
	// answer is applied and before the uplink leaves the ledger. Chaos
	// harnesses use it to keep concurrent sessions in lockstep. Set
	// before the run starts; it runs on Run's reader goroutine and may
	// block (no further downlink is read, and in a closed loop no
	// further frame is built, until it returns).
	OnAnswer func(pm *protocol.PoseMsg)

	stEncode  *obs.Stage
	stExtract *obs.Stage
	mu        sync.Mutex
	mm        *imu.MotionModel
	encL      *video.Encoder
	encR      *video.Encoder
	meter     *metrics.CPUMeter
	encMeter  *metrics.CPUMeter
	est       metrics.Trajectory
	live      metrics.Trajectory
	sent      int
	applied   int
	lastFrame int
	upBytes   int64

	// Adaptive-offloading state: the QoS class and capabilities
	// advertised in the hello (EnableAdaptive; the zero values are a
	// headset that can only run full offload), the current mode as
	// commanded by the server's ModeSwitch downlinks, the on-device
	// extractor split mode runs, and the RTT estimate folded from
	// echoed pose timestamps. forced pins the mode against server
	// switches (the -mode flag / A-B experiments).
	qos     offload.QoS
	caps    offload.Caps
	mode    offload.Mode
	forced  bool
	ex      *feature.Extractor
	rttEWMA float64 // nanoseconds
	modeLog []ModeEvent

	// Resumable-session state: the raw session token from the most
	// recent pose that carried one, presented to whichever front the
	// client lands on after a redial; tokenLog records the
	// distinct (epoch, shard) states observed, in order, for
	// failover assertions; answers counts pose answers per frame index
	// as observed on the live socket (the exactly-once evidence).
	lastToken []byte
	tokenLog  []protocol.SessionTokenMsg
	answers   map[uint32]int
}

// ModeEvent records one offload-mode transition the client applied.
type ModeEvent struct {
	// At is when the client applied the switch; a starved reader can
	// apply queued switches back to back, so ServerNanos (the server's
	// send stamp) is the authoritative spacing between switches.
	At          time.Time
	ServerNanos uint64
	Mode        offload.Mode
	Epoch       uint32
}

// New returns a client for the given sequence. The motion model is
// anchored at the sequence's first ground-truth pose (the paper's
// clients likewise share an initial gravity-aligned origin via the
// first server fix).
func New(id uint32, seq *dataset.Sequence) *Client {
	const h = 1e-3
	v0 := seq.Traj.PoseAt(h).T.Sub(seq.Traj.PoseAt(0).T).Scale(1 / h)
	return &Client{
		ID:       id,
		Seq:      seq,
		mm:       imu.NewMotionModel(seq.GroundTruth(0), v0),
		encL:     video.NewEncoder(),
		encR:     video.NewEncoder(),
		meter:    metrics.NewCPUMeter(),
		encMeter: metrics.NewCPUMeter(),
	}
}

// Meter returns the client compute meter (Fig. 13).
func (c *Client) Meter() *metrics.CPUMeter { return c.meter }

// EncodeBusy returns the part of the client's busy time spent in
// software video encoding. Note it includes the synthetic frame
// rendering (a stand-in for the camera), so subtracting it from
// Meter().Busy() leaves the pure IMU + bookkeeping compute — the cost
// profile of a device with a hardware encoder, as in the paper.
func (c *Client) EncodeBusy() time.Duration { return c.encMeter.Busy() }

// Trajectory returns the client's own pose estimates over time — the
// IMU motion model continuously corrected by server poses. This is
// what the user experiences (hologram placement), so it is what the
// short-term ATE of Fig. 12 evaluates.
func (c *Client) Trajectory() metrics.Trajectory {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(metrics.Trajectory, len(c.est))
	copy(out, c.est)
	return out
}

// LiveTrajectory returns the as-experienced pose estimates: what the
// device believed at each frame time, without retroactive correction
// by later server answers. RTT and missed updates show up here.
func (c *Client) LiveTrajectory() metrics.Trajectory {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(metrics.Trajectory, len(c.live))
	copy(out, c.live)
	return out
}

// UplinkBytes returns the uplink payload bytes BuildUplink has built:
// the encoded video of full-offload frames, and the whole encoded
// message of split frames and sync pings.
func (c *Client) UplinkBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.upBytes
}

// FramesSent returns the number of frames uploaded.
func (c *Client) FramesSent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// Reconnect prepares the device for a fresh server session (e.g.
// after a server restart): the video streams restart with intra
// frames so the server's new decoders have a reference.
func (c *Client) Reconnect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encL.Reset()
	c.encR.Reset()
}

// BuildUplink builds frame i in the device's current offload mode:
// encoded video (full), on-device keypoints (split) or an IMU-only
// map-sync ping (shadow). It is the device's one uplink builder, and it
// counts the uplink's bytes (UplinkBytes).
func (c *Client) BuildUplink(i int) protocol.Uplink {
	var msg protocol.Uplink
	var n int
	switch c.OffloadMode() {
	case offload.ModeSplit:
		km := c.BuildKeypointFrame(i)
		msg, n = km, km.EncodedLen()
	case offload.ModeShadow:
		// The server's motion model stays warm for a later upgrade
		// while the device tracks locally: its estimate is pure dead
		// reckoning, as shadow answers carry no fix.
		km := &protocol.KeypointMsg{Flags: protocol.KeypointSyncOnly}
		c.mu.Lock()
		c.meter.Time(func() { km.UplinkHeader = c.header(i) })
		c.mu.Unlock()
		msg, n = km, km.EncodedLen()
	default:
		fm := c.BuildFrame(i)
		msg, n = fm, len(fm.Video)+len(fm.VideoRight)
	}
	c.mu.Lock()
	c.upBytes += int64(n)
	c.mu.Unlock()
	return msg
}

// BuildFrame builds the full-offload uplink for frame i: the header,
// then the encoded camera frames. All the work here is the client's
// entire per-frame compute and is accounted against its CPU meter.
func (c *Client) BuildFrame(i int) *protocol.FrameMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Obs != nil && c.stEncode == nil {
		c.stEncode = c.Obs.Stage("client.encode")
	}
	sp := c.stEncode.Start(c.ID, uint64(c.sent))
	defer sp.End()
	msg := &protocol.FrameMsg{}
	c.meter.Time(func() {
		msg.UplinkHeader = c.header(i)
		// Video encoding (metered separately: the paper's devices use a
		// hardware encoder, so Fig. 13 reports compute with and without
		// this cost).
		c.encMeter.Time(func() {
			left, right := c.Seq.StereoFrame(i)
			msg.Video, msg.VideoRight = video.EncodeStereo(c.encL, c.encR, left, right)
		})
	})
	return msg
}

// header advances the device to frame i and returns what every uplink
// of that frame carries. The motion model integrates the IMU captured
// since the previous sent frame (Alg. 1 ApproxPose_UpdateMM), and its
// prediction rides along as the prior: it anchors the server-side map
// in the client's local frame and carries the tracker through
// initialization before the first SLAM fix. The prediction is appended
// to both trajectories. The first sent frame is the motion model's
// anchor (entry 0), so est[k] always corresponds to motion-model entry
// k, whichever uplink mode carries the frame. Caller holds c.mu.
func (c *Client) header(i int) protocol.UplinkHeader {
	var delta imu.FrameDelta
	var pred geom.SE3
	if c.sent == 0 {
		delta = imu.FrameDelta{RotDelta: geom.IdentityQuat()}
		pred = c.mm.Latest()
	} else {
		span := c.Seq.IMUBetween(c.lastFrame, i)
		delta = imu.FrameDeltaFrom(imu.Preintegrate(span))
		pred = c.mm.ApproxPoseUpdateMM(delta)
	}
	c.lastFrame = i
	c.sent++
	stamp := c.Seq.FrameTime(i)
	c.est.Append(stamp, pred.T)
	// The live trajectory records what the device believed at this
	// instant; unlike est it is never retro-corrected, so it is what
	// the user's display actually showed (Appendix C's "snapshot as it
	// is walked").
	c.live.Append(stamp, pred.T)
	return protocol.UplinkHeader{
		ClientID: c.ID, FrameIdx: uint32(i), Stamp: stamp,
		Delta: delta, Prior: pred, HasPrior: true,
	}
}

// BuildKeypointFrame builds the split-offload uplink for frame i: the
// header, then on-device FAST/ORB extraction and stereo depth through
// the same feature.Extractor code path the server runs (Extract, then
// StereoSearch) — the keypoints are bit-identical to what the server
// would have produced from the same pixels, so split-mode tracking
// matches full-offload tracking exactly. No video is encoded.
func (c *Client) BuildKeypointFrame(i int) *protocol.KeypointMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Obs != nil && c.stExtract == nil {
		c.stExtract = c.Obs.Stage("client.extract")
	}
	sp := c.stExtract.Start(c.ID, uint64(c.sent))
	defer sp.End()
	if c.ex == nil {
		c.ex = feature.NewExtractor(feature.DefaultConfig())
	}
	msg := &protocol.KeypointMsg{}
	c.meter.Time(func() {
		msg.UplinkHeader = c.header(i)
		left, right := c.Seq.StereoFrame(i)
		kps := c.ex.Extract(left)
		if right != nil && c.Seq.Rig.Mode == camera.Stereo {
			c.ex.StereoSearch(left, right, kps, c.Seq.Rig.Intr.Fx, c.Seq.Rig.Baseline)
		}
		msg.Kps = kps
	})
	return msg
}

// ApplyPose folds a server pose answer into the motion model
// (Alg. 1 Recv_SLAMPose): the poses of every frame after frameIdx are
// re-propagated, and the trajectory estimate is updated from that
// frame on.
func (c *Client) ApplyPose(frameIdx int, pose geom.SE3, tracked bool) {
	if !tracked {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meter.Time(func() {
		// The motion model indexes frames from 0 in lockstep with the
		// uplinks built; map the dataset frame index onto it.
		mmIdx := c.frameToMM(frameIdx)
		if mmIdx < 0 {
			return
		}
		c.mm.RecvSLAMPose(pose.Inverse(), mmIdx)
		// Rewrite the trajectory tail with the corrected poses:
		// est[k] corresponds to motion-model entry k.
		for j := mmIdx; j < c.mm.Len() && j < len(c.est); j++ {
			p, ok := c.mm.PoseOf(j)
			if !ok {
				continue
			}
			c.est[j].Pos = p.T
		}
	})
	c.applied++
}

// frameToMM maps a dataset frame index to a motion-model index. The
// client may replay frames with a stride, so the mapping is by
// arrival order: the n-th sent frame is motion-model entry n.
func (c *Client) frameToMM(frameIdx int) int {
	// The motion model has exactly `sent` entries (entry 0 is the
	// anchor = first sent frame). Find how many frames back frameIdx
	// was. With stride s, sent frames are i0, i0+s, ... — we recover
	// the offset from the most recent.
	if c.sent == 0 {
		return -1
	}
	// est[k] corresponds to mm entry k; frame indices were appended in
	// order, so search from the tail (answers are recent).
	stamp := c.Seq.FrameTime(frameIdx)
	for k := len(c.est) - 1; k >= 0; k-- {
		if c.est[k].T == stamp {
			return k
		}
		if c.est[k].T < stamp {
			break
		}
	}
	return -1
}

// ReencodeFrame refreshes a built frame's video payloads after
// Reconnect, for resending an already-built frame on a fresh
// connection: the new stream must open with intra frames, but the
// motion model and trajectory were already advanced by BuildFrame and
// must not move again.
func (c *Client) ReencodeFrame(msg *protocol.FrameMsg, i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	left, right := c.Seq.StereoFrame(i)
	msg.Video, msg.VideoRight = video.EncodeStereo(c.encL, c.encR, left, right)
}

// SessionTokens returns the distinct session states observed through
// received tokens, in arrival order. Across a front failover the
// epochs must be non-decreasing — an adopted session never reuses a
// handoff epoch the dead front already spent.
func (c *Client) SessionTokens() []protocol.SessionTokenMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]protocol.SessionTokenMsg, len(c.tokenLog))
	copy(out, c.tokenLog)
	return out
}

// AnswerCounts returns how many pose answers arrived per frame index
// on the live socket. Run only resends an uplink still on its ledger,
// so every count must be exactly one — the client-side proof of the
// exactly-once guarantee.
func (c *Client) AnswerCounts() map[uint32]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]int, len(c.answers))
	for k, v := range c.answers {
		out[k] = v
	}
	return out
}

// noteToken stores the session token carried by an answered pose and
// logs it when it represents a new (epoch, shard) state.
func (c *Client) noteToken(raw []byte) {
	tok, err := protocol.DecodeSessionTokenMsg(raw)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastToken = append(c.lastToken[:0], raw...)
	n := len(c.tokenLog)
	if n == 0 || c.tokenLog[n-1].Epoch != tok.Epoch || c.tokenLog[n-1].Shard != tok.Shard {
		c.tokenLog = append(c.tokenLog, *tok)
	}
}

// noteAnswer counts one pose answer for frame idx, shed or not.
func (c *Client) noteAnswer(idx uint32) {
	c.mu.Lock()
	if c.answers == nil {
		c.answers = make(map[uint32]int)
	}
	c.answers[idx]++
	c.mu.Unlock()
}

// Mode returns the client's camera mode.
func (c *Client) Mode() camera.Mode { return c.Seq.Rig.Mode }

// NewDisplaced returns a client whose local frame differs from the
// world frame by a yaw rotation about gravity and a translation — the
// arbitrary per-client map origin that map merging must resolve
// (Fig. 7). Gravity stays aligned, so IMU dead-reckoning remains
// valid in the displaced frame.
func NewDisplaced(id uint32, seq *dataset.Sequence, yaw float64, offset geom.Vec3) *Client {
	c := New(id, seq)
	d := geom.SE3{R: geom.QuatFromAxisAngle(geom.Vec3{Z: 1}, yaw), T: offset}
	c.mm.Transform(geom.Sim3FromSE3(d))
	return c
}

// UseImageTransfer switches the client to standalone image coding
// (every frame intra) — the image-transfer baseline of Table 3.
func (c *Client) UseImageTransfer() {
	c.encL.GOP = 1
	c.encR.GOP = 1
}

// EnableAdaptive sets the QoS class and mode capabilities the hello
// advertises: with CapSplit and/or CapShadow the server may switch the
// session between full, split, and shadow modes at runtime.
func (c *Client) EnableAdaptive(qos offload.QoS, caps offload.Caps) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.qos = qos
	c.caps = caps
	if c.ex == nil && caps&offload.CapSplit != 0 {
		c.ex = feature.NewExtractor(feature.DefaultConfig())
	}
}

// ForceMode pins the offload mode, ignoring server switches (the
// client still advertises its capabilities, so the session remains
// adaptive on the wire — poses are echoed — but the uplink stays in
// the given mode). Used by the -mode flag and per-mode experiments.
func (c *Client) ForceMode(m offload.Mode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mode = m
	c.forced = true
	if m == offload.ModeSplit && c.ex == nil {
		c.ex = feature.NewExtractor(feature.DefaultConfig())
	}
}

// OffloadMode returns the client's current offload mode.
func (c *Client) OffloadMode() offload.Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// RTTEstimate returns the EWMA round-trip estimate folded from echoed
// pose timestamps (0 until the first echo).
func (c *Client) RTTEstimate() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rttEWMA)
}

// ModeLog returns the mode transitions applied so far, in order.
func (c *Client) ModeLog() []ModeEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ModeEvent, len(c.modeLog))
	copy(out, c.modeLog)
	return out
}

// noteEcho folds one echoed send-timestamp into the RTT estimate.
func (c *Client) noteEcho(echoNanos uint64, now time.Time) {
	rtt := float64(now.UnixNano() - int64(echoNanos))
	if rtt <= 0 {
		return
	}
	c.mu.Lock()
	const alpha = 0.2
	if c.rttEWMA == 0 {
		c.rttEWMA = rtt
	} else {
		c.rttEWMA += alpha * (rtt - c.rttEWMA)
	}
	c.mu.Unlock()
}

// ApplyModeSwitch applies a server mode-switch downlink; a forced mode
// ignores switches entirely. Switches apply in arrival order, whatever
// their epochs: one connection's downlinks arrive in the order they
// were sent, and epochs restart with every server session, so a device
// that redialed must follow the new session's epoch 1. Run calls this
// itself; custom socket loops call it for TypeModeSwitch downlinks.
func (c *Client) ApplyModeSwitch(m *protocol.ModeSwitchMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.forced {
		return
	}
	newMode := offload.Mode(m.Mode)
	if newMode == offload.ModeFull && c.mode != offload.ModeFull {
		// Upgrading back into video upload: the server's decoders
		// missed the split/shadow period, so the streams must restart
		// with intra frames.
		c.encL.Reset()
		c.encR.Reset()
	}
	c.mode = newMode
	c.modeLog = append(c.modeLog, ModeEvent{
		At: time.Now(), ServerNanos: m.SentNanos, Mode: newMode, Epoch: m.Epoch,
	})
}
