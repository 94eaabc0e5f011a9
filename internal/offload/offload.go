// Package offload decides, per session, how much of the SLAM pipeline
// runs on the edge server. SLAM-share assumes full offload — every
// client uploads video and the server does everything — but the
// paper's Table 2 RTT sweep shows the win collapsing when the uplink
// or the server saturates. Following the joint offloading/scheduling
// line of work, each session negotiates one of three modes:
//
//	full   — video upload, the status quo (§4.1)
//	split  — the client runs FAST/ORB extraction and uploads
//	         keypoints + descriptors, skipping video encode/decode
//	         and the server's extract stage
//	shadow — client-local dead reckoning with map-only sync, for
//	         sessions the server cannot afford to track at all
//
// The controller picks a mode from measured RTT, server load
// (trackpool queue depth per worker plus the session's own uplink
// backlog), and the session's QoS class, with hysteresis so modes
// don't flap: a switch is only taken after a minimum dwell, and an
// upgrade additionally requires the load to clear the tighter
// upgradeFrac-scaled thresholds, not merely dip below the downgrade
// ones.
package offload

import "time"

// Mode is a session's offload mode. Higher values are more degraded.
type Mode uint8

const (
	// ModeFull is full offload: the client uplinks encoded video.
	ModeFull Mode = iota
	// ModeSplit is split offload: the client extracts keypoints and
	// uplinks them instead of video.
	ModeSplit
	// ModeShadow is map-only sync: the client tracks locally on IMU
	// dead reckoning and the server just keeps its motion model warm.
	ModeShadow
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeSplit:
		return "split"
	case ModeShadow:
		return "shadow"
	}
	return "unknown"
}

// QoS is a session's service class. Lower values outrank higher ones
// everywhere: in the trackpool's EDF ordering and in how much server
// load the class tolerates before being downgraded.
type QoS uint8

const (
	// QoSHeadset: an AR headset rendering world-locked holograms; the
	// most latency-sensitive class. Never downgraded to shadow mode.
	QoSHeadset QoS = iota
	// QoSHandheld: a phone/tablet AR viewer.
	QoSHandheld
	// QoSDrone: a mapping drone contributing coverage; throughput
	// matters, latency does not. First to degrade under load.
	QoSDrone
)

func (q QoS) String() string {
	switch q {
	case QoSHeadset:
		return "headset"
	case QoSHandheld:
		return "handheld"
	case QoSDrone:
		return "drone"
	}
	return "unknown"
}

// loadScale is the per-class multiplier on the load thresholds: a
// headset tolerates 1.5x the nominal load before degrading, a drone
// only 0.6x, so under ramping load drones shed first and headsets
// last.
func (q QoS) loadScale() float64 {
	switch q {
	case QoSHeadset:
		return 1.5
	case QoSDrone:
		return 0.6
	}
	return 1.0
}

// Caps are the capability bits of a client's hello: the offload modes
// it can run locally (a session is never switched into a mode it lacks)
// and token resume. A client with no bits, like every legacy client,
// stays in full offload.
type Caps uint8

const (
	// CapSplit: the client can extract FAST/ORB keypoints itself.
	CapSplit Caps = 1 << iota
	// CapShadow: the client can dead-reckon locally on map-only sync.
	CapShadow
	// CapResume: the client keeps the session token of its newest
	// answered pose and presents it after the hello of a redial, so any
	// front replica can adopt the session (DESIGN §12). Not a mode.
	CapResume
)

// Config tunes the mode-decision policy.
type Config struct {
	// SplitLoad is the load (queued frames per trackpool worker plus
	// session backlog) at which a full session degrades to split.
	SplitLoad float64
	// ShadowLoad is the load at which a split session degrades to
	// shadow (headsets are exempt).
	ShadowLoad float64
	// SplitRTT is the measured round-trip time beyond which full
	// offload degrades to split regardless of load: past it the
	// motion-to-pose budget is already blown on the wire, so the
	// encode/decode/extract stages split mode removes from the
	// critical path are worth more than the video stream.
	SplitRTT time.Duration
	// Hysteresis is the minimum dwell between mode switches.
	Hysteresis time.Duration
}

// upgradeFrac scales the thresholds an upgrade must clear: moving to a
// less degraded mode requires the signals to fit under upgradeFrac x
// the downgrade thresholds, so a session sitting at the boundary does
// not flap.
const upgradeFrac = 0.5

// DefaultConfig returns the policy defaults.
func DefaultConfig() Config {
	return Config{
		SplitLoad:  2,
		ShadowLoad: 6,
		SplitRTT:   150 * time.Millisecond,
		Hysteresis: 2 * time.Second,
	}
}

// fill replaces zero fields with defaults.
func (c Config) fill() Config {
	d := DefaultConfig()
	if c.SplitLoad == 0 {
		c.SplitLoad = d.SplitLoad
	}
	if c.ShadowLoad == 0 {
		c.ShadowLoad = d.ShadowLoad
	}
	if c.SplitRTT == 0 {
		c.SplitRTT = d.SplitRTT
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = d.Hysteresis
	}
	return c
}

// Inputs are the measured signals one decision is made from.
type Inputs struct {
	// RTT is the client-reported round-trip estimate (0 if unknown).
	RTT time.Duration
	// QueueDepth is the number of frames queued or waiting for
	// admission at the trackpool.
	QueueDepth int
	// Workers is the trackpool worker count.
	Workers int
	// Backlog is this session's own queued uplink frames.
	Backlog int
}

// Load folds the trackpool pressure and the session backlog into one
// queued-frames-per-worker figure.
func (in Inputs) Load() float64 {
	w := in.Workers
	if w < 1 {
		w = 1
	}
	return float64(in.QueueDepth)/float64(w) + float64(in.Backlog)
}

// Controller holds one session's mode state. It is not safe for
// concurrent use; the server drives it from the session's connection
// goroutine.
type Controller struct {
	cfg        Config
	qos        QoS
	caps       Caps
	mode       Mode
	epoch      uint32
	lastSwitch time.Time
	switched   bool
}

// NewController starts a session in mode at epoch 0: full offload for a
// new device, or the mode of its first uplink for one that already
// runs another (it redialed, or a front moved it to a new shard).
func NewController(cfg Config, qos QoS, caps Caps, mode Mode) *Controller {
	return &Controller{cfg: cfg.fill(), qos: qos, caps: caps, mode: mode}
}

// Mode returns the current mode.
func (c *Controller) Mode() Mode { return c.mode }

// Epoch returns the switch epoch (increments on every switch).
func (c *Controller) Epoch() uint32 { return c.epoch }

// target picks the least degraded mode whose entry conditions hold
// with the thresholds scaled by frac (frac=1 for downgrades; frac =
// upgradeFrac when vetting an upgrade, making the thresholds tighter
// so borderline load does not flap).
func (c *Controller) target(in Inputs, frac float64) Mode {
	scale := c.qos.loadScale() * frac
	load := in.Load()
	m := ModeFull
	if c.caps&CapSplit != 0 &&
		(load >= c.cfg.SplitLoad*scale ||
			in.RTT >= time.Duration(float64(c.cfg.SplitRTT)*frac)) {
		m = ModeSplit
	}
	if c.caps&CapShadow != 0 && c.qos != QoSHeadset && load >= c.cfg.ShadowLoad*scale {
		m = ModeShadow
	}
	return m
}

// Decide runs one policy step at the given time and returns the
// session's mode plus whether this call switched it.
func (c *Controller) Decide(now time.Time, in Inputs) (Mode, bool) {
	if c.switched && now.Sub(c.lastSwitch) < c.cfg.Hysteresis {
		return c.mode, false
	}
	want := c.target(in, 1)
	switch {
	case want > c.mode:
		// Downgrade: take it immediately (past the dwell).
	case want < c.mode:
		// Upgrade: only when the signals also clear the tighter
		// upgradeFrac-scaled thresholds.
		if c.target(in, upgradeFrac) != want {
			return c.mode, false
		}
	default:
		return c.mode, false
	}
	c.mode = want
	c.epoch++
	c.lastSwitch = now
	c.switched = true
	return c.mode, true
}
