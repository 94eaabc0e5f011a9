// Package slamshare is a Go implementation of SLAM-Share (Dhakal et
// al., CoNEXT 2022): visual-inertial SLAM for real-time multi-user
// augmented reality, with tracking and mapping offloaded to an edge
// server, GPU-accelerated feature extraction and local-map search, and
// a shared-memory global map that merges all clients' maps so every
// device localizes in one common coordinate frame.
//
// # Architecture
//
// An EdgeServer owns the shared global map (one smap.Map every session
// goroutine reaches by pointer: the paper's shared-memory region with
// its zero-copy, zero-serialization contract) and one Session per
// connected device. Devices
// (Device) integrate their IMU for short-horizon pose prediction
// (Algorithm 1 of the paper), encode camera frames as video, and
// stream them to the server; the server tracks each frame against the
// shared map — its data-parallel kernels batched through one
// server-wide worker pool (internal/trackpool) — and returns only the
// pose. A merge process folds each client's map into
// the global map within ~200 ms (Algorithm 2), after which all devices
// share one frame of reference and see each other's holograms
// consistently.
//
// The synthetic datasets (LoadSequence) reproduce the structure of the
// EuRoC and KITTI sequences the paper evaluates on; see DESIGN.md for
// the substitution inventory and EXPERIMENTS.md for the reproduction
// of every table and figure.
package slamshare

import (
	"fmt"
	"net"
	"net/http"

	"slamshare/internal/baseline"
	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/holo"
	"slamshare/internal/img"
	"slamshare/internal/merge"
	"slamshare/internal/metrics"
	"slamshare/internal/netem"
	"slamshare/internal/obs"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/persist"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
	"slamshare/internal/smap"
)

// Re-exported core types. Aliases keep the public API thin while the
// implementation lives in internal packages.
type (
	// Pose is a rigid transform; server answers are world-to-camera.
	Pose = geom.SE3
	// Vec3 is a 3D vector in metres.
	Vec3 = geom.Vec3
	// Image is an 8-bit grayscale camera frame.
	Image = img.Gray
	// Sequence is a replayable synthetic dataset sequence.
	Sequence = dataset.Sequence
	// Mode selects monocular or stereo operation.
	Mode = camera.Mode
	// Rig describes a camera rig.
	Rig = camera.Rig
	// Trajectory is a timestamped position series.
	Trajectory = metrics.Trajectory
	// FrameMsg is the uplink frame message.
	FrameMsg = protocol.FrameMsg
	// MergeReport is the timing breakdown of one map merge.
	MergeReport = merge.Report
	// Map is a SLAM map (the global shared map or a client map).
	Map = smap.Map
	// NetemConfig shapes a connection (delay, bandwidth).
	NetemConfig = netem.Config
	// RecoveryInfo summarizes a server's startup recovery.
	RecoveryInfo = persist.Recovery
)

// Camera modes.
const (
	Mono   = camera.Mono
	Stereo = camera.Stereo
)

// LoadSequence returns a named synthetic sequence: MH04, MH05, V202,
// TUM-fr1, KITTI-00 or KITTI-05.
func LoadSequence(name string, mode Mode) (*Sequence, error) {
	return dataset.ByName(name, mode)
}

// ServerOptions configures an in-process EdgeServer. Everything else
// keeps server.DefaultConfig's value; the slamshare-server command
// binds its flags onto that struct directly.
type ServerOptions struct {
	// CheckpointDir enables durable persistence: the global map is
	// recovered from this directory on startup (latest checkpoint +
	// journal replay) and journaled + checkpointed while running.
	// Empty disables persistence.
	CheckpointDir string
}

// EdgeServer is the SLAM-Share edge server.
type EdgeServer struct {
	inner *server.Server
}

// NewEdgeServer creates a server with an empty shared global map.
func NewEdgeServer(opts ServerOptions) (*EdgeServer, error) {
	cfg := server.DefaultConfig()
	cfg.Persist.Dir = opts.CheckpointDir
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &EdgeServer{inner: s}, nil
}

// Close stops the server and, with persistence, closes its journal.
func (s *EdgeServer) Close() { s.inner.Close() }

// GlobalMap returns the shared global map.
func (s *EdgeServer) GlobalMap() *Map { return s.inner.Global() }

// Anchors returns the server's hologram anchor registry. With
// persistence enabled it is checkpointed alongside the map and
// restored on recovery.
func (s *EdgeServer) Anchors() *AnchorRegistry { return s.inner.Anchors() }

// Recovery returns the startup recovery summary (nil when the server
// started without a checkpoint directory).
func (s *EdgeServer) Recovery() *persist.Recovery { return s.inner.Recovery() }

// CheckpointNow forces an immediate checkpoint; a no-op error-free
// call is not possible without persistence enabled.
func (s *EdgeServer) CheckpointNow() error {
	if p := s.inner.Persist(); p != nil {
		return p.CheckpointNow()
	}
	return fmt.Errorf("slamshare: persistence not enabled")
}

// MergeReports returns the recorded merge timing breakdowns.
func (s *EdgeServer) MergeReports() []MergeReport { return s.inner.MergeReports() }

// Obs returns the server's tracer: per-stage latency histograms and
// the recent-span ring every pipeline stage reports into.
func (s *EdgeServer) Obs() *obs.Tracer { return s.inner.Obs() }

// DebugHandler returns the live observability endpoint (/debug/vars,
// /debug/spans, /debug/pprof/). Serve it on a private address — it
// exposes profiling data, not the client protocol.
func (s *EdgeServer) DebugHandler() http.Handler { return s.inner.DebugHandler() }

// Serve accepts device connections on the listener (blocking).
func (s *EdgeServer) Serve(l net.Listener) error { return s.inner.Serve(l) }

// Session is a device's server-side process.
type Session = server.Session

// SessionResult reports one processed frame.
type SessionResult = server.Result

// OpenSession registers a device with the server for in-process use
// (experiments, tests); networked devices use Device.Run instead.
func (s *EdgeServer) OpenSession(clientID uint32, rig Rig) (*Session, error) {
	return s.inner.OpenSession(clientID, rig)
}

// CloseSession removes a device's session.
func (s *EdgeServer) CloseSession(clientID uint32) { s.inner.CloseSession(clientID) }

// Device is a SLAM-Share client device replaying a sequence: IMU
// integration + video encoding on-device, SLAM on the server. Its one
// socket loop is Device.Run(dial, frames, retry): hello, uplinks in the
// session's offload mode, pose and mode-switch downlinks, and — when
// the dialer can redial — reconnect and session resume.
type Device = client.Client

// Dialer supplies Device.Run with connections; RetryPolicy is the
// jittered backoff (delays in milliseconds) it redials under. The zero
// RetryPolicy retries immediately and without bound.
type (
	Dialer      = client.Dialer
	RetryPolicy = overload.Backoff
)

// ConnDialer runs a session over one already-open (e.g. shaped)
// connection; the session ends with the link.
func ConnDialer(conn net.Conn) Dialer { return client.ConnDialer(conn) }

// AddrDialer dials TCP addresses in rotation: one server, or a list of
// replicated fronts of which any survivor can adopt the session.
func AddrDialer(addrs ...string) Dialer { return client.AddrDialer(addrs...) }

// NewDevice creates a device for a sequence, anchored at the
// sequence's initial ground-truth pose.
func NewDevice(id uint32, seq *Sequence) *Device {
	return client.New(id, seq)
}

// NewDisplacedDevice creates a device whose local frame is displaced
// from the world frame by a yaw rotation and a translation — the
// "each client has its own origin" situation map merging resolves
// (Figs. 7 and 10a).
func NewDisplacedDevice(id uint32, seq *Sequence, yaw float64, offset Vec3) *Device {
	return client.NewDisplaced(id, seq, yaw, offset)
}

// Adaptive offloading re-exports: per-session negotiation of how much
// of the SLAM pipeline runs on the edge server (full video upload,
// split keypoint upload, or shadow map-only sync), driven by measured
// RTT, server load and the session's QoS class. Advertise a Device's
// class and capabilities with EnableAdaptive, or pin a mode with
// ForceMode, before Device.Run.
type (
	// OffloadMode is a session's offload mode; higher is more degraded.
	OffloadMode = offload.Mode
	// QoS is a session's service class; lower values outrank higher
	// ones in the tracking pool and tolerate more load before being
	// downgraded.
	QoS = offload.QoS
	// OffloadCaps advertises the offload modes a client can run
	// locally.
	OffloadCaps = offload.Caps
)

// Offload modes, QoS classes and capability bits.
const (
	OffloadFull   = offload.ModeFull
	OffloadSplit  = offload.ModeSplit
	OffloadShadow = offload.ModeShadow

	QoSHeadset  = offload.QoSHeadset
	QoSHandheld = offload.QoSHandheld
	QoSDrone    = offload.QoSDrone

	CapSplit  = offload.CapSplit
	CapShadow = offload.CapShadow
)

// ParseQoS maps a class name (headset, handheld, drone) to its QoS
// value.
func ParseQoS(s string) (QoS, error) {
	switch s {
	case "headset":
		return QoSHeadset, nil
	case "handheld":
		return QoSHandheld, nil
	case "drone":
		return QoSDrone, nil
	}
	return 0, fmt.Errorf("unknown QoS class %q (want headset, handheld or drone)", s)
}

// ParseOffloadMode maps a mode name (full, split, shadow) to its
// OffloadMode value.
func ParseOffloadMode(s string) (OffloadMode, error) {
	switch s {
	case "full":
		return OffloadFull, nil
	case "split":
		return OffloadSplit, nil
	case "shadow":
		return OffloadShadow, nil
	}
	return 0, fmt.Errorf("unknown offload mode %q (want full, split or shadow)", s)
}

// Baseline re-exports: the multi-user Edge-SLAM comparison system.
type (
	// BaselineServer is the baseline merge server.
	BaselineServer = baseline.Server
	// BaselineClient runs full SLAM on-device and exchanges
	// serialized maps.
	BaselineClient = baseline.Client
	// BaselineConfig tunes the baseline.
	BaselineConfig = baseline.Config
	// BaselineUploadReport is the baseline merge-round timing.
	BaselineUploadReport = baseline.UploadReport
)

// NewBaselineServer creates the baseline comparison server.
func NewBaselineServer(cfg BaselineConfig, rig Rig) *BaselineServer {
	return baseline.NewServer(cfg, rig.Intr)
}

// NewBaselineClient creates a baseline client for a sequence.
func NewBaselineClient(id int, seq *Sequence, cfg BaselineConfig) *BaselineClient {
	return baseline.NewClient(id, seq, cfg)
}

// DefaultBaselineConfig returns the paper's baseline parameters
// (150-frame hold-down, ~6-keyframe portions).
func DefaultBaselineConfig() BaselineConfig { return baseline.DefaultConfig() }

// ShapeConn applies tc-style shaping (delay, bandwidth cap) to a
// connection, as the paper's testbed does with netem.
func ShapeConn(c net.Conn, cfg NetemConfig) net.Conn { return netem.Wrap(c, cfg) }

// ATE returns the cumulative absolute trajectory error (RMSE) of an
// estimate against ground truth.
func ATE(est, truth Trajectory) float64 { return metrics.ATE(est, truth) }

// ShortTermATE returns the RMSE over the trailing window seconds at
// time t — the paper's short-term ATE.
func ShortTermATE(est, truth Trajectory, t, window float64) float64 {
	return metrics.ShortTermATE(est, truth, t, window)
}

// GroundTruth extracts the ground-truth trajectory of a sequence at
// the given frame stride.
func GroundTruth(seq *Sequence, nFrames, stride int) Trajectory {
	return seq.TruthTrajectory(nFrames, stride)
}

// Version identifies this implementation.
const Version = "1.0.0"

// String renders a short banner.
func String() string {
	return fmt.Sprintf("slam-share %s (Go reproduction of CoNEXT '22)", Version)
}

// AR content layer: anchors (holograms) pinned to the shared frame.
type (
	// AnchorRegistry manages the session's holograms.
	AnchorRegistry = holo.Registry
	// Anchor is a hologram anchored in the shared map frame.
	Anchor = holo.Anchor
)

// NewAnchorRegistry returns an empty hologram registry for a session.
func NewAnchorRegistry() *AnchorRegistry { return holo.NewRegistry() }
