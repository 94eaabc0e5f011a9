// Package server implements the SLAM-Share edge server (Fig. 3): an
// orchestrator that owns the global map, per-client SLAM processes
// (tracking + local mapping) that share it by pointer — goroutines on
// one *smap.Map are the zero-copy, zero-serialization contract the
// paper gets from a shared-memory region — a GPU shared across clients
// GSlice-style, and the merge process M that folds each client's map
// into the global map.
package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/gpu"
	"slamshare/internal/holo"
	"slamshare/internal/imu"
	"slamshare/internal/lifecycle"
	"slamshare/internal/mapping"
	"slamshare/internal/merge"
	"slamshare/internal/obs"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/persist"
	"slamshare/internal/protocol"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
	"slamshare/internal/trackpool"
	"slamshare/internal/video"
)

// Config parameterizes the server.
type Config struct {
	// GPU and LanesPerClient are not consulted; assigned by the frozen
	// benchmark (bench/trace.go); delete with the next `benchmark` PR,
	// and this file's internal/gpu import with them. The serving path
	// has one tracking backend, the pool below, and reports wall time.
	GPU            *gpu.Device
	LanesPerClient int
	// TrackWorkers sizes the shared batched tracking service
	// (internal/trackpool): every session's extraction and
	// search-local-points batches drain through one server-wide worker
	// pool scheduled by QoS tier, then arrival. 0 (the default) enables
	// the pool with GOMAXPROCS workers, > 0 sets the worker count, and
	// < 0 disables batching — each session runs its kernels serially,
	// the reference the pooled pipeline is compared against.
	TrackWorkers int
	// TrackReservedSlots holds back admission slots in the tracking
	// pool for QoS-0 (headset) frames, so a headset frame arriving at
	// a saturated pool is admitted immediately instead of waiting out
	// a lower-class frame already in service. 0 reserves nothing; see
	// trackpool.Config.ReservedSlots.
	TrackReservedSlots int
	// MergeAfterKFs triggers the first merge attempt once a client's
	// local map holds this many keyframes.
	MergeAfterKFs int
	// TrackCfg and MergeCfg tune the pipeline.
	TrackCfg tracking.Config
	MergeCfg merge.Config
	// Persist enables durable checkpoints + write-ahead journaling of
	// the global map when Persist.Dir is non-empty. On startup the
	// server recovers the map from that directory (latest checkpoint +
	// journal replay); returning clients then resume by relocalization.
	Persist persist.Options
	// Overload bounds the server's load (admission ceilings, frame
	// shedding, connection timeouts, merge retry/quarantine policy).
	// Zero fields are filled from DefaultOverloadConfig; negative
	// timeouts disable that timeout.
	Overload OverloadConfig
	// MergeHook, when non-nil, is called with the merger before every
	// merge attempt. It exists for fault injection — the chaos harness
	// installs a Sabotage failpoint through it — and for tests that
	// need to observe attempt numbers.
	MergeHook func(clientID uint32, attempt int, mg *merge.Merger)
	// Lifecycle bounds the resident size of the shared map on a server
	// that runs forever: keyframe culling by the mapper's rule, dead-point
	// sparsification, and cold-region eviction to disk with transparent
	// reload (see internal/lifecycle). Lifecycle.MaxKeyFrames == 0
	// disables all of it. Evicted regions live in Persist.Dir, next to
	// the checkpoints and journals.
	Lifecycle lifecycle.Config
	// Offload tunes the per-session adaptive offload policy: mode
	// negotiation between full (video upload), split (keypoint upload),
	// and shadow (map-only sync) driven by measured RTT, server load,
	// and the session's QoS class (see internal/offload). Zero fields
	// take offload.DefaultConfig. It only applies to sessions whose
	// hello names split or shadow among its capabilities; any other
	// session is pinned to full offload.
	Offload offload.Config
	// Shard identifies this server inside a cluster (internal/cluster):
	// cluster peers and the front door authenticate with Shard.Token on
	// the same listener device sessions use, and boundary regions are
	// exported to / imported from peer shards through the handoff
	// handlers in shard.go. A zero value runs the server standalone;
	// the shard message types are still answered (token 0) so a
	// single-shard front door needs no configuration.
	Shard ShardConfig
}

// ShardConfig is the server's identity and tuning inside a cluster.
type ShardConfig struct {
	// ID is this shard's index in the cluster partition.
	ID uint32
	// Token is the shared cluster secret; every ShardHello must carry
	// it.
	Token uint64
	// ImportStall is a crash-window failpoint for the chaos tier: hold
	// the boundary import open this long after the merge transaction
	// commits but before the ShardImportEnd marker is journaled (the
	// journal is flushed first, so the half-merge is durably open).
	// A SIGKILL inside the stall leaves exactly the on-disk state a
	// mid-import crash would: recovery must roll the import back.
	// Never set in production.
	ImportStall time.Duration
}

// OverloadConfig is the server's overload-protection policy.
type OverloadConfig struct {
	// MaxSessions caps concurrently open sessions; OpenSession returns
	// overload.ErrOverloaded beyond it. Negative means unlimited.
	MaxSessions int
	// MaxMergesInFlight caps concurrent merge attempts across all
	// sessions. A saturated gate skips the attempt without a backoff
	// penalty — the session simply retries on a later frame.
	MaxMergesInFlight int
	// ShedBudget is the wall-clock uplink backlog a session may
	// accumulate before the server sheds stale frames (process-latest
	// semantics): shed frames are answered immediately with a PoseMsg
	// flagged Shed, and the client covers the gap with IMU
	// dead-reckoning (Alg. 1). Zero disables shedding.
	ShedBudget time.Duration
	// IdleTimeout evicts a connection that sends no message header for
	// this long. ReadTimeout evicts one that stalls mid-message (the
	// frozen-peer case). Negative disables each.
	IdleTimeout time.Duration
	ReadTimeout time.Duration
}

const (
	// writeTimeout bounds pose writes to a client that stopped reading.
	writeTimeout = 30 * time.Second
	// retry* parameterize the merge retry backoff, in keyframes of
	// local-map growth: attempt n waits ~base*factor^n (capped at max,
	// jittered ±jitter) more keyframes before the next attempt.
	retryBase   = 3
	retryFactor = 2
	retryMax    = 24
	retryJitter = 0.25
	// retrySeed fixes the deterministic backoff jitter.
	retrySeed = 0x51A87A5E
	// maxMergeRollbacks quarantines a session once this many of its
	// merge attempts were rolled back by pre-commit validation: a map
	// that keeps failing validation is poisonous, not unlucky.
	maxMergeRollbacks = 3
)

// DefaultOverloadConfig returns conservative production defaults;
// shedding stays off until a budget is configured.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		MaxSessions:       64,
		MaxMergesInFlight: 2,
		IdleTimeout:       2 * time.Minute,
		ReadTimeout:       30 * time.Second,
	}
}

// DefaultConfig returns the experiment configuration.
func DefaultConfig() Config {
	return Config{
		MergeAfterKFs: 8,
		TrackCfg:      tracking.DefaultConfig(),
		MergeCfg:      merge.DefaultConfig(),
	}
}

// Server is the SLAM-Share edge server.
type Server struct {
	cfg    Config
	voc    *bow.Vocabulary
	global *smap.Map
	// gmu is the shareable mutex serializing compound global-map
	// operations: merges (multi-step transform + insert + fuse + BA)
	// and checkpoint snapshots. Per-entity reads and writes do NOT take
	// it — the map's internal striped locks make those safe — so N
	// sessions track concurrently while a merge is the only operation
	// that drains the writers.
	gmu     *sync.RWMutex
	anchors *holo.Registry
	pmgr    *persist.Manager
	rec     *persist.Recovery
	// lm, when non-nil, is the map-lifecycle manager. Its mutating
	// passes (Step, MaybeReload) run under gmu like merges do.
	lm *lifecycle.Manager
	// tpool, when non-nil, is the shared batched tracking service every
	// session's data-parallel stages drain through (Config.TrackWorkers).
	tpool *trackpool.Pool

	obs      *obs.Tracer
	stDecode *obs.Stage
	stFrame  *obs.Stage

	mu       sync.Mutex
	sessions map[uint32]*Session
	merges   []merge.Report

	gate    *overload.Gate
	backoff overload.Backoff

	net NetStats

	// Cluster-mode state (shard.go). pendingExports holds boundary
	// regions offered in a HandoffBegin and not yet committed or
	// superseded; importBlocked tracks per-peer rollback counts for
	// import quarantine. The atomic counters feed the ShardOpStats
	// probe, which must stay off gmu (a stalled import holds it).
	shardMu         sync.Mutex
	pendingExports  map[exportKey]*exportRecord
	importBlocked   map[uint32]int
	importsInFlight atomic.Int64
	importsDone     atomic.Int64
	importsRolled   atomic.Int64
	importsStalled  atomic.Int64

	// resumeEpoch is the newest handoff epoch seen per client, served
	// by the ShardOpResume probe. It survives session close — that is
	// the point: a replacement front adopting a session probes it to
	// continue the epoch sequence. Its own mutex, never gmu.
	resumeMu    sync.Mutex
	resumeEpoch map[uint32]uint64
}

// NetStats counts per-connection protocol events on the Serve path.
// serveConn historically swallowed every failure; these counters make
// dropped frames and rejected sessions observable (the chaos harness
// asserts them after fault scenarios).
type NetStats struct {
	// BadHello counts malformed hello payloads and hellos the server
	// refused (e.g. a client ID already in session).
	BadHello obs.Counter
	// DupHello counts second hellos on an already-established
	// connection, which are rejected to avoid leaking the first session.
	DupHello obs.Counter
	// FramesRejected counts frame payloads that failed to decode.
	FramesRejected obs.Counter
	// UnknownMsgs counts messages of a type the server does not serve;
	// each ends its connection, as an undecodable frame does.
	UnknownMsgs obs.Counter
	// FramesFailed counts decoded frames the pipeline failed to process.
	FramesFailed obs.Counter
	// SessionsOpened / SessionsClosed count session lifecycle on the
	// Serve path; SessionsDropped is the subset of closes caused by a
	// connection dying without a Bye.
	SessionsOpened  obs.Counter
	SessionsClosed  obs.Counter
	SessionsDropped obs.Counter
	// SessionsRejected counts opens refused by the admission gate
	// (overload.ErrOverloaded).
	SessionsRejected obs.Counter
	// FramesShed counts uplink frames answered with a Shed pose instead
	// of being tracked (deadline-aware process-latest shedding).
	FramesShed obs.Counter
	// TrackLost counts frames the tracker processed but could not
	// localize.
	TrackLost obs.Counter
	// MergeRollbacks counts merge attempts undone by pre-commit
	// invariant validation; MergeQuarantines counts sessions barred
	// from further merging after maxMergeRollbacks of them.
	MergeRollbacks   obs.Counter
	MergeQuarantines obs.Counter
	// IdleEvicted counts connections evicted by the read watchdog
	// (idle or frozen mid-message).
	IdleEvicted obs.Counter
	// ModeSwitches counts offload mode changes pushed to clients.
	// FramesSplit counts split-mode keypoint frames tracked, and
	// SyncPings counts shadow-mode map-sync pings absorbed.
	ModeSwitches obs.Counter
	FramesSplit  obs.Counter
	SyncPings    obs.Counter
}

// NetStats returns the Serve-path counters.
func (s *Server) NetStats() *NetStats { return &s.net }

// NSessions returns the number of currently open sessions.
func (s *Server) NSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// noteHandoffEpoch records the newest handoff epoch seen for a client,
// from either side of a handoff (export begin or boundary import).
func (s *Server) noteHandoffEpoch(clientID uint32, epoch uint64) {
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	if epoch > s.resumeEpoch[clientID] {
		s.resumeEpoch[clientID] = epoch
	}
}

// resumeEpochFor answers the ShardOpResume probe.
func (s *Server) resumeEpochFor(clientID uint32) uint64 {
	s.resumeMu.Lock()
	defer s.resumeMu.Unlock()
	return s.resumeEpoch[clientID]
}

// New creates the server around an empty (or, with persistence, the
// recovered) global map that every session will share.
func New(cfg Config) (*Server, error) {
	if cfg.MergeAfterKFs == 0 {
		cfg.MergeAfterKFs = 8
	}
	fillOverloadDefaults(&cfg.Overload)
	voc := bow.Default()
	// The observability layer every pipeline stage reports into — the
	// instrumentation is always on (its hot-path cost is a few atomics
	// per stage, see internal/obs).
	tracer := obs.NewTracer(obs.NewRegistry(), obs.DefaultRingSize)
	// Persistence spans (WAL drains, checkpoint rotations) report into
	// the same tracer as the frame pipeline.
	cfg.Persist.Obs = tracer

	// With persistence enabled the global map is recovered from disk
	// (empty directory → empty map) instead of starting fresh, and a
	// manager journals every mutation from here on.
	global := smap.NewMap(voc)
	anchors := holo.NewRegistry()
	gmu := new(sync.RWMutex)
	var rec *persist.Recovery
	var pmgr *persist.Manager
	if cfg.Persist.Dir != "" {
		var err error
		rec, err = persist.Recover(cfg.Persist.Dir, voc)
		if err != nil {
			return nil, fmt.Errorf("server: recover: %w", err)
		}
		global = rec.Map
		anchors = rec.Anchors
		pmgr, err = persist.Open(cfg.Persist, global, anchors, rec.LastSeq, gmu)
		if err != nil {
			return nil, fmt.Errorf("server: persist: %w", err)
		}
		st, reg := pmgr.Stats(), tracer.Registry()
		st.ReplayedRecords.Add(int64(rec.ReplayedRecords))
		reg.Histogram("persist.replay").Observe(rec.ReplayTime)
		reg.RegisterCounter("persist.checkpoints", &st.Checkpoints)
		reg.RegisterCounter("persist.checkpoint_bytes", &st.CheckpointBytes)
		reg.RegisterCounter("persist.journal_records", &st.JournalRecords)
		reg.RegisterCounter("persist.journal_bytes", &st.JournalBytes)
		reg.RegisterCounter("persist.replayed_records", &st.ReplayedRecords)
	}
	s := &Server{
		cfg:            cfg,
		voc:            voc,
		global:         global,
		gmu:            gmu,
		anchors:        anchors,
		pmgr:           pmgr,
		rec:            rec,
		obs:            tracer,
		stDecode:       tracer.Stage("decode"),
		stFrame:        tracer.Stage("frame.total"),
		sessions:       make(map[uint32]*Session),
		pendingExports: make(map[exportKey]*exportRecord),
		importBlocked:  make(map[uint32]int),
		resumeEpoch:    make(map[uint32]uint64),
		gate:           overload.NewGate(cfg.Overload.MaxMergesInFlight),
		backoff: overload.Backoff{
			Base:   retryBase,
			Factor: retryFactor,
			Max:    retryMax,
			Jitter: retryJitter,
			Seed:   retrySeed,
		},
	}
	if cfg.TrackWorkers >= 0 {
		s.tpool = trackpool.New(trackpool.Config{
			Workers:       cfg.TrackWorkers,
			ReservedSlots: cfg.TrackReservedSlots,
		})
	}
	if lcfg := cfg.Lifecycle; lcfg.MaxKeyFrames > 0 || lcfg.EvictAfter > 0 {
		var jn lifecycle.Journal
		if pmgr != nil {
			jn = pmgr.Journal()
		}
		s.lm = lifecycle.New(lcfg, global, jn, cfg.Persist.Dir)
		if rec != nil {
			// Re-arm the reload index with the regions still evicted at
			// crash time, and sweep region files the WAL does not vouch
			// for (a crash between file write and WAL record left those
			// entities live in the replayed map).
			s.lm.RestoreEvicted(rec.EvictedRegions)
		}
	}
	reg := tracer.Registry()
	reg.RegisterFunc("map.keyframes", func() any { return s.global.NKeyFrames() })
	reg.RegisterFunc("map.points", func() any { return s.global.NMapPoints() })
	reg.RegisterFunc("map.resident_bytes", func() any { return lifecycle.EstimateResidentBytes(s.global) })
	if s.lm != nil {
		st := s.lm.Stats()
		reg.RegisterCounter("lifecycle.culled_keyframes", &st.CulledKeyFrames)
		reg.RegisterCounter("lifecycle.sparsified_points", &st.SparsifiedPoints)
		reg.RegisterCounter("lifecycle.evictions", &st.EvictedRegions)
		reg.RegisterCounter("lifecycle.evicted_keyframes_total", &st.EvictedKeyFrames)
		reg.RegisterCounter("lifecycle.reloads", &st.ReloadedRegions)
		reg.RegisterCounter("lifecycle.dropped_regions", &st.DroppedRegions)
		reg.RegisterFunc("lifecycle.evicted_regions", func() any { return s.lm.EvictedRegionCount() })
		reg.RegisterFunc("lifecycle.evicted_keyframes", func() any { return s.lm.EvictedKeyFrameCount() })
	}
	reg.RegisterFunc("sessions.open", func() any { return s.NSessions() })
	reg.RegisterCounter("net.bad_hello", &s.net.BadHello)
	reg.RegisterCounter("net.dup_hello", &s.net.DupHello)
	reg.RegisterCounter("net.frames_rejected", &s.net.FramesRejected)
	reg.RegisterCounter("net.unknown_msgs", &s.net.UnknownMsgs)
	reg.RegisterCounter("net.frames_failed", &s.net.FramesFailed)
	reg.RegisterCounter("net.sessions_opened", &s.net.SessionsOpened)
	reg.RegisterCounter("net.sessions_closed", &s.net.SessionsClosed)
	reg.RegisterCounter("net.sessions_dropped", &s.net.SessionsDropped)
	reg.RegisterCounter("net.sessions_rejected", &s.net.SessionsRejected)
	reg.RegisterCounter("net.frames_shed", &s.net.FramesShed)
	reg.RegisterCounter("net.track_lost", &s.net.TrackLost)
	reg.RegisterCounter("net.idle_evicted", &s.net.IdleEvicted)
	reg.RegisterCounter("merge.rollback", &s.net.MergeRollbacks)
	reg.RegisterCounter("merge.quarantine", &s.net.MergeQuarantines)
	reg.RegisterCounter("offload.mode_switches", &s.net.ModeSwitches)
	reg.RegisterCounter("offload.split_frames", &s.net.FramesSplit)
	reg.RegisterCounter("offload.sync_pings", &s.net.SyncPings)
	reg.RegisterFunc("overload.merges_inflight", func() any { return s.gate.Merges() })
	if s.tpool != nil {
		reg.RegisterFunc("trackpool.workers", func() any { return s.tpool.Workers() })
		reg.RegisterFunc("trackpool.streams", func() any { return s.tpool.Stats().Streams })
		reg.RegisterFunc("trackpool.queue_depth", func() any { return s.tpool.Stats().QueueDepth })
		reg.RegisterFunc("trackpool.batches", func() any { return s.tpool.Stats().Batches })
		reg.RegisterFunc("trackpool.items", func() any { return s.tpool.Stats().Items })
		reg.RegisterFunc("trackpool.queue_wait_ns", func() any { return int64(s.tpool.Stats().QueueWait) })
	}
	return s, nil
}

// fillOverloadDefaults replaces zero fields with the defaults so a
// zero-valued Config keeps working; negative timeouts mean "disabled"
// and are preserved.
func fillOverloadDefaults(ov *OverloadConfig) {
	def := DefaultOverloadConfig()
	if ov.MaxSessions == 0 {
		ov.MaxSessions = def.MaxSessions
	}
	if ov.MaxMergesInFlight == 0 {
		ov.MaxMergesInFlight = def.MaxMergesInFlight
	}
	if ov.IdleTimeout == 0 {
		ov.IdleTimeout = def.IdleTimeout
	}
	if ov.ReadTimeout == 0 {
		ov.ReadTimeout = def.ReadTimeout
	}
}

// timeout maps the "negative disables" convention onto the protocol
// layer's "zero disables".
func timeout(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}

// Obs returns the server's tracer (the one every pipeline stage
// reports into).
func (s *Server) Obs() *obs.Tracer { return s.obs }

// DebugHandler returns the live debug endpoint: registry JSON at
// /debug/vars, recent spans at /debug/spans, and net/http/pprof under
// /debug/pprof/. Mount it on a side listener, never the client port.
func (s *Server) DebugHandler() http.Handler { return obs.Handler(s.obs) }

// Close stops the tracking pool and, when persistence is enabled,
// flushes and closes the journal (without a final checkpoint, so
// restart always exercises recovery).
func (s *Server) Close() {
	if s.pmgr != nil {
		s.pmgr.Close()
	}
	if s.tpool != nil {
		// Drain and stop the batched tracking service. Sessions racing
		// the shutdown fall back to inline execution for their remaining
		// batches.
		s.tpool.Close()
	}
}

// TrackPool returns the shared batched tracking service, or nil when
// disabled (Config.TrackWorkers < 0).
func (s *Server) TrackPool() *trackpool.Pool { return s.tpool }

// Anchors returns the session's hologram anchor registry. It is
// included in checkpoints when persistence is enabled.
func (s *Server) Anchors() *holo.Registry { return s.anchors }

// Persist returns the persistence manager, or nil when disabled.
func (s *Server) Persist() *persist.Manager { return s.pmgr }

// Recovery returns the startup recovery summary, or nil when the
// server started without persistence.
func (s *Server) Recovery() *persist.Recovery { return s.rec }

// Global returns the shared global map.
func (s *Server) Global() *smap.Map { return s.global }

// Lifecycle returns the map-lifecycle manager, or nil when disabled.
func (s *Server) Lifecycle() *lifecycle.Manager { return s.lm }

// MergeReports returns the merge timing breakdowns recorded so far
// (the SLAM-Share column of Table 4).
func (s *Server) MergeReports() []merge.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]merge.Report, len(s.merges))
	copy(out, s.merges)
	return out
}

// Session is one client's server-side process (Process A/B in Fig. 3):
// it shares the global map, decodes the client's video, tracks
// with the GPU slice, maps locally, and hands its map to the merge
// process.
type Session struct {
	ID  uint32
	srv *Server
	rig camera.Rig

	tracker  *tracking.Tracker
	mapper   *mapping.Mapper
	localMap *smap.Map
	merged   bool

	decL, decR *video.Decoder
	mm         *imu.MotionModel // nil until the first tracked frame anchors it
	// mergeAttempts numbers this session's merge attempts (the backoff
	// schedule is keyed on it); mergeBarrier is the extra local-map
	// growth (keyframes) failed attempts demand before the next one.
	// rollbacks counts attempts undone by pre-commit validation;
	// quarantined bars the session from merging once that hits
	// maxMergeRollbacks. All four belong to the session's
	// single processing goroutine.
	mergeAttempts int
	mergeBarrier  int
	rollbacks     int
	quarantined   bool
	// lag is the uplink backlog accounting behind frame shedding. Owned
	// by the serveConn loop.
	lag *overload.LagTracker
	// stream is the session's handle on the shared tracking pool (nil
	// when Config.TrackWorkers < 0 disabled batching).
	stream *trackpool.Stream
	// ctrl is the adaptive-offload state; a nil ctrl is a session pinned
	// to full offload. offer is an adaptive hello, held until the first
	// uplink shows the mode the device is in: a device keeps its mode
	// across a redial or a front's move to a new shard session. rttNanos
	// is the latest client-reported round-trip estimate. All three are
	// owned by the session's uplink loop.
	ctrl     *offload.Controller
	offer    *protocol.HelloMsg
	rttNanos uint64
	// frames numbers the tracked frames: the trace ID of their spans.
	frames int
}

// OpenSession registers a client process. Each session gets a stream
// on the shared tracking pool (or runs its kernels serially when the
// pool is disabled). A rig no camera has is refused (camera.Rig.Validate).
func (s *Server) OpenSession(clientID uint32, rig camera.Rig) (*Session, error) {
	if err := rig.Validate(); err != nil {
		return nil, fmt.Errorf("server: client %d: %w", clientID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Admission control: beyond the session ceiling the server refuses
	// outright (typed overload.ErrOverloaded) instead of degrading
	// every existing session's tracking rate.
	if max := s.cfg.Overload.MaxSessions; max > 0 && len(s.sessions) >= max {
		s.net.SessionsRejected.Inc()
		return nil, overload.ErrOverloaded
	}
	if _, ok := s.sessions[clientID]; ok {
		return nil, fmt.Errorf("server: client %d already connected", clientID)
	}
	// A returning client — whether after a server recovery or a mid-run
	// disconnect — already has keyframes in the global map: seed its
	// allocator past the highest sequence it used before so fresh IDs
	// never collide, and resume directly on the global map below.
	resumeSeq := s.global.MaxSeq(int(clientID))
	alloc := smap.NewIDAllocatorFrom(int(clientID), resumeSeq)
	localMap := smap.NewMap(s.voc)
	ex := feature.NewExtractor(feature.DefaultConfig())
	var stream *trackpool.Stream
	if s.tpool != nil {
		// Batched tracking: the session's data-parallel stages submit to
		// the server-wide pool through a per-session stream (which also
		// carries the frame arrival tags and queue-wait ledger).
		stream = s.tpool.NewStream()
		ex.Par = stream
	}
	tr := tracking.New(localMap, rig, ex, alloc, int(clientID), s.cfg.TrackCfg)
	tr.Obs = s.obs
	mapper := mapping.New(localMap, rig, alloc, int(clientID), mapping.DefaultConfig())
	mapper.Obs = s.obs
	if s.lm != nil {
		// Lost trackers offer their frame's BoW signature to the
		// lifecycle manager before relocalizing: if the client is
		// standing in an evicted region, it is reloaded (under gmu,
		// like a merge) so candidate search sees it.
		tr.Reload = func(bv bow.Vec) {
			s.gmu.Lock()
			s.lm.MaybeReload(bv)
			s.gmu.Unlock()
		}
		// Maintenance rides the local-BA cadence: the mapper already
		// pauses for BA every BAEvery keyframes, and the lifecycle pass
		// is version-gated so idle calls cost two atomic loads.
		mapper.AfterBA = func() {
			s.gmu.Lock()
			s.lm.Step(s.global.CurrentTick())
			s.gmu.Unlock()
		}
	}
	sess := &Session{
		ID:       clientID,
		srv:      s,
		rig:      rig,
		tracker:  tr,
		mapper:   mapper,
		localMap: localMap,
		decL:     video.NewDecoder(),
		decR:     video.NewDecoder(),
		lag:      overload.NewLagTracker(s.cfg.Overload.ShedBudget),
		stream:   stream,
	}
	if resumeSeq > 0 {
		// Resume the session directly on the recovered global map: the
		// tracker starts Lost and relocalizes by BoW against the map it
		// helped build, skipping the local-map + merge bootstrap.
		sess.merged = true
		sess.tracker.Map = s.global
		sess.mapper.Map = s.global
		sess.tracker.ResumeLost()
	}
	s.sessions[clientID] = sess
	return sess, nil
}

// CloseSession removes a client process.
func (s *Server) CloseSession(clientID uint32) {
	s.mu.Lock()
	sess, ok := s.sessions[clientID]
	delete(s.sessions, clientID)
	s.mu.Unlock()
	if ok && sess.stream != nil {
		sess.stream.Close()
	}
}

// Result reports one processed frame.
type Result struct {
	Pose    geom.SE3 // world-to-camera
	Tracked bool
	Merged  bool // true if this frame triggered a successful map merge
	// Shed marks an uplink answered without tracking: a shadow-mode
	// sync ping, or a frame shed under backlog. Pose is the identity
	// and the client keeps dead-reckoning on its IMU (Alg. 1).
	Shed    bool
	Timing  tracking.Stages
	Inliers int
}

// Handle is the session's one uplink entry point, whichever offload
// mode built msg: everything between the decode and the answer. It
// notes the uplink's lag, takes the client's reported RTT, arms a held
// adaptive hello in the mode this uplink was built in, and then absorbs
// a sync ping, sheds the frame (backlog counts the uplinks queued
// behind this one) or tracks it.
func (sess *Session) Handle(msg protocol.Uplink, backlog int) (Result, error) {
	h := msg.Header()
	mode := offload.ModeFull
	if km, ok := msg.(*protocol.KeypointMsg); ok {
		mode = offload.ModeSplit
		if km.Flags&protocol.KeypointSyncOnly != 0 {
			mode = offload.ModeShadow
		}
	}
	sess.lag.Note(h.Stamp)
	if o := sess.offer; o != nil {
		// The QoS class and the advertised capabilities parameterize the
		// mode controller. Without a held hello the session stays a
		// full-offload one: no mode switches.
		sess.ctrl = offload.NewController(sess.srv.cfg.Offload, o.QoS, o.Caps, mode)
		sess.offer = nil
	}
	if h.RTTNanos != 0 {
		sess.rttNanos = h.RTTNanos
	}
	switch {
	case mode == offload.ModeShadow:
		// Only the motion model integrates the IMU delta, so a later
		// upgrade re-enters tracking with a prior spanning the shadow
		// period. No tracking work runs and the lifecycle clock does not
		// advance.
		sess.advance(h.Delta, false, geom.SE3{})
		sess.srv.net.SyncPings.Inc()
	case backlog > 0 && sess.lag.ShouldShed(backlog) && sess.tracker.State() == tracking.OK:
		// Deadline-aware shedding (process-latest): the uplinks queued
		// behind this one represent more wall-clock lag than the budget,
		// so spend the tracking time on a fresher one. Only while
		// tracking is OK: during initialization and relocalization every
		// frame is keyframe-critical. The stream side effects still
		// happen: the video decoders see every frame (inter frames
		// predict from the previous decoded one) at the cost of a decode,
		// and the motion model integrates the delta so the next tracked
		// frame's prior spans the gap.
		if fm, ok := msg.(*protocol.FrameMsg); ok {
			video.DecodeStereo(sess.decL, sess.decR, fm.Video, fm.VideoRight)
		}
		sess.advance(h.Delta, false, geom.SE3{})
		sess.srv.net.FramesShed.Inc()
	case mode == offload.ModeSplit:
		return sess.HandleKeypoints(msg.(*protocol.KeypointMsg))
	default:
		return sess.HandleFrame(msg.(*protocol.FrameMsg))
	}
	return Result{Pose: geom.IdentitySE3(), Shed: true}, nil
}

// HandleFrame tracks one full-offload frame end to end: video decode,
// IMU-prior tracking, local mapping, and (once the local map is large
// enough) the merge into the global map. It is Handle's video half.
func (sess *Session) HandleFrame(msg *protocol.FrameMsg) (Result, error) {
	var res Result
	// ord is this session's frame ordinal: the trace ID linking the
	// decode/track/frame spans of one frame across stage histograms.
	// The tracker numbers frames with the same counter, so its spans
	// join the trace without any plumbing.
	ord := uint64(sess.frames)
	fsp := sess.srv.stFrame.Start(sess.ID, ord)
	defer fsp.End()

	// Advance the map-lifecycle activity clock: eviction ages ("cold
	// for N frames") are measured in frames handled across all
	// sessions, so a quiet server never evicts by wall clock alone.
	sess.srv.global.Tick()

	dsp := sess.srv.stDecode.Start(sess.ID, ord)
	left, rightImg, err := video.DecodeStereo(sess.decL, sess.decR, msg.Video, msg.VideoRight)
	dsp.End()
	if err != nil {
		sess.srv.net.FramesFailed.Inc()
		return res, fmt.Errorf("server: video: %w", err)
	}

	prior := sess.advance(msg.Delta, msg.HasPrior, msg.Prior)
	tr := sess.tracker.ProcessFrame(left, rightImg, msg.Stamp, prior)
	return sess.completeFrame(tr), nil
}

// advance is the session's IMU-assisted prior (§4.2.2): it advances the
// server-side motion model by the client's preintegrated delta and
// returns the predicted world-to-camera pose. Until the first tracked
// frame starts the model, the uplink's own prior (if the client sent
// one) anchors the map in the client's frame. Uplinks that are absorbed
// rather than tracked (shed, shadow-mode sync) call it for the side
// effect, so the next tracked frame's prior spans the gap.
func (sess *Session) advance(delta imu.FrameDelta, hasPrior bool, prior geom.SE3) *geom.SE3 {
	if sess.mm != nil {
		p := sess.mm.ApproxPoseUpdateMM(delta).Inverse()
		return &p
	}
	if hasPrior {
		p := prior.Inverse()
		return &p
	}
	return nil
}

// completeFrame folds one tracking result into the session:
// motion-model correction, keyframe insertion, and the merge trigger.
// Shared by the full-offload (HandleFrame) and split-offload
// (HandleKeypoints) paths, which differ only in how the frame's
// keypoints came to exist.
func (sess *Session) completeFrame(tr tracking.Result) Result {
	sess.frames++

	res := Result{
		Pose:    tr.Pose,
		Tracked: tr.State == tracking.OK,
		Timing:  tr.Timing,
		Inliers: tr.Inliers,
	}
	if tr.State == tracking.Lost {
		sess.srv.net.TrackLost.Inc()
	}

	if res.Tracked {
		twc := tr.Pose.Inverse()
		if sess.mm == nil {
			sess.mm = imu.NewMotionModel(twc, geom.Vec3{})
		} else {
			// The fix also fits the model's velocity: the anchor
			// velocity was unknown and IMU deltas only carry increments.
			sess.mm.RecvSLAMPose(twc, sess.mm.Len()-1)
		}
	}

	if tr.NewKF != nil {
		sess.mapper.ProcessKeyFrame(tr.NewKF)
	}

	// Merge process M: once the local map has substance, fold it into
	// the shared global map and rebind this process to it. A
	// quarantined session (repeated merge rollbacks) keeps tracking on
	// its local map but never merges again.
	if !sess.merged && !sess.quarantined &&
		sess.localMap.NKeyFrames() >= sess.srv.cfg.MergeAfterKFs+sess.mergeBarrier {
		if sess.tryMerge() {
			res.Merged = true
		}
	}
	return res
}

// HandleKeypoints tracks one split-offload frame, Handle's keypoint
// half: the client already ran feature extraction and stereo matching
// (through the same feature.Extractor code path the server uses, so the
// keypoints are bit-identical to what the server would have produced
// from the same pixels), and the pipeline enters at pose prediction —
// no video decode span, no track.extract, no track.match.
func (sess *Session) HandleKeypoints(msg *protocol.KeypointMsg) (Result, error) {
	ord := uint64(sess.frames)
	fsp := sess.srv.stFrame.Start(sess.ID, ord)
	defer fsp.End()
	sess.srv.global.Tick()

	prior := sess.advance(msg.Delta, msg.HasPrior, msg.Prior)
	tr := sess.tracker.ProcessExtracted(msg.Kps, msg.Stamp, prior)
	sess.srv.net.FramesSplit.Inc()
	return sess.completeFrame(tr), nil
}

// OffloadMode returns the session's current offload mode (always full
// for a session without a controller).
func (sess *Session) OffloadMode() offload.Mode {
	if sess.ctrl == nil {
		return offload.ModeFull
	}
	return sess.ctrl.Mode()
}

// tryMerge runs the merge under the named global-map mutex. On
// success the session's tracker and mapper operate directly on the
// global map afterwards; on failure (no overlap yet, or a validation
// rollback) the session keeps its local map and retries after the
// backoff's worth of further growth.
func (sess *Session) tryMerge() bool {
	s := sess.srv
	// In-flight merge ceiling: a saturated gate skips the attempt with
	// no backoff penalty — the session was not at fault, so it retries
	// on the next qualifying frame.
	if !s.gate.TryAcquireMerge() {
		return false
	}
	defer s.gate.ReleaseMerge()
	attempt := sess.mergeAttempts
	sess.mergeAttempts++
	s.gmu.Lock()
	merger := merge.New(s.global, sess.rig.Intr, s.cfg.MergeCfg)
	merger.Obs = s.obs
	merger.ObsClient = sess.ID
	merger.ObsSeq = uint64(sess.frames - 1) // frame ordinal that triggered the merge
	if s.lm != nil {
		// gmu is already held here, so the reload commits before the
		// merge transaction starts — an aborted merge rolls back its
		// own inserts, never a freshly reloaded region.
		merger.Reload = func(bv bow.Vec) { s.lm.MaybeReload(bv) }
	}
	if s.cfg.MergeHook != nil {
		s.cfg.MergeHook(sess.ID, attempt, merger)
	}
	rep, err := merger.Merge(sess.localMap)
	if err == nil && rep.Alignment != nil {
		// Transform this session's live tracking state into global
		// coordinates along with its map: the tracker's last frame and
		// velocity, and the whole motion model: every kept pose and
		// velocity, so the next velocity fit never spans the
		// coordinate-frame jump.
		tf := rep.Alignment.Transform
		sess.tracker.ApplyTransform(tf)
		if sess.mm != nil {
			sess.mm.Transform(tf)
		}
	}
	s.gmu.Unlock()
	if err != nil {
		var rbe *merge.RollbackError
		if errors.As(err, &rbe) {
			// The merge mutated the global map, failed validation, and
			// was rolled back. Count it toward quarantine: a client map
			// that keeps producing invalid merges is poisonous.
			s.net.MergeRollbacks.Inc()
			sess.rollbacks++
			if sess.rollbacks >= maxMergeRollbacks {
				sess.quarantined = true
				s.net.MergeQuarantines.Inc()
			}
		}
		// Retry after the local map has grown by the backoff schedule's
		// worth of keyframes (jittered exponential, deterministic per
		// client and attempt).
		sess.mergeBarrier += s.backoff.DelaySteps(uint64(sess.ID), attempt)
		return false
	}
	s.mu.Lock()
	s.merges = append(s.merges, rep)
	s.mu.Unlock()
	sess.merged = true
	sess.tracker.Map = s.global
	sess.mapper.Map = s.global
	return true
}

// Serve accepts client connections on l and runs a session per
// connection until the listener closes. Each connection speaks the
// protocol package's framing.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

// inbound is one decoded-framing message handed from the connection's
// reader goroutine to its processing loop.
type inbound struct {
	mt      byte
	payload []byte
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	ov := s.cfg.Overload
	var sess *Session
	clean := false
	defer func() {
		if sess != nil {
			s.CloseSession(sess.ID)
			s.net.SessionsClosed.Inc()
			if !clean {
				s.net.SessionsDropped.Inc()
			}
		}
	}()

	// A reader goroutine decouples the socket from the pipeline: the
	// processing loop observes its own backlog (len(in)) for frame
	// shedding, and the per-message deadlines evict idle connections
	// and frozen peers (a peer that sends a partial message and stalls
	// used to wedge this goroutine forever).
	in := make(chan inbound, protocol.UplinkWindow)
	rdErr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(in)
		for {
			mt, payload, err := protocol.ReadMessageDeadlines(conn,
				timeout(ov.IdleTimeout), timeout(ov.ReadTimeout))
			if err != nil {
				rdErr <- err
				return
			}
			select {
			case in <- inbound{mt, payload}:
			case <-done:
				return
			}
		}
	}()

	// Pose (and mode-switch) writes are bounded too: a client that
	// stopped reading must not pin this goroutine (and its session
	// slot) on a full socket buffer.
	writeMsg := func(mt byte, payload []byte) bool {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		defer conn.SetWriteDeadline(time.Time{})
		return protocol.WriteMessage(conn, mt, payload) == nil
	}
	// maybeSwitchMode runs one offload-policy step after a frame is
	// answered and pushes a mode switch downlink when the controller
	// moves. Inputs: client-reported RTT, trackpool pressure, and this
	// connection's own uplink backlog. Returns false on a dead socket.
	maybeSwitchMode := func(backlog int) bool {
		if sess.ctrl == nil {
			return true
		}
		din := offload.Inputs{RTT: time.Duration(sess.rttNanos), Backlog: backlog}
		if s.tpool != nil {
			st := s.tpool.Stats()
			din.QueueDepth = st.QueueDepth + st.AdmitWaiting
			din.Workers = st.Workers
		}
		mode, switched := sess.ctrl.Decide(time.Now(), din)
		if !switched {
			return true
		}
		s.net.ModeSwitches.Inc()
		reason := byte(1) // server load
		if din.Load() == 0 {
			reason = 2 // RTT
		}
		return writeMsg(protocol.TypeModeSwitch, (&protocol.ModeSwitchMsg{
			Mode:      byte(mode),
			Epoch:     sess.ctrl.Epoch(),
			Reason:    reason,
			SentNanos: uint64(time.Now().UnixNano()),
		}).Encode())
	}
	// answer sends the one pose every uplink gets (its echo is the
	// uplink's send stamp: the client's round-trip sample) and then runs
	// the policy step.
	answer := func(pm protocol.PoseMsg) bool {
		return writeMsg(protocol.TypePose, pm.Encode()) && maybeSwitchMode(len(in))
	}

	// peer is set once the connection identifies itself as a cluster
	// peer (front door, another shard, or an admin probe) via a
	// ShardHello. A connection is either a device session or a cluster
	// peer, never both.
	var peer *shardPeer

	for m := range in {
		switch m.mt {
		case protocol.TypeShardHello:
			if sess != nil || peer != nil {
				s.net.DupHello.Inc()
				return
			}
			hm, err := protocol.DecodeShardHelloMsg(m.payload)
			if err != nil || hm.Token != s.cfg.Shard.Token {
				s.net.BadHello.Inc()
				return
			}
			peer = &shardPeer{role: hm.Role, sender: hm.SenderID}
		case protocol.TypeHandoff:
			if peer == nil || peer.role == protocol.ShardRoleAdmin {
				return
			}
			if !s.handleHandoff(peer, m.payload, writeMsg) {
				return
			}
		case protocol.TypeBoundaryRegion:
			if peer == nil || peer.role == protocol.ShardRoleAdmin {
				return
			}
			if !s.handleBoundaryRegion(peer, m.payload, writeMsg) {
				return
			}
		case protocol.TypeShardControl:
			if peer == nil {
				return
			}
			if !s.handleShardControl(m.payload, writeMsg) {
				return
			}
		case protocol.TypeHello:
			// One session per connection: a second hello would reassign
			// sess and leak the first session past the deferred close.
			if sess != nil || peer != nil {
				s.net.DupHello.Inc()
				return
			}
			hello, err := protocol.DecodeHelloMsg(m.payload)
			if err != nil {
				s.net.BadHello.Inc()
				return
			}
			sess, err = s.OpenSession(hello.ClientID, hello.Rig())
			if err != nil {
				s.net.BadHello.Inc()
				return
			}
			// The QoS class orders the session's frames in the shared
			// trackpool (the tier above arrival).
			if sess.stream != nil {
				sess.stream.SetQoS(int(hello.QoS))
			}
			if hello.Caps&(offload.CapSplit|offload.CapShadow) != 0 {
				sess.offer = hello
			}
			s.net.SessionsOpened.Inc()
		case protocol.TypeFrame, protocol.TypeKeypoint:
			if sess == nil {
				return
			}
			msg, err := protocol.DecodeUplink(m.mt, m.payload)
			if err != nil {
				s.net.FramesRejected.Inc()
				return
			}
			res, err := sess.Handle(msg, len(in))
			if err != nil {
				return
			}
			h := msg.Header()
			pm := protocol.PoseMsg{FrameIdx: h.FrameIdx, Pose: res.Pose, Tracked: res.Tracked, Shed: res.Shed, EchoNanos: h.SentNanos}
			if !answer(pm) {
				return
			}
		case protocol.TypeSessionToken: // client.Run sends it after every redial; a lone server adopts nothing
		case protocol.TypeBye:
			clean = true
			return
		default:
			s.net.UnknownMsgs.Inc()
			return
		}
	}
	// The reader stopped. A timeout means the watchdog evicted an idle
	// or frozen peer rather than the peer hanging up.
	select {
	case err := <-rdErr:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.net.IdleEvicted.Inc()
		}
	default:
	}
}

// LocalMap returns the session's pre-merge local map (after a merge it
// still holds the same keyframes, which then also live in the global
// map).
func (sess *Session) LocalMap() *smap.Map { return sess.localMap }

// Merged reports whether this session's map has been folded into the
// global map.
func (sess *Session) Merged() bool { return sess.merged }
