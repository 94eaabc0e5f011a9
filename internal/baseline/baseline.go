// Package baseline implements the comparison system of §5.1: a
// multi-user extension of Edge-SLAM [14]. Each client runs the full
// SLAM front end locally (tracking + local mapping, CPU only), batches
// its local map for a hold-down period (150 frames / 5 s), serializes
// and ships it to a server that deserializes, merges into a global
// map, and returns a serialized portion (~6 keyframes) that the client
// deserializes and loads into its local map (Fig. 4b). Every one of
// those steps is timed — they are the baseline rows of Table 4 — and
// the serialized exchanges are what the bandwidth caps of Fig. 12
// throttle.
package baseline

import (
	"fmt"
	"sync"
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/mapping"
	"slamshare/internal/merge"
	"slamshare/internal/metrics"
	"slamshare/internal/smap"
	"slamshare/internal/tracking"
	"slamshare/internal/wire"
)

// Config tunes the baseline system.
type Config struct {
	// HoldDownFrames is the batching period between map uploads
	// (150 frames = 5 s at 30 FPS, §5.1).
	HoldDownFrames int
	// PortionKFs is how many global keyframes the server returns.
	PortionKFs int
	TrackCfg   tracking.Config
	MergeCfg   merge.Config
}

// mobileStride models the constrained client device: it can only
// process every mobileStride-th camera frame (the paper reports
// client-side SLAM dropping to ~15 FPS, i.e. stride 2).
const mobileStride = 2

// DefaultConfig returns the paper's baseline parameters.
func DefaultConfig() Config {
	return Config{
		HoldDownFrames: 150,
		PortionKFs:     6,
		TrackCfg:       tracking.DefaultConfig(),
		MergeCfg:       merge.DefaultConfig(),
	}
}

// UploadReport is the timing breakdown of one baseline merge round —
// the baseline column of Table 4. Transfer times are filled in by the
// caller, which knows the link discipline.
type UploadReport struct {
	HoldDown    time.Duration // virtual batching time
	Serialize   time.Duration
	Transfer1   time.Duration // client -> server (filled by caller)
	Deserialize time.Duration
	Merge       time.Duration
	DataProc    time.Duration // portion selection + serialization
	Transfer2   time.Duration // server -> client (filled by caller)
	Load        time.Duration // client-side portion integration
	UploadBytes int
	ReturnBytes int
	Merged      bool
}

// Total sums the components.
func (r UploadReport) Total() time.Duration {
	return r.HoldDown + r.Serialize + r.Transfer1 + r.Deserialize +
		r.Merge + r.DataProc + r.Transfer2 + r.Load
}

// Server is the baseline merge server: it owns the global map and
// serves serialized map exchanges.
type Server struct {
	cfg Config
	voc *bow.Vocabulary

	mu     sync.Mutex
	global *smap.Map
	intr   camera.Intrinsics
}

// NewServer creates the baseline server.
func NewServer(cfg Config, intr camera.Intrinsics) *Server {
	if cfg.HoldDownFrames == 0 {
		cfg = DefaultConfig()
	}
	voc := bow.Default()
	return &Server{cfg: cfg, voc: voc, global: smap.NewMap(voc), intr: intr}
}

// Global returns the server's global map.
func (s *Server) Global() *smap.Map { return s.global }

// HandleUpload ingests a serialized client map: deserialize, merge
// into the global map, select a portion around the matched region and
// serialize it back. The returned alignment maps the client's frame
// into the global frame (identity for the founding client).
func (s *Server) HandleUpload(data []byte) (portion []byte, align geom.Sim3, rep UploadReport, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.UploadBytes = len(data)
	align = geom.IdentitySim3()

	t0 := time.Now()
	cmap, err := wire.DecodeMap(data, s.voc)
	rep.Deserialize = time.Since(t0)
	if err != nil {
		return nil, align, rep, fmt.Errorf("baseline: %w", err)
	}

	t1 := time.Now()
	merger := merge.New(s.global, s.intr, s.cfg.MergeCfg)
	mrep, err := merger.Merge(cmap)
	rep.Merge = time.Since(t1)
	if err != nil {
		return nil, align, rep, err
	}
	rep.Merged = true
	var anchor smap.ID
	if mrep.Alignment != nil {
		align = mrep.Alignment.Transform
		anchor = mrep.Alignment.GlobalKF
	}

	// Portion selection: ~PortionKFs keyframes around the matched
	// region (or the most recent ones for the founding client), plus
	// the map points they observe.
	t2 := time.Now()
	portionMap := s.selectPortion(anchor)
	portion = wire.EncodeMap(portionMap)
	rep.DataProc = time.Since(t2)
	rep.ReturnBytes = len(portion)
	return portion, align, rep, nil
}

// selectPortion builds a map containing n keyframes around the anchor
// (covisibility neighbourhood) and their observed points. Caller holds
// s.mu.
func (s *Server) selectPortion(anchor smap.ID) *smap.Map {
	out := smap.NewMap(s.voc)
	var kfs []*smap.KeyFrame
	if anchor != 0 {
		if kf, ok := s.global.KeyFrame(anchor); ok {
			kfs = append(s.global.Covisible(anchor, s.cfg.PortionKFs-1), kf)
		}
	}
	if len(kfs) == 0 {
		all := s.global.KeyFrames()
		if len(all) > s.cfg.PortionKFs {
			all = all[len(all)-s.cfg.PortionKFs:]
		}
		kfs = all
	}
	for _, kf := range kfs {
		out.AddKeyFrame(kf)
		for _, mpID := range kf.MapPoints {
			if mpID == 0 {
				continue
			}
			if mp, ok := s.global.MapPoint(mpID); ok {
				out.AddMapPoint(mp)
			}
		}
	}
	return out
}

// Client is the baseline AR device: full local SLAM on a constrained
// processor, periodic serialized map exchange.
type Client struct {
	ID  int
	Seq *dataset.Sequence
	cfg Config

	localMap *smap.Map
	tracker  *tracking.Tracker
	mapper   *mapping.Mapper
	meter    *metrics.CPUMeter
	est      metrics.Trajectory

	framesSinceUpload int
	processed         int
}

// NewClient creates a baseline client for a sequence.
func NewClient(id int, seq *dataset.Sequence, cfg Config) *Client {
	if cfg.HoldDownFrames == 0 {
		cfg = DefaultConfig()
	}
	localMap := smap.NewMap(bow.Default())
	alloc := smap.NewIDAllocator(id)
	return &Client{
		ID:       id,
		Seq:      seq,
		cfg:      cfg,
		localMap: localMap,
		tracker:  tracking.New(localMap, seq.Rig, feature.NewExtractor(feature.DefaultConfig()), alloc, id, cfg.TrackCfg),
		mapper:   mapping.New(localMap, seq.Rig, alloc, id, mapping.DefaultConfig()),
		meter:    metrics.NewCPUMeter(),
	}
}

// Meter returns the client's compute meter (Fig. 13: the baseline
// client burns full SLAM on-device).
func (c *Client) Meter() *metrics.CPUMeter { return c.meter }

// Trajectory returns the client's pose estimates.
func (c *Client) Trajectory() metrics.Trajectory {
	out := make(metrics.Trajectory, len(c.est))
	copy(out, c.est)
	return out
}

// LocalMap exposes the client's map (for size instrumentation).
func (c *Client) LocalMap() *smap.Map { return c.localMap }

// StepResult reports one processed frame.
type StepResult struct {
	Tracked bool
	Pose    geom.SE3
	// Upload is non-nil when the hold-down period expired: the
	// serialized local map to ship to the server.
	Upload []byte
	// SerializeTime is the time spent serializing Upload.
	SerializeTime time.Duration
}

// CanProcess reports whether the constrained device has capacity for
// this frame (mobileStride model; see DESIGN.md).
func (c *Client) CanProcess(frameIdx int) bool {
	return frameIdx%mobileStride == 0
}

// Step runs full local SLAM on frame i. All compute is accounted
// against the client's meter.
func (c *Client) Step(i int) StepResult {
	var res StepResult
	c.meter.Time(func() {
		left, right := c.Seq.StereoFrame(i)
		var prior *geom.SE3
		if c.processed == 0 {
			p := c.Seq.GroundTruth(i).Inverse()
			prior = &p
		}
		tr := c.tracker.ProcessFrame(left, right, c.Seq.FrameTime(i), prior)
		res.Tracked = tr.State == tracking.OK
		res.Pose = tr.Pose
		if res.Tracked {
			c.est.Append(c.Seq.FrameTime(i), tr.Pose.Inverse().T)
		}
		if tr.NewKF != nil {
			c.mapper.ProcessKeyFrame(tr.NewKF)
		}
	})
	c.processed++
	c.framesSinceUpload++
	if c.framesSinceUpload >= c.cfg.HoldDownFrames/mobileStride {
		t0 := time.Now()
		var data []byte
		c.meter.Time(func() {
			data = wire.EncodeMap(c.localMap)
		})
		res.Upload = data
		res.SerializeTime = time.Since(t0)
		c.framesSinceUpload = 0
	}
	return res
}

// Integrate applies the server's alignment to the local map and loads
// the returned global-map portion into it (the client-side "Load Map"
// row of Table 4). Returns the load duration.
func (c *Client) Integrate(portion []byte, align geom.Sim3) (time.Duration, error) {
	t0 := time.Now()
	var err error
	c.meter.Time(func() {
		if align.S != 1 || align.R.AngleTo(geom.IdentityQuat()) > 1e-12 || align.T.Norm() > 1e-12 {
			c.localMap.ApplyTransform(align)
			c.tracker.ApplyTransform(align)
			// The past trajectory estimates move with the map.
			for k := range c.est {
				c.est[k].Pos = align.Apply(c.est[k].Pos)
			}
		}
		var pm *smap.Map
		pm, err = wire.DecodeMap(portion, c.localMap.Vocabulary())
		if err != nil {
			return
		}
		// Load only keyframes/points this client does not already own.
		for _, mp := range pm.MapPoints() {
			if _, ok := c.localMap.MapPoint(mp.ID); !ok {
				c.localMap.AddMapPoint(mp)
			}
		}
		for _, kf := range pm.KeyFrames() {
			if _, ok := c.localMap.KeyFrame(kf.ID); !ok {
				c.localMap.AddKeyFrame(kf)
				c.localMap.UpdateConnections(kf.ID, 15)
			}
		}
	})
	return time.Since(t0), err
}
