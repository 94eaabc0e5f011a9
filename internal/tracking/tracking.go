// Package tracking implements per-frame SLAM tracking, the pipeline
// the paper offloads to the edge server and accelerates with a GPU:
// ORB extraction, stereo matching, motion-model pose prediction with
// pose-only optimization, and search-local-points — matching the
// frame's features against the local map. Each stage is individually
// timed so the latency breakdowns of Figs. 5 and 8 can be regenerated.
package tracking

import (
	"time"

	"slamshare/internal/bow"
	"slamshare/internal/camera"
	"slamshare/internal/feature"
	"slamshare/internal/geom"
	"slamshare/internal/img"
	"slamshare/internal/obs"
	"slamshare/internal/optimize"
	"slamshare/internal/smap"
)

// State describes the tracker's condition.
type State int

const (
	// NotInitialized means no map exists yet.
	NotInitialized State = iota
	// OK means the tracker is localized in the map.
	OK
	// Lost means the last frame could not be localized.
	Lost
)

func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Lost:
		return "lost"
	default:
		return "uninitialized"
	}
}

// Stages is the per-frame latency breakdown reported by the tracker —
// the rows of Fig. 5 and Fig. 8.
type Stages struct {
	Extract     time.Duration // ORB-Extraction
	Match       time.Duration // ORB-Matching (stereo + initial data association)
	PosePredict time.Duration // motion-model prediction + pose optimization
	SearchLocal time.Duration // search-local-points + final optimization
	Total       time.Duration
}

// Add accumulates another breakdown (for averaging).
func (s *Stages) Add(o Stages) {
	s.Extract += o.Extract
	s.Match += o.Match
	s.PosePredict += o.PosePredict
	s.SearchLocal += o.SearchLocal
	s.Total += o.Total
}

// Scale divides every stage by n (for averaging).
func (s Stages) Scale(n int) Stages {
	if n <= 0 {
		return s
	}
	d := time.Duration(n)
	return Stages{
		Extract:     s.Extract / d,
		Match:       s.Match / d,
		PosePredict: s.PosePredict / d,
		SearchLocal: s.SearchLocal / d,
		Total:       s.Total / d,
	}
}

// Frame is the tracker's record of a processed camera frame.
type Frame struct {
	Idx   int
	Stamp float64
	Tcw   geom.SE3
	Kps   []feature.Keypoint
	MPs   []smap.ID // map point bound to each keypoint (0 = none)
}

// Result reports the outcome of tracking one frame.
type Result struct {
	State   State
	Pose    geom.SE3 // world-to-camera
	Inliers int
	NewKF   *smap.KeyFrame // non-nil when the frame became a keyframe
	Timing  Stages
}

// Config tunes the tracker.
type Config struct {
	// MinInliers below which tracking is declared lost.
	MinInliers int
	// KFMinInterval is the fewest frames between two keyframes.
	KFMinInterval int
	// KFTrackedRatio: insert a keyframe when tracked points fall below
	// this fraction of the reference keyframe's point count.
	KFTrackedRatio float64
}

// DefaultConfig returns the tracking parameters used by the
// experiments (mirroring ORB-SLAM3's defaults where applicable).
func DefaultConfig() Config {
	return Config{
		MinInliers:     15,
		KFMinInterval:  5,
		KFTrackedRatio: 0.7,
	}
}

const (
	// matchRadius and localRadius are the projection search windows in
	// pixels for motion-model matching and for local-map points.
	matchRadius = 12.0
	localRadius = 6.0
	// kfMaxInterval forces a keyframe after this many frames without one.
	kfMaxInterval = 30
	// maxLocalKFs bounds the covisibility window of the local map.
	maxLocalKFs = 10
)

// Tracker localizes a stream of frames in a map. One Tracker serves
// one client; the map may be shared with other trackers (the global
// map in shared memory). Extractor.Par is its one data-parallel
// backend: it runs the extraction strips and the search-local-points
// loop (the paper's two GPU kernels); nil means sequential.
type Tracker struct {
	Map       *smap.Map
	Rig       camera.Rig
	Extractor *feature.Extractor
	Alloc     *smap.IDAllocator
	Client    int
	Cfg       Config
	// Obs, when non-nil, receives per-stage latency spans (extract,
	// match, pose-predict, search-local, total) keyed by (client,
	// frame ordinal). Set it before the first ProcessFrame; stage
	// handles resolve lazily and a nil tracer costs one predictable
	// branch per frame.
	Obs *obs.Tracer
	// Reload, when non-nil, is offered the lost frame's BoW vector
	// before relocalization candidate search, so the lifecycle manager
	// can pull an evicted cold region back into memory when the client
	// is standing inside it.
	Reload func(bv bow.Vec)

	obsStages trackStages
	sc        trackScratch
	state     State
	last      Frame
	velocity  geom.SE3 // frame-to-frame motion estimate Tcw_k * Tcw_{k-1}^-1
	refKF     smap.ID
	lastKFIdx int
	frameIdx  int
	init      pending
	lastNewKF *smap.KeyFrame
}

// New returns a tracker for one client over the given (possibly
// shared) map.
func New(m *smap.Map, rig camera.Rig, ex *feature.Extractor, alloc *smap.IDAllocator, client int, cfg Config) *Tracker {
	if cfg.MinInliers == 0 {
		cfg = DefaultConfig()
	}
	return &Tracker{
		Map: m, Rig: rig, Extractor: ex, Alloc: alloc, Client: client, Cfg: cfg,
		state:    NotInitialized,
		velocity: geom.IdentitySE3(),
	}
}

// State returns the tracker state.
func (t *Tracker) State() State { return t.state }

// ProcessFrame tracks one frame. right may be nil for monocular rigs.
// posePrior, when non-nil, seeds the pose prediction (the IMU pose
// from the client, or ground truth during map bootstrap); it is a
// world-to-camera transform.
// trackStages caches the tracker's pre-resolved span handles. All
// fields stay nil when no tracer is attached, making every Observe a
// no-op.
type trackStages struct {
	extract, match, posePredict, searchLocal, queue, total *obs.Stage
}

func (t *Tracker) wireObs() {
	if t.Obs == nil || t.obsStages.total != nil {
		return
	}
	t.obsStages = trackStages{
		extract:     t.Obs.Stage("track.extract"),
		match:       t.Obs.Stage("track.match"),
		posePredict: t.Obs.Stage("track.pose_predict"),
		searchLocal: t.Obs.Stage("track.search_local"),
		queue:       t.Obs.Stage("track.queue"),
		total:       t.Obs.Stage("track.total"),
	}
}

// trackScratch is the tracker's per-frame working set, reused across
// frames so steady-state tracking does not allocate for it: the
// keypoint grid and struct-of-arrays staging (built once per frame and
// shared by trackLastFrame and searchLocalPoints), the binding and
// conflict-resolution maps with the candidate buffer of
// searchLocalPoints, and the pose-optimization input slices.
type trackScratch struct {
	grid      grid
	soa       feature.SoA
	gridFrame int
	gridBuilt bool
	bound     map[smap.ID]bool
	cands     []searchCand
	bestFor   map[int]int
	pts       []geom.Vec3
	uvs       []geom.Vec2
	kpIdx     []int
}

// searchCand is one search-local-points candidate: the keypoint index
// a local map point matched (-1 for none) and the descriptor distance.
type searchCand struct {
	kp   int
	dist int
}

// frameGrid returns the keypoint grid and SoA staging for fr, building
// them at most once per frame.
func (t *Tracker) frameGrid(fr *Frame) (*grid, *feature.SoA) {
	sc := &t.sc
	if !sc.gridBuilt || sc.gridFrame != fr.Idx {
		sc.soa.Gather(fr.Kps)
		sc.grid.reset(&sc.soa, t.Rig.Intr.Width, t.Rig.Intr.Height)
		sc.gridFrame = fr.Idx
		sc.gridBuilt = true
	}
	return &sc.grid, &sc.soa
}

// par returns the tracker's data-parallel backend, nil when the
// tracker has no extractor or runs sequentially.
func (t *Tracker) par() feature.Parallelizer {
	if t.Extractor == nil {
		return nil
	}
	return t.Extractor.Par
}

// beginFrame tags a pool-backed parallelizer with the frame's arrival
// so the shared tracking pool can serve the oldest frame first.
func (t *Tracker) beginFrame(arrival time.Time) {
	if fs, ok := t.par().(feature.FrameScheduler); ok {
		fs.BeginFrame(arrival)
	}
}

// endFrame closes the admission window opened by beginFrame, releasing
// the pool slot so the next queued frame starts. Deferred from
// ProcessFrame so every exit path releases it.
func (t *Tracker) endFrame() {
	if fs, ok := t.par().(feature.FrameScheduler); ok {
		fs.EndFrame()
	}
}

// queueWait reads the parallelizer's queue-wait ledger and reports
// whether it has one — false means no pool is attached and track.queue
// is not observed at all.
func (t *Tracker) queueWait() (time.Duration, bool) {
	if qw, ok := t.par().(feature.QueueWaiter); ok {
		return qw.QueueWait(), true
	}
	return 0, false
}

// observeQueue records the frame's cumulative batch queue wait as the
// track.queue stage — the scheduling cost the shared pool added to
// this frame, kept separate so the per-stage histograms still reflect
// execution time.
func (t *Tracker) observeQueue(t0 time.Time, q0 time.Duration, has bool, client uint32, seq uint64) {
	if !has {
		return
	}
	q1, _ := t.queueWait()
	t.obsStages.queue.Observe(t0, q1-q0, client, seq)
}

// frameClock carries the per-frame clocks and device-ledger samples
// shared by the full-offload (ProcessFrame) and split-offload
// (ProcessExtracted) entry points: t0 anchors arrival (span starts),
// e0 anchors admitted execution, and the ledger sample (zero unless a
// modeled device is attached) converts Total to device-accurate time
// at the end.
type frameClock struct {
	t0, e0   time.Time
	q0       time.Duration
	hasQueue bool
	w0, m0   time.Duration
	client   uint32
	seq      uint64
}

// openFrame starts the per-frame bookkeeping: wires observability,
// samples the queue-wait ledger, and blocks until the pool admits the
// frame. Callers must defer t.endFrame().
func (t *Tracker) openFrame(t0 time.Time) frameClock {
	t.wireObs()
	fc := frameClock{t0: t0, client: uint32(t.Client), seq: uint64(t.frameIdx)}
	// Open the frame's admission window on pool-backed parallelizers
	// (BeginFrame blocks until the pool admits the frame) and sample
	// the queue-wait ledger so the wait this frame accrues is reported
	// as track.queue.
	fc.q0, fc.hasQueue = t.queueWait()
	t.beginFrame(t0)
	// The execution clock starts when the pool admits the frame: time
	// spent blocked at the admission gate (and queued behind other
	// sessions' batches) is scheduling cost, reported as track.queue —
	// track.extract and track.total measure what this frame's compute
	// actually took.
	fc.e0 = time.Now()
	// Sample the device ledger once so Total can be converted to
	// device-accurate time at the end.
	fc.w0, fc.m0 = counters(t.par())
	return fc
}

func (t *Tracker) ProcessFrame(left, right *img.Gray, stamp float64, posePrior *geom.SE3) Result {
	t0 := time.Now()
	fc := t.openFrame(t0)
	defer t.endFrame()
	obsClient, obsSeq := fc.client, fc.seq
	res := Result{State: t.state}
	idx := t.frameIdx
	t.frameIdx++

	// Stage 1: ORB extraction.
	ew0, em0 := counters(t.Extractor.Par)
	kps := t.Extractor.Extract(left)
	res.Timing.Extract = deviceTime(time.Since(fc.e0), t.Extractor.Par, ew0, em0)
	t.obsStages.extract.Observe(t0, res.Timing.Extract, obsClient, obsSeq)

	// Stage 2: matching (stereo correspondence): a block search along
	// the keypoints' rows of the right image, which is never extracted.
	tm := time.Now()
	mw0, mm0 := counters(t.Extractor.Par)
	if right != nil && t.Rig.Mode == camera.Stereo {
		t.Extractor.StereoSearch(left, right, kps, t.Rig.Intr.Fx, t.Rig.Baseline)
	}
	res.Timing.Match = deviceTime(time.Since(tm), t.Extractor.Par, mw0, mm0)
	t.obsStages.match.Observe(tm, res.Timing.Match, obsClient, obsSeq)

	fr := Frame{Idx: idx, Stamp: stamp, Kps: kps, MPs: make([]smap.ID, len(kps))}
	return t.trackPrepared(&fr, posePrior, res, fc)
}

// ProcessExtracted tracks one frame from client-supplied keypoints
// (split offload): extraction and stereo matching already ran on the
// device — via the same feature.Extractor code path, so the keypoints
// are bit-identical to what the server would have produced from the
// same pixels — and the pipeline enters at pose prediction. The
// extract and match stages cost nothing and are never observed, which
// is the point: a split-mode frame's span trace has no track.extract.
func (t *Tracker) ProcessExtracted(kps []feature.Keypoint, stamp float64, posePrior *geom.SE3) Result {
	t0 := time.Now()
	fc := t.openFrame(t0)
	defer t.endFrame()
	res := Result{State: t.state}
	idx := t.frameIdx
	t.frameIdx++
	fr := Frame{Idx: idx, Stamp: stamp, Kps: kps, MPs: make([]smap.ID, len(kps))}
	return t.trackPrepared(&fr, posePrior, res, fc)
}

// trackPrepared runs stages 3+ (initialize / relocalize / predict /
// track / search-local / keyframe decision) on a frame whose
// keypoints are already in place, then closes the frame's clocks.
func (t *Tracker) trackPrepared(fr *Frame, posePrior *geom.SE3, res Result, fc frameClock) Result {
	t0, e0 := fc.t0, fc.e0
	q0, hasQueue := fc.q0, fc.hasQueue
	w0, m0 := fc.w0, fc.m0
	obsClient, obsSeq := fc.client, fc.seq

	switch t.state {
	case NotInitialized:
		ok := t.initialize(fr, posePrior)
		if ok {
			t.state = OK
			res.State = OK
			res.Pose = fr.Tcw
			res.NewKF = t.lastNewKF
			t.lastNewKF = nil
			res.Inliers = countBound(fr.MPs)
		}
	default:
		// Stage 3: pose prediction from the motion model / prior.
		tp := time.Now()
		if t.state == Lost {
			// BoW relocalization: recover against the map before
			// falling back to dead-reckoned prediction.
			if t.relocalize(fr, posePrior) {
				t.state = OK
			}
		}
		pred := t.predictPose(posePrior)
		if t.state == Lost || countBound(fr.MPs) == 0 {
			fr.Tcw = pred
		}
		inl1 := t.trackLastFrame(fr)
		res.Timing.PosePredict = time.Since(tp)
		t.obsStages.posePredict.Observe(tp, res.Timing.PosePredict, obsClient, obsSeq)

		// Stage 4: search local points + final optimization.
		ts := time.Now()
		sw0, sm0 := counters(t.par())
		inl2 := t.searchLocalPoints(fr)
		res.Timing.SearchLocal = deviceTime(time.Since(ts), t.par(), sw0, sm0)
		t.obsStages.searchLocal.Observe(ts, res.Timing.SearchLocal, obsClient, obsSeq)

		inliers := inl2
		if inliers == 0 {
			inliers = inl1
		}
		res.Inliers = inliers
		if inliers < t.Cfg.MinInliers {
			t.state = Lost
			res.State = Lost
			// Keep the prediction so the client sees its best guess.
			res.Pose = fr.Tcw
			// Preserve the motion model; recovery happens on the next
			// frames via the prior.
			t.last = *fr
			t.observeQueue(t0, q0, hasQueue, obsClient, obsSeq)
			res.Timing.Total = deviceTime(time.Since(e0), t.par(), w0, m0)
			t.obsStages.total.Observe(t0, res.Timing.Total, obsClient, obsSeq)
			return res
		}
		t.state = OK
		res.State = OK
		res.Pose = fr.Tcw
		// Update motion model.
		t.velocity = fr.Tcw.Compose(t.last.Tcw.Inverse())
		// Keyframe decision.
		if t.needKeyFrame(fr, inliers) {
			kf := t.makeKeyFrame(fr)
			res.NewKF = kf
		}
	}
	t.last = *fr
	t.observeQueue(t0, q0, hasQueue, obsClient, obsSeq)
	res.Timing.Total = deviceTime(time.Since(e0), t.par(), w0, m0)
	t.obsStages.total.Observe(t0, res.Timing.Total, obsClient, obsSeq)
	return res
}

// counters samples a parallelizer's time ledger when it has one.
func counters(p feature.Parallelizer) (wall, modeled time.Duration) {
	if mp, ok := p.(feature.ModeledParallelizer); ok {
		return mp.Counters()
	}
	return 0, 0
}

// deviceTime converts a stage's (or the whole frame's) host wall time
// into device-accurate time: kernel wall time is replaced by the
// device's modeled time. With a plain Parallelizer — every backend on
// the serving path — it returns the wall time unchanged.
func deviceTime(wallStage time.Duration, p feature.Parallelizer, w0, m0 time.Duration) time.Duration {
	mp, ok := p.(feature.ModeledParallelizer)
	if !ok {
		return wallStage
	}
	w1, m1 := mp.Counters()
	adj := wallStage - (w1 - w0) + (m1 - m0)
	if adj < 0 {
		return 0
	}
	return adj
}

func countBound(mps []smap.ID) int {
	n := 0
	for _, id := range mps {
		if id != 0 {
			n++
		}
	}
	return n
}

// predictPose returns the pose estimate before visual refinement.
func (t *Tracker) predictPose(prior *geom.SE3) geom.SE3 {
	if prior != nil {
		return *prior
	}
	return t.velocity.Compose(t.last.Tcw)
}

// trackLastFrame matches the new frame's keypoints against the map
// points bound in the previous frame by projecting them with the
// predicted pose, then optimizes the pose on those matches.
func (t *Tracker) trackLastFrame(fr *Frame) int {
	g, soa := t.frameGrid(fr)
	sc := &t.sc
	// Resolve last-frame points through the local snapshot when they
	// are in the window (the common case) so the loop stays lock-free.
	view := t.Map.LocalView(t.refKF, maxLocalKFs)
	pts := sc.pts[:0]
	uvs := sc.uvs[:0]
	kpIdx := sc.kpIdx[:0]
	for _, mpID := range t.last.MPs {
		if mpID == 0 {
			continue
		}
		vp, ok := view.Point(mpID)
		if !ok {
			pos, desc, live := t.Map.PointMatchState(mpID)
			if !live {
				continue
			}
			vp = smap.ViewPoint{ID: mpID, Pos: pos, Desc: desc}
		}
		px, visible := t.Rig.WorldToPixel(fr.Tcw, vp.Pos)
		if !visible {
			continue
		}
		j := g.bestMatch(soa, px, matchRadius, vp.Desc, feature.MatchThresholdLoose)
		if j < 0 || fr.MPs[j] != 0 {
			continue
		}
		fr.MPs[j] = mpID
		pts = append(pts, vp.Pos)
		uvs = append(uvs, fr.Kps[j].Pt())
		kpIdx = append(kpIdx, j)
	}
	sc.pts, sc.uvs, sc.kpIdx = pts, uvs, kpIdx
	if len(pts) < 6 {
		return len(pts)
	}
	opt := optimize.OptimizePose(t.Rig.Intr, fr.Tcw, pts, uvs, nil)
	fr.Tcw = opt.Pose
	// Unbind outliers.
	for k, ok := range opt.Inliers {
		if !ok {
			fr.MPs[kpIdx[k]] = 0
		}
	}
	return opt.NInliers
}

// searchLocalPoints projects the local map (covisibility window of the
// reference keyframe) into the frame and matches unbound keypoints,
// then runs the final pose optimization. The per-point loop runs
// through Extractor.Par — the paper's second GPU kernel. The local
// map comes from an immutable LocalView snapshot, so the whole match
// phase runs without touching a map lock; the snapshot is reused
// across frames until another client mutates a window keyframe.
func (t *Tracker) searchLocalPoints(fr *Frame) int {
	view := t.Map.LocalView(t.refKF, maxLocalKFs)
	local := view.Points
	if len(local) == 0 {
		return countBound(fr.MPs)
	}
	g, soa := t.frameGrid(fr)
	sc := &t.sc
	if sc.bound == nil {
		sc.bound = make(map[smap.ID]bool, 2*len(fr.MPs))
		sc.bestFor = make(map[int]int, len(fr.MPs))
	}
	clear(sc.bound)
	bound := sc.bound
	for _, id := range fr.MPs {
		if id != 0 {
			bound[id] = true
		}
	}
	// Parallel match phase: each work item computes a candidate
	// (kpIndex, distance) pair; conflict resolution is sequential. The
	// candidate buffer is tracker scratch — it used to be a fresh
	// len(local)-element allocation every frame.
	if cap(sc.cands) < len(local) {
		sc.cands = make([]searchCand, len(local))
	}
	cands := sc.cands[:len(local)]
	par := t.par()
	if par == nil {
		par = feature.SerialRunner{}
	}
	pose := fr.Tcw
	par.Run(len(local), func(i int) {
		cands[i] = searchCand{kp: -1}
		mp := &local[i]
		if bound[mp.ID] {
			return
		}
		px, visible := t.Rig.WorldToPixel(pose, mp.Pos)
		if !visible {
			return
		}
		j := g.bestMatch(soa, px, localRadius, mp.Desc, feature.MatchThresholdStrict)
		if j >= 0 {
			cands[i] = searchCand{kp: j, dist: feature.Distance(mp.Desc, soa.Desc[j])}
		}
	})
	// Sequential conflict resolution: best distance wins a keypoint.
	clear(sc.bestFor)
	bestFor := sc.bestFor // kp -> local index
	for i, c := range cands {
		if c.kp < 0 || fr.MPs[c.kp] != 0 {
			continue
		}
		if prev, ok := bestFor[c.kp]; !ok || c.dist < cands[prev].dist {
			bestFor[c.kp] = i
		}
	}
	for kp, i := range bestFor {
		fr.MPs[kp] = local[i].ID
	}
	// Final pose optimization over all bound points; positions resolve
	// through the snapshot, falling back to a live lookup for points
	// bound before this window (e.g. carried over from the last frame).
	pts := sc.pts[:0]
	uvs := sc.uvs[:0]
	kpIdx := sc.kpIdx[:0]
	for j, mpID := range fr.MPs {
		if mpID == 0 {
			continue
		}
		vp, ok := view.Point(mpID)
		if !ok {
			pos, _, live := t.Map.PointMatchState(mpID)
			if !live {
				fr.MPs[j] = 0
				continue
			}
			vp = smap.ViewPoint{ID: mpID, Pos: pos}
		}
		pts = append(pts, vp.Pos)
		uvs = append(uvs, fr.Kps[j].Pt())
		kpIdx = append(kpIdx, j)
	}
	sc.pts, sc.uvs, sc.kpIdx = pts, uvs, kpIdx
	if len(pts) < 6 {
		return len(pts)
	}
	opt := optimize.OptimizePose(t.Rig.Intr, fr.Tcw, pts, uvs, nil)
	fr.Tcw = opt.Pose
	for k, ok := range opt.Inliers {
		if !ok {
			fr.MPs[kpIdx[k]] = 0
		}
	}
	return opt.NInliers
}

// needKeyFrame implements the keyframe decision policy.
func (t *Tracker) needKeyFrame(fr *Frame, inliers int) bool {
	since := fr.Idx - t.lastKFIdx
	if since < t.Cfg.KFMinInterval {
		return false
	}
	if since >= kfMaxInterval {
		return true
	}
	ref, ok := t.Map.KeyFrame(t.refKF)
	if !ok {
		return true
	}
	return float64(inliers) < t.Cfg.KFTrackedRatio*float64(ref.TrackedPoints())
}

// ResumeLost starts the tracker in the Lost state against a non-empty
// (typically recovered) map, so the first frames relocalize by BoW
// place recognition instead of initializing a fresh map — how a
// returning client resumes its session after a server restart.
func (t *Tracker) ResumeLost() {
	if t.Map != nil && t.Map.NKeyFrames() > 0 {
		t.state = Lost
	}
}

// ApplyTransform moves the tracker's live state (last frame pose and
// motion model) through a similarity transform — called when the map
// this tracker operates in is merged into another map's coordinate
// frame, so tracking continues seamlessly in the new frame.
func (t *Tracker) ApplyTransform(s geom.Sim3) {
	twc := t.last.Tcw.Inverse()
	twc2 := geom.SE3{
		R: s.R.Mul(twc.R).Normalized(),
		T: s.Apply(twc.T),
	}
	t.last.Tcw = twc2.Inverse()
	// The frame-to-frame velocity v = Tcw_k ∘ Tcw_{k-1}^-1 is invariant
	// under a rigid world transform (Tcw' = Tcw ∘ S^-1 on both sides),
	// so it needs no update; only its translation scales with the map
	// for similarity transforms.
	if s.S != 1 {
		t.velocity.T = t.velocity.T.Scale(s.S)
	}
}
