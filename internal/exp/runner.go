// Package exp implements the paper's evaluation (§5): one runner per
// table and figure, each regenerating the same rows or series the
// paper reports. The cmd/experiments binary invokes them by id, and
// bench_test.go wraps them as benchmarks.
//
// Experiments run in frame-lockstep virtual time: each step is one
// frame period, network delay and bandwidth translate into pose-
// application lag and frame drops in virtual time, and compute
// latencies are measured on the real pipeline. This keeps the dynamics
// (merge timing, RTT effects, missed updates) faithful while running
// on hosts much slower than the paper's 40-core testbed.
package exp

import (
	"fmt"
	"io"
	"math"

	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/server"
)

// Quick scales experiments down for fast runs (CI, benchmarks).
var Quick bool

// ScaleDiv is the quick-mode reduction factor (default 3). Benchmarks
// raise it further so a testing.B iteration stays in seconds.
var ScaleDiv = 3

// scale shrinks a frame count in quick mode.
func scale(n int) int {
	if Quick {
		d := ScaleDiv
		if d < 2 {
			d = 2
		}
		n /= d
		if n < 30 {
			n = 30
		}
	}
	return n
}

// Link models the client-server network in virtual time.
type Link struct {
	// DelaySec is the one-way propagation delay in (virtual) seconds.
	DelaySec float64
	// UplinkBps caps the uplink in bits per second (0 = unlimited).
	UplinkBps float64
}

// RTTFrames converts the round-trip delay into whole frame periods.
func (l Link) RTTFrames(framePeriod float64) int {
	if l.DelaySec <= 0 {
		return 0
	}
	return int(math.Ceil(2 * l.DelaySec / framePeriod))
}

// Participant is one client in a lockstep run.
type Participant struct {
	Name      string
	Dev       *client.Client
	Sess      *server.Session
	Seq       *dataset.Sequence
	JoinStep  int // virtual step at which the client starts
	LeaveStep int // step after which it stops (0 = never)
	Stride    int // dataset frames per step
	Link      Link

	// Results, populated by the run.
	Dropped int
	Steps   int
	Merged  bool
	MergeAt float64 // virtual time of the successful merge

	backlog  float64 // uplink queue, seconds of transmission pending
	frameIdx int
	pending  []pendingPose
}

type pendingPose struct {
	frameIdx int
	pose     geom.SE3
	tracked  bool
	dueStep  int
}

// Runner drives several participants against one server in lockstep.
type Runner struct {
	Srv         *server.Server
	Parts       []*Participant
	FramePeriod float64 // virtual seconds per step
	// OnStep, when non-nil, observes each completed virtual step.
	OnStep func(step int, virtualTime float64)
}

// Run executes the given number of virtual steps.
func (r *Runner) Run(steps int) {
	for s := 0; s < steps; s++ {
		vt := float64(s) * r.FramePeriod
		for _, p := range r.Parts {
			if s < p.JoinStep || (p.LeaveStep > 0 && s >= p.LeaveStep) {
				continue
			}
			r.stepParticipant(p, s)
		}
		if r.OnStep != nil {
			r.OnStep(s, vt)
		}
	}
	// Flush remaining pose answers.
	for _, p := range r.Parts {
		for _, pp := range p.pending {
			p.Dev.ApplyPose(pp.frameIdx, pp.pose, pp.tracked)
		}
		p.pending = nil
	}
}

func (r *Runner) stepParticipant(p *Participant, step int) {
	stride := p.Stride
	if stride < 1 {
		stride = 1
	}
	i := p.frameIdx
	p.frameIdx += stride
	if i >= p.Seq.FrameCount() {
		return
	}
	p.Steps++
	msg := p.Dev.BuildFrame(i)

	// Uplink model: transmission time accumulates into a backlog; if
	// the backlog exceeds two frame periods the frame is dropped
	// before transmission (the camera cannot buffer indefinitely).
	if p.Link.UplinkBps > 0 {
		bits := float64(len(msg.Video)+len(msg.VideoRight)) * 8
		tx := bits / p.Link.UplinkBps
		p.backlog += tx
		if p.backlog > 2*r.FramePeriod*float64(stride) {
			p.backlog -= tx // dropped before transmission
			p.Dropped++
			r.deliverDue(p, step)
			return
		}
	}
	res, err := p.Sess.HandleFrame(msg)
	if err != nil {
		p.Dropped++
		r.deliverDue(p, step)
		return
	}
	if res.Merged && !p.Merged {
		p.Merged = true
		p.MergeAt = float64(step) * r.FramePeriod
	}
	// Queue the pose answer with the link's round-trip lag plus any
	// uplink queueing delay.
	lag := p.Link.RTTFrames(r.FramePeriod * float64(stride))
	if p.Link.UplinkBps > 0 {
		lag += int(p.backlog / (r.FramePeriod * float64(stride)))
	}
	p.pending = append(p.pending, pendingPose{
		frameIdx: i, pose: res.Pose, tracked: res.Tracked, dueStep: step + lag,
	})
	// Drain the backlog by one frame period of service.
	if p.backlog > 0 {
		p.backlog -= r.FramePeriod * float64(stride)
		if p.backlog < 0 {
			p.backlog = 0
		}
	}
	r.deliverDue(p, step)
}

func (r *Runner) deliverDue(p *Participant, step int) {
	for len(p.pending) > 0 && p.pending[0].dueStep <= step {
		pp := p.pending[0]
		p.pending = p.pending[1:]
		p.Dev.ApplyPose(pp.frameIdx, pp.pose, pp.tracked)
	}
}

// globalMapATE measures the ATE of the global map's keyframes against
// each owning client's ground truth, plus unmerged session fragments
// evaluated in their (misaligned) local frames — the "cumulative ATE
// of the global map" series of Fig. 10.
func globalMapATE(srv *server.Server, parts []*Participant) float64 {
	var sum float64
	n := 0
	add := func(center geom.Vec3, want geom.Vec3) {
		d := center.Sub(want).NormSq()
		sum += d
		n++
	}
	seqOf := make(map[int]*dataset.Sequence)
	for _, p := range parts {
		seqOf[int(p.Sess.ID)] = p.Seq
	}
	for _, kf := range srv.Global().KeyFrames() {
		seq, ok := seqOf[kf.Client]
		if !ok {
			continue
		}
		add(kf.Center(), seq.Traj.PoseAt(kf.Stamp).T)
	}
	// Unmerged fragments: their keyframes live in displaced local
	// frames, so they count against the global map exactly as the
	// paper describes ("two different fragments with different
	// origins").
	for _, p := range parts {
		if p.Merged || p.Steps == 0 {
			continue
		}
		for _, kf := range p.Sess.LocalMap().KeyFrames() {
			add(kf.Center(), p.Seq.Traj.PoseAt(kf.Stamp).T)
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// tablef prints an aligned row.
func tablef(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}
