// Package exp implements the paper's evaluation (§5): one function per
// table and figure, each regenerating the same rows or series the
// paper reports. The cmd/experiments binary invokes them by id.
//
// Every experiment that puts devices in front of the SLAM-Share server
// drives them through one loop, Runner: it starts the server, opens a
// session per participant, builds each uplink in the device's offload
// mode, hands it to the session and applies the pose answer a link
// delay later. The loop runs in frame-lockstep virtual time: each step
// is one frame period, network delay and bandwidth translate into
// pose-application lag and frame drops in virtual time, and compute
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

// Quick scales experiments down for fast runs (CI, tests).
var Quick bool

// quickDiv is the quick-mode reduction factor.
const quickDiv = 3

// scale shrinks a frame count in quick mode.
func scale(n int) int {
	if Quick {
		n /= quickDiv
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
	Name string
	// Dev is the device. NewRunner creates client.New(n, Seq) for the
	// n-th participant (from 1) when it is nil.
	Dev       *client.Client
	Seq       *dataset.Sequence
	JoinStep  int // virtual step at which the client starts
	LeaveStep int // step after which it stops (0 = never)
	Stride    int // dataset frames per step
	Link      Link

	// Sess is the device's server session, opened by NewRunner.
	Sess *server.Session

	// Results, populated by the run.
	Last    server.Result // the session's latest answer
	Steps   int
	Tracked int // uplinks answered with a tracked pose
	Dropped int
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
	// OnStep, when non-nil, observes each completed virtual step; it
	// ends the run by returning true.
	OnStep func(step int, virtualTime float64) (stop bool)
}

// NewRunner starts a server with cfg and opens a session for each
// participant under its device's ID. Close releases the server.
func NewRunner(cfg server.Config, framePeriod float64, parts ...*Participant) (*Runner, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range parts {
		if p.Dev == nil {
			p.Dev = client.New(uint32(i+1), p.Seq)
		}
		if p.Sess, err = srv.OpenSession(p.Dev.ID, p.Seq.Rig); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return &Runner{Srv: srv, Parts: parts, FramePeriod: framePeriod}, nil
}

// Close shuts the server down.
func (r *Runner) Close() { r.Srv.Close() }

// Run executes up to the given number of virtual steps, fewer if
// OnStep ends the run, then applies the pose answers still in flight.
// It returns the first error the pipeline reports.
func (r *Runner) Run(steps int) error {
	for s := 0; s < steps; s++ {
		for _, p := range r.Parts {
			if s < p.JoinStep || (p.LeaveStep > 0 && s >= p.LeaveStep) {
				continue
			}
			if err := r.stepParticipant(p, s); err != nil {
				return fmt.Errorf("exp: %s step %d: %w", p.Name, s, err)
			}
		}
		if r.OnStep != nil && r.OnStep(s, float64(s)*r.FramePeriod) {
			break
		}
	}
	for _, p := range r.Parts {
		for _, pp := range p.pending {
			p.Dev.ApplyPose(pp.frameIdx, pp.pose, pp.tracked)
		}
		p.pending = nil
	}
	return nil
}

func (r *Runner) stepParticipant(p *Participant, step int) error {
	i := p.frameIdx
	p.frameIdx += max(p.Stride, 1)
	if i >= p.Seq.FrameCount() {
		return nil
	}
	p.Steps++
	err := r.transmit(p, i, step)
	// The uplink carries one frame period of its backlog per step.
	p.backlog = max(p.backlog-r.FramePeriod, 0)
	r.deliverDue(p, step)
	return err
}

// transmit sends frame i over the participant's link and queues the
// pose answer. While more than two frame periods of uplink are still
// queued the camera skips the frame before building it: it cannot
// buffer indefinitely, and a frame dropped after encoding would leave
// the server's video decoder without its reference. A frame that is
// sent joins the queue, and its answer arrives a round trip plus the
// whole periods of queue it waited behind and took.
func (r *Runner) transmit(p *Participant, i, step int) error {
	if p.Link.UplinkBps > 0 && p.backlog > 2*r.FramePeriod {
		p.Dropped++
		return nil
	}
	before := p.Dev.UplinkBytes()
	msg := p.Dev.BuildUplink(i)
	if p.Link.UplinkBps > 0 {
		p.backlog += float64(p.Dev.UplinkBytes()-before) * 8 / p.Link.UplinkBps
	}
	res, err := p.Sess.Handle(msg, 0)
	if err != nil {
		return err
	}
	p.Last = res
	if res.Tracked {
		p.Tracked++
	}
	if res.Merged && !p.Merged {
		p.Merged = true
		p.MergeAt = float64(step) * r.FramePeriod
	}
	lag := p.Link.RTTFrames(r.FramePeriod) + int(p.backlog/r.FramePeriod)
	p.pending = append(p.pending, pendingPose{
		frameIdx: i, pose: res.Pose, tracked: res.Tracked, dueStep: step + lag,
	})
	return nil
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
