package main

import (
	"math"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/protocol"
)

// stride is the dataset frame step between consecutive uplinks.
const stride = 2

// seedStep spaces the per-frame noise streams of different -seed
// values further apart than any sequence is long.
const seedStep = 10007

// sequences returns fresh stereo MH04 and MH05 sequences whose pixel
// and IMU noise are offset by the benchmark seed. The seed reaches the
// programs under test only through the frames generated from it.
func sequences(seed int64) (mh04, mh05 *dataset.Sequence) {
	mh04, mh05 = dataset.MH04(camera.Stereo), dataset.MH05(camera.Stereo)
	mh04.Seed += seed * seedStep
	mh05.Seed += seed * seedStep
	// Pay the lazy one-off costs now so that no set-up pays them.
	mh04.IMU()
	mh05.IMU()
	mh04.Renderer()
	mh05.Renderer()
	return mh04, mh05
}

func helloFor(id uint32, seq *dataset.Sequence) *protocol.HelloMsg {
	return &protocol.HelloMsg{
		ClientID: id,
		Mode:     seq.Rig.Mode,
		HasRig:   true,
		Intr:     seq.Rig.Intr,
		Baseline: seq.Rig.Baseline,
	}
}

func truthOf(seq *dataset.Sequence, idx int) geom.Vec3 { return seq.GroundTruth(idx).T }

// liveDevice is a real client.Client encoding (full offload) or
// extracting (split offload) each frame as it is sent.
type liveDevice struct {
	c     *client.Client
	split bool
}

func newLiveDevice(id uint32, seq *dataset.Sequence, split bool) *liveDevice {
	return &liveDevice{c: client.New(id, seq), split: split}
}

func (d *liveDevice) hello() *protocol.HelloMsg { return helloFor(d.c.ID, d.c.Seq) }
func (d *liveDevice) truth(idx int) geom.Vec3   { return truthOf(d.c.Seq, idx) }
func (d *liveDevice) steps() int                { return d.c.Seq.FrameCount() / stride }
func (d *liveDevice) apply(pm *protocol.PoseMsg) {
	d.c.ApplyPose(int(pm.FrameIdx), pm.Pose, pm.Tracked)
}

func (d *liveDevice) build(k int, r *recorder, parent int) uplink {
	i := k * stride
	if d.split {
		sp := r.begin("client.build", parent, k)
		msg := d.c.BuildKeypointFrame(i)
		r.end(sp)
		sp = r.begin("protocol.keypoint_codec", parent, k)
		payload := msg.Encode()
		r.end(sp)
		return uplink{idx: i, mt: protocol.TypeKeypoint, payload: payload}
	}
	busy := d.c.EncodeBusy()
	sp := r.begin("client.build", parent, k)
	msg := d.c.BuildFrame(i)
	r.end(sp)
	if r != nil {
		// The client meters its own encoder; show that share as a child
		// of the build span, ending where the build ends.
		end := r.at(sp).End
		r.add("video.encode", sp, k, end-int64(d.c.EncodeBusy()-busy), end)
	}
	sp = r.begin("protocol.frame_codec", parent, k)
	payload := msg.Encode()
	r.end(sp)
	return uplink{idx: i, mt: protocol.TypeFrame, payload: payload}
}

// ateCm is the device's absolute trajectory error against ground truth
// in centimetres: the RMS distance over the client's own estimates.
func (d *liveDevice) ateCm() float64 {
	var sum float64
	tr := d.c.Trajectory()
	for _, p := range tr {
		sum += p.Pos.Sub(d.c.Seq.Traj.PoseAt(p.T).T).NormSq()
	}
	if len(tr) == 0 {
		return 0
	}
	return 100 * math.Sqrt(sum/float64(len(tr)))
}

// recording is a full-offload uplink captured once, as decoded
// messages, so each replay session can stamp its own client ID.
type recording struct {
	seq  *dataset.Sequence
	msgs []*protocol.FrameMsg
}

// record runs a client over the first n steps of seq and keeps what it
// would have sent.
func record(seq *dataset.Sequence, n int) *recording {
	c := client.New(0, seq)
	rec := &recording{seq: seq, msgs: make([]*protocol.FrameMsg, n)}
	for k := range rec.msgs {
		rec.msgs[k] = c.BuildFrame(k * stride)
	}
	return rec
}

// replayDevice replays a recording under its own client ID. There is no
// client compute on this path: its answers are checked, not applied.
type replayDevice struct {
	id   uint32
	rec  *recording
	ups  []uplink
	sqEr float64
	n    int
}

func newReplayDevice(id uint32, rec *recording) *replayDevice {
	d := &replayDevice{id: id, rec: rec, ups: make([]uplink, len(rec.msgs))}
	for k, m := range rec.msgs {
		mm := *m
		mm.ClientID = id
		d.ups[k] = uplink{idx: int(m.FrameIdx), mt: protocol.TypeFrame, payload: mm.Encode()}
	}
	return d
}

func (d *replayDevice) hello() *protocol.HelloMsg { return helloFor(d.id, d.rec.seq) }
func (d *replayDevice) truth(idx int) geom.Vec3   { return truthOf(d.rec.seq, idx) }
func (d *replayDevice) steps() int                { return len(d.ups) }

func (d *replayDevice) build(k int, _ *recorder, _ int) uplink { return d.ups[k] }

func (d *replayDevice) apply(pm *protocol.PoseMsg) {
	if !pm.Tracked {
		return
	}
	d.sqEr += pm.Pose.Inverse().T.Sub(d.truth(int(pm.FrameIdx))).NormSq()
	d.n++
}

func (d *replayDevice) ateCm() float64 {
	if d.n == 0 {
		return 0
	}
	return 100 * math.Sqrt(d.sqEr/float64(d.n))
}
