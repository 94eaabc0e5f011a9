package main

import (
	"fmt"
	"math"
	"time"
)

const (
	// maxCentreErrM is how far an answered camera centre may be from
	// ground truth before the frame counts as failed.
	maxCentreErrM = 0.5
	// maxATEcm bounds each client's trajectory error for the run to
	// count as correct (the seed tree reads 4 to 12 cm).
	maxATEcm = 25.0
	// uplinkFrames is the fixed prefix of measured frames per session
	// over which uplink_kbit_per_frame is taken, so that it repeats
	// exactly for a fixed seed however many frames a run gets through.
	uplinkFrames = 16
)

// verdict says why a frame failed; the empty verdict is a correct
// answer.
type verdict string

const (
	ok        verdict = ""
	missing   verdict = "missing"
	duplicate verdict = "duplicate"
	shed      verdict = "shed"
	untracked verdict = "untracked"
	far       verdict = "far"
)

// judge classifies one sent frame.
func judge(fr *frameRec) verdict {
	switch {
	case fr.answers == 0:
		return missing
	case fr.answers > 1:
		return duplicate
	case fr.shed:
		return shed
	case !fr.tracked:
		return untracked
	case !(fr.errM <= maxCentreErrM): // also catches NaN
		return far
	}
	return ok
}

// maxSteal is the share of host CPU time the hypervisor may take from
// a slice (or a set-up) before it counts as disturbed. On the reference
// box latency rises faster than in proportion to steal, and no model
// corrects for that, so stolen slices are left out.
const maxSteal = 0.04

// minQuiet is how much of the measured phase must be quiet for the
// timings to be taken over quiet slices alone; with less, the run
// reports everything it measured and says it was disturbed.
const minQuiet = 2 * time.Second

// tally is the accounting of one run's measured phases. Failures are
// counted over every measured frame and throughput and CPU over every
// slice: the kernel does not charge stolen time to a process, and
// picking slices by what the hypervisor did to them biases a ratio of
// sums. Timings are taken over the frames that touched quiet slices
// only (all frames, if too few slices are quiet).
type tally struct {
	attempted int
	failed    int
	by        map[verdict]int
	latMs     []float64 // correct answers in quiet slices, as measured
	rttMs     []float64 // socket write to answer read, same frames
	upBits    []float64 // framed uplink bits of the fixed prefix
	slices    []sliceInfo
	frames    []frameInfo

	quietShare  float64 // quiet part of the measured phases
	stealPct    float64 // over the measured phases
	exposurePct float64 // mean exposure over the measured phases
	disturbed   bool    // too little of the run was quiet; everything was used
	framesPerS  float64
	serverCPUms float64   // per frame, all children, as measured
	childCPUms  []float64 // per frame, each child, as measured
	clientCPUms float64   // per frame, as measured

	// The gated figures, referred to an undisturbed host.
	poseMs       []float64 // latMs, each frame referred by its own exposure
	serverCPUadj float64   // serverCPUms, each slice referred by its own
}

// frameInfo is what the saved report shows of one correctly answered
// measured frame.
type frameInfo struct {
	Lap      int     `json:"lap"`
	AtMs     float64 `json:"at_ms"` // the generator started on it, since the lap's measured phase began
	LatMs    float64 `json:"latency_ms"`
	Exposure float64 `json:"exposure"`
	Quiet    bool    `json:"quiet"`
}

// sliceInfo is what the saved report shows of one slice of a measured
// phase: what the host did to it and whether its timings were used.
type sliceInfo struct {
	Lap      int     `json:"lap"`
	EndMs    float64 `json:"end_ms"` // since the lap's measured phase began
	StealPct float64 `json:"steal_pct"`
	Exposure float64 `json:"exposure"`
	Quiet    bool    `json:"quiet"`
	Frames   float64 `json:"frames"`
	CPUms    float64 `json:"server_cpu_ms"`
}

// slice is one interval between two samples of one lap.
type slice struct {
	lap      int
	from, to sample
	quiet    bool
	work     float64 // correct frames done, a frame that straddles a boundary counting in proportion on each side
	expo     float64
}

// count walks the measured frames of every lap's sessions against the
// slices the sampler cut the measured phases into. ex says how much of
// the CPUs the neighbours took at any moment of the run.
func count(outs []*outcome, ex *exposure) *tally {
	t := &tally{by: make(map[verdict]int)}
	var slices []slice
	var quietDur, allDur time.Duration
	var steal, total int64
	for lap, out := range outs {
		sm := out.samples
		for j := 0; j+1 < len(sm); j++ {
			sl := slice{lap: lap, from: sm[j], to: sm[j+1], expo: ex.over(sm[j].at, sm[j+1].at)}
			d := sl.to.at.Sub(sl.from.at)
			allDur += d
			steal += sl.to.steal - sl.from.steal
			total += sl.to.total - sl.from.total
			if stolen(sl.from.steal, sl.from.total, sl.to.steal, sl.to.total) <= maxSteal {
				sl.quiet = true
				quietDur += d
			}
			t.exposurePct += 100 * sl.expo * d.Seconds()
			slices = append(slices, sl)
		}
	}
	if len(slices) == 0 {
		return t
	}
	t.stealPct = 100 * stolen(0, 0, steal, total)
	t.exposurePct /= allDur.Seconds()
	t.quietShare = float64(quietDur) / float64(allDur)
	if quietDur < minQuiet {
		t.disturbed = true
		for j := range slices {
			slices[j].quiet = true
		}
	}

	for lap, out := range outs {
		if len(out.samples) == 0 {
			continue
		}
		origin := out.samples[0].at
		for _, s := range out.sessions {
			if s == nil {
				continue
			}
			prefix := 0
			for k := range s.recs {
				fr := &s.recs[k]
				if !fr.measured || !fr.sentOK {
					continue
				}
				t.attempted++
				if prefix < uplinkFrames {
					t.upBits = append(t.upBits, float64(fr.bytes)*8)
					prefix++
				}
				if v := judge(fr); v != ok {
					t.failed++
					t.by[v]++
					continue
				}
				quiet := true
				span := fr.done.Sub(fr.began)
				for j := range slices {
					sl := &slices[j]
					if sl.lap != lap {
						continue
					}
					lo, hi := fr.began, fr.done
					if sl.from.at.After(lo) {
						lo = sl.from.at
					}
					if sl.to.at.Before(hi) {
						hi = sl.to.at
					}
					if !hi.After(lo) {
						continue
					}
					sl.work += float64(hi.Sub(lo)) / float64(span)
					quiet = quiet && sl.quiet
				}
				e := ex.over(fr.began, fr.done)
				t.frames = append(t.frames, frameInfo{lap, ms(fr.began.Sub(origin)), ms(span), e, quiet})
				if !quiet {
					continue
				}
				fr.quiet = true
				t.latMs = append(t.latMs, ms(span))
				t.poseMs = append(t.poseMs, undisturbed(ms(span), e))
				t.rttMs = append(t.rttMs, ms(fr.read.Sub(fr.sent)))
			}
		}
	}

	var frames, adj float64
	var wall, self time.Duration
	child := make([]time.Duration, len(slices[0].from.child))
	for _, sl := range slices {
		var cpu time.Duration
		for c := range sl.from.child {
			cpu += sl.to.child[c] - sl.from.child[c]
		}
		t.slices = append(t.slices, sliceInfo{Lap: sl.lap, EndMs: ms(sl.to.at.Sub(outs[sl.lap].samples[0].at)),
			StealPct: 100 * stolen(sl.from.steal, sl.from.total, sl.to.steal, sl.to.total),
			Exposure: sl.expo, Quiet: sl.quiet && !t.disturbed, Frames: sl.work, CPUms: ms(cpu)})
		frames += sl.work
		wall += sl.to.at.Sub(sl.from.at)
		self += sl.to.self - sl.from.self
		adj += undisturbed(ms(cpu), sl.expo)
		for c := range child {
			child[c] += sl.to.child[c] - sl.from.child[c]
		}
	}
	if frames > 0 {
		t.framesPerS = frames / wall.Seconds()
		t.clientCPUms = ms(self) / frames
		t.serverCPUadj = adj / frames
		for _, d := range child {
			t.childCPUms = append(t.childCPUms, ms(d)/frames)
			t.serverCPUms += ms(d) / frames
		}
	}
	return t
}

// checks runs the run-level assertions on one lap and returns every
// violation.
func checks(w *workload, out *outcome) []string {
	var bad []string
	if out.err != nil {
		bad = append(bad, out.err.Error())
	}
	for i, s := range out.sessions {
		if s == nil {
			continue
		}
		if s.strays > 0 {
			bad = append(bad, fmt.Sprintf("session %d: %d answers for frames never sent", i, s.strays))
		}
		for k := range s.recs {
			if fr := &s.recs[k]; fr.sentOK && fr.answers != 1 {
				bad = append(bad, fmt.Sprintf("session %d frame %d answered %d times", i, fr.idx, fr.answers))
			}
		}
		if ate := s.dev.ateCm(); !(ate <= maxATEcm) {
			bad = append(bad, fmt.Sprintf("session %d ATE %.1f cm exceeds %.0f cm", i, ate, maxATEcm))
		}
	}
	if len(out.vars) == 0 {
		return bad
	}
	for i, v := range out.vars {
		for _, c := range []string{"merge.rollback", "net.frames_shed", "net.frames_failed", "net.track_lost"} {
			if n := v.Counters[c]; n != 0 {
				bad = append(bad, fmt.Sprintf("child %d: %s = %d", i, c, n))
			}
		}
	}
	if w.merges {
		// The first session's map founds the global map; the second
		// must align into it, exactly once, if it got far enough.
		if n := out.vars[0].Histograms["merge.align"].Count; n > 1 {
			bad = append(bad, fmt.Sprintf("%d aligned merges, want at most 1", n))
		}
	}
	if w.cluster {
		if n := out.vars[2].Vars["front.handoffs"]; n != 0 {
			bad = append(bad, fmt.Sprintf("front logged %v handoffs, want 0", n))
		}
		idle := out.vars[1]
		if idle.Counters["net.sessions_opened"] != 0 || idle.Vars["map.keyframes"] != 0 {
			bad = append(bad, "shard 1 did not stay idle")
		}
	}
	return bad
}

func ms(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1e3 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
