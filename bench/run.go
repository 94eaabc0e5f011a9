package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"slamshare/internal/dataset"
)

const (
	// warmFrames is how many frames each session runs before the
	// measured phase; they let the tracker initialise and the video
	// stream reach P-frames, and are excluded from every metric.
	warmFrames = 10
	// laps is how many times a run sets the topology up. Each set-up is
	// followed by a third of the measured phase, so setup_s is a median
	// of three and no session runs long enough for the seed tracker's
	// drift to fail the accuracy checks.
	laps = 3
	// replayFPS bounds how fast a closed-loop replay gets through its
	// recording (the seed does about 5.5 frames a second); the recording
	// is that long, and a lap ends early if it runs out.
	replayFPS = 6
	// shardToken authenticates the front to its shards.
	shardToken = "12648430"
)

// inputs is everything generated from the seed before set-up begins.
type inputs struct {
	mh04, mh05 *dataset.Sequence
	rec        *recording // nil unless the workload replays
}

// workload describes one traffic mix and the topology it runs on.
type workload struct {
	name    string
	why     string
	cluster bool // front + two shards, else one server
	persist bool // server journals to a checkpoint directory
	replay  bool // needs a recorded uplink
	merges  bool // two sessions share a map, so one aligned merge is due
	devices func(in *inputs) []device
}

var workloads = []*workload{
	{
		name: "solo_full",
		why:  "paper's base case: one stereo session, full offload, live client encode, closed loop; client video encode dominates",
		devices: func(in *inputs) []device {
			return []device{newLiveDevice(1, in.mh04, false)}
		},
	},
	{
		name:    "duo_split",
		why:     "two sessions sharing one map in split mode: codec bypassed, extraction on the client, server does tracking+mapping+merge+WAL",
		persist: true,
		merges:  true,
		devices: func(in *inputs) []device {
			return []device{newLiveDevice(1, in.mh04, true), newLiveDevice(2, in.mh05, true)}
		},
	},
	{
		name:    "replay_cluster",
		why:     "a recorded full-offload uplink, closed loop through front and two shards: client encode off the path, front decode and re-encode on it",
		cluster: true,
		replay:  true,
		devices: func(in *inputs) []device {
			return []device{newReplayDevice(21, in.rec)}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// recordLen is how many frames a replay workload records for a lap of
// the given length: the warm-up and what the lap can get through.
func recordLen(seconds float64) int {
	return warmFrames + int(seconds*replayFPS) + 1
}

// prepare generates the workload's inputs from the seed, for laps of
// the given length.
func prepare(w *workload, seed int64, seconds float64) *inputs {
	in := &inputs{}
	in.mh04, in.mh05 = sequences(seed)
	if w.replay {
		in.rec = record(in.mh04, recordLen(seconds))
	}
	return in
}

// topology is the set of child processes one set-up starts.
type topology struct {
	children []*child
	addr     string // where devices dial
}

func (t *topology) stop() {
	for _, c := range t.children {
		c.stop()
	}
}

// cpu returns each child's CPU time so far.
func (t *topology) cpu() ([]time.Duration, error) {
	out := make([]time.Duration, len(t.children))
	for i, c := range t.children {
		d, err := c.cpu()
		if err != nil {
			return nil, fmt.Errorf("cpu of %s: %w", c.name, err)
		}
		out[i] = d
	}
	return out, nil
}

// start spawns the workload's topology with logs (and the checkpoint
// directory, if any) under dir.
func start(w *workload, dir string) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topology{}
	if !w.cluster {
		var args []string
		if w.persist {
			args = []string{"-checkpoint-dir", filepath.Join(dir, "ckpt")}
		}
		srv, err := spawn(dir, "server", "slamshare-server", args...)
		if err != nil {
			return nil, err
		}
		t.children, t.addr = []*child{srv}, srv.addr
		return t, nil
	}
	var addrs []string
	for id := 0; id < 2; id++ {
		sh, err := spawn(dir, fmt.Sprintf("shard%d", id), "slamshare-server",
			"-shard-id", fmt.Sprint(id), "-shard-token", shardToken)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.children = append(t.children, sh)
		addrs = append(addrs, sh.addr)
	}
	// The machine hall spans x in [-10, 10]; with the boundary at x=100
	// the session stays on shard 0 and shard 1 must stay idle.
	front, err := spawn(dir, "front", "slamshare-front",
		"-shards", strings.Join(addrs, ","), "-token", shardToken, "-min-x", "-100", "-max-x", "300")
	if err != nil {
		t.stop()
		return nil, err
	}
	t.children = append(t.children, front)
	t.addr = front.addr
	return t, nil
}

// outcome is what one lap over a topology produced.
type outcome struct {
	began      time.Time // set-up started
	setup      time.Duration
	setupSteal float64  // share of host CPU time stolen during set-up
	samples    []sample // slice boundaries of the measured phase
	sessions   []*session
	vars       []*debugVars // per child, scraped after the measured phase
	err        error        // first session error, if any
}

// sliceLen is how often the measured phase is sampled. Each slice is
// judged quiet or disturbed on its own, so a burst of host interference
// costs the slices it touches, not the run.
const sliceLen = 500 * time.Millisecond

// sample is one reading of every clock at a slice boundary.
type sample struct {
	at           time.Time
	steal, total int64           // host ticks since boot
	child        []time.Duration // CPU time of each child so far
	self         time.Duration   // CPU time of the generator so far
}

// stolen is the share of host CPU time stolen between two readings.
func stolen(steal0, total0, steal1, total1 int64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

func takeSample(t *topology) (sample, error) {
	sm := sample{at: time.Now(), self: selfCPU()}
	sm.steal, sm.total = hostTicks()
	var err error
	sm.child, err = t.cpu()
	return sm, err
}

// pass performs one lap: a set-up (spawn, hello, warm-up frames) and a
// measured phase of `seconds` on the topology it built. recs, when
// non-nil, gives one span recorder per session.
func pass(w *workload, in *inputs, dir string, seconds float64, recs []*recorder) (*outcome, error) {
	devs := w.devices(in)
	out := &outcome{began: time.Now(), sessions: make([]*session, len(devs))}

	steal0, total0 := hostTicks()
	topo, err := start(w, dir)
	if err != nil {
		return nil, err
	}
	defer topo.stop()

	var (
		mu       sync.Mutex
		ready    sync.WaitGroup
		finished sync.WaitGroup
		begin    = make(chan time.Time)
	)
	fail := func(err error) {
		mu.Lock()
		if out.err == nil {
			out.err = err
		}
		mu.Unlock()
	}
	ready.Add(len(devs))
	finished.Add(len(devs))
	// One goroutine per session, at most two: the generator must not
	// out-thread the two cores it shares with the programs under test.
	for i := range devs {
		i := i
		go func() {
			defer finished.Done()
			var rec *recorder
			if recs != nil {
				rec = recs[i]
			}
			s, err := dialSession(topo.addr, devs[i], rec)
			if err != nil {
				fail(err)
				ready.Done()
				return
			}
			out.sessions[i] = s
			k, err := closedLoop(s, 0, warmFrames, time.Time{})
			ready.Done()
			if err != nil {
				fail(fmt.Errorf("session %d warm-up: %w", i, err))
				return
			}
			t, ok := <-begin
			if !ok {
				return
			}
			s.measured = true
			stop := t.Add(time.Duration(seconds * float64(time.Second)))
			if _, err := closedLoop(s, k, devs[i].steps(), stop); err != nil {
				fail(fmt.Errorf("session %d: %w", i, err))
			}
		}()
	}
	ready.Wait()
	out.setup = time.Since(out.began)
	steal1, total1 := hostTicks()
	out.setupSteal = stolen(steal0, total0, steal1, total1)

	// The measured phase. This goroutine only wakes once per slice to
	// read the clocks the host-noise guard and the CPU metrics need.
	first, err := takeSample(topo)
	if err != nil || out.err != nil {
		close(begin)
		finished.Wait()
		for _, s := range out.sessions {
			if s != nil {
				s.bye()
			}
		}
		if err != nil {
			return nil, err
		}
		return out, out.err
	}
	out.samples = append(out.samples, first)
	for range devs {
		begin <- first.at
	}
	done := make(chan struct{})
	go func() {
		finished.Wait()
		close(done)
	}()
	tick := time.NewTicker(sliceLen)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
		}
		sm, err := takeSample(topo)
		if err != nil {
			<-done
			return nil, err
		}
		out.samples = append(out.samples, sm)
	}
	for _, s := range out.sessions {
		s.bye()
	}
	for _, c := range topo.children {
		v, err := c.vars()
		if err != nil {
			return nil, err
		}
		out.vars = append(out.vars, v)
	}
	return out, out.err
}
