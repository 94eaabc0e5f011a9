package chaos

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/cluster"
	"slamshare/internal/dataset"
	"slamshare/internal/offload"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
)

// flapStats is one adaptive client's outcome in the mode-flap
// scenario: frame accounting plus the mode transitions it applied.
type flapStats struct {
	id       uint32
	qos      offload.QoS
	sent     int
	answered int
	tracked  int
	shed     int
	lats     []time.Duration // uplink-send to pose-answer, per frame
	modes    []client.ModeEvent
}

// flapClient configures one adaptive session in the mode-flap
// scenario and the ramp benchmark.
type flapClient struct {
	id         uint32
	qos        offload.QoS
	caps       offload.Caps
	seq        *dataset.Sequence
	nFrames    int
	stride     int
	burstStart int // burst window [burstStart, burstEnd), frame counts
	burstEnd   int
	slow, fast time.Duration // pace outside/inside the burst window
	// prebuilt, when set, holds the pre-encoded full-mode uplink for
	// every frame; the sender writes bytes instead of encoding video at
	// send time. Used by the ramp benchmark so the background sessions'
	// load lands on the server's queues — what the QoS policy manages —
	// rather than on the benchmark process's CPU (prebuilt encoder
	// state cannot survive an upgrade back to full, so prebuilt clients
	// must not advertise CapSplit and must stay loaded to the end).
	prebuilt [][]byte
}

// runAdaptiveFlapClient drives one adaptive session through a load
// ramp: slow camera-paced frames, then a firehose burst, then slow
// again. The uplink format follows the server's mode switches frame
// by frame; every uplink must be answered (tracked, untracked, or
// shed).
func runAdaptiveFlapClient(addr string, o flapClient) (*flapStats, error) {
	id, qos, seq := o.id, o.qos, o.seq
	nFrames, stride := o.nFrames, o.stride
	cl := client.New(id, seq)
	cl.EnableAdaptive(qos, o.caps)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	hello := protocol.HelloMsg{
		ClientID: id, Mode: seq.Rig.Mode,
		Intr: seq.Rig.Intr, Baseline: seq.Rig.Baseline,
		QoS: qos, Caps: o.caps,
	}
	if err := protocol.WriteMessage(conn, protocol.TypeHello, hello.Encode()); err != nil {
		return nil, err
	}
	st := &flapStats{id: id, qos: qos}

	// Reader: applies poses and mode switches as they arrive; reports
	// how many distinct frames were answered and the e2e latency of
	// each (uplink send to pose answer).
	pending := make(map[uint32]time.Time)
	var mu sync.Mutex
	readErr := make(chan error, 1)
	readDone := make(chan struct{})
	lastIdx := uint32((nFrames - 1) * stride)
	go func() {
		defer close(readDone)
		conn.SetReadDeadline(time.Now().Add(4 * time.Minute))
		for {
			mt, payload, err := protocol.ReadMessage(conn)
			if err != nil {
				readErr <- err
				return
			}
			switch mt {
			case protocol.TypePose:
				pm, err := protocol.DecodePoseMsg(payload)
				if err != nil {
					readErr <- err
					return
				}
				mu.Lock()
				sentAt, was := pending[pm.FrameIdx]
				delete(pending, pm.FrameIdx)
				mu.Unlock()
				if was {
					st.answered++
					st.lats = append(st.lats, time.Since(sentAt))
					if pm.Shed {
						st.shed++
					} else if pm.Tracked {
						st.tracked++
						cl.ApplyPose(int(pm.FrameIdx), pm.Pose, pm.Tracked)
					}
				}
				if pm.FrameIdx == lastIdx {
					readErr <- nil
					return
				}
			case protocol.TypeModeSwitch:
				ms, err := protocol.DecodeModeSwitchMsg(payload)
				if err != nil {
					readErr <- err
					return
				}
				cl.ApplyModeSwitch(ms)
			}
		}
	}()

	for k := 0; k < nFrames; k++ {
		i := k * stride
		var mt byte
		var payload []byte
		if o.prebuilt != nil && cl.OffloadMode() == offload.ModeFull {
			mt, payload = protocol.TypeFrame, o.prebuilt[k]
		} else {
			msg := cl.BuildUplink(i)
			mt, payload = msg.Type(), msg.Encode()
		}
		mu.Lock()
		pending[uint32(i)] = time.Now()
		mu.Unlock()
		if err := protocol.WriteMessage(conn, mt, payload); err != nil {
			return st, fmt.Errorf("client %d frame %d: %w", id, i, err)
		}
		st.sent++
		pace := o.slow
		if k >= o.burstStart && k < o.burstEnd {
			pace = o.fast
		}
		if pace > 0 {
			time.Sleep(pace)
		}
	}
	<-readDone
	if err := <-readErr; err != nil {
		return st, fmt.Errorf("client %d reader: %w", id, err)
	}
	st.modes = cl.ModeLog()
	_ = protocol.WriteMessage(conn, protocol.TypeBye, nil)
	return st, nil
}

// TestModeFlapUnderLoad is the mode-flap-under-load chaos scenario:
// six adaptive sessions at mixed QoS (2 headsets, 2 handhelds, 2
// mapping drones) ride a load ramp — camera-paced, then a mid-run
// firehose burst from every client, then camera-paced again. The
// burst must force downgrades (full -> split -> shadow by QoS) and
// the recovery must upgrade sessions back; every frame is answered,
// no session flaps faster than the hysteresis window, headsets never
// reach shadow mode, nobody is evicted, and the global map stays
// invariant-clean.
func TestModeFlapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos run")
	}
	const hysteresis = 300 * time.Millisecond
	cfg := cluster.HalfResConfig(false)
	cfg.TrackWorkers = 2 // constrain capacity so the burst saturates
	cfg.Overload.ShedBudget = 15 * time.Millisecond
	cfg.Offload = offload.Config{
		SplitLoad:  1,
		ShadowLoad: 3,
		SplitRTT:   time.Hour, // load-driven decisions only
		Hysteresis: hysteresis,
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	seqs := make(map[string]*dataset.Sequence)
	for _, name := range []string{"MH04", "MH05"} {
		s, err := dataset.ByName(name, camera.Stereo)
		if err != nil {
			t.Fatal(err)
		}
		seqs[name] = s
	}
	// A Sequence renders for one caller at a time (its renderer caches
	// patches in a plain map), so every client gets its own over the
	// shared, read-only world.
	halfRes := func(name string) *dataset.Sequence { return dataset.HalfRes(seqs[name]) }

	classes := []offload.QoS{
		offload.QoSHeadset, offload.QoSHeadset,
		offload.QoSHandheld, offload.QoSHandheld,
		offload.QoSDrone, offload.QoSDrone,
	}
	const (
		nFrames    = 44
		stride     = 2
		burstStart = 12
		burstEnd   = 30
	)
	type outcome struct {
		st  *flapStats
		err error
	}
	outcomes := make(chan outcome, len(classes))
	var wg sync.WaitGroup
	for idx, qos := range classes {
		name := "MH04"
		if idx%2 == 1 {
			name = "MH05"
		}
		wg.Add(1)
		go func(id uint32, qos offload.QoS, seq *dataset.Sequence) {
			defer wg.Done()
			st, err := runAdaptiveFlapClient(addr, flapClient{
				id: id, qos: qos, caps: offload.CapSplit | offload.CapShadow,
				seq: seq, nFrames: nFrames, stride: stride,
				burstStart: burstStart, burstEnd: burstEnd,
				slow: 250 * time.Millisecond, fast: 2 * time.Millisecond,
			})
			outcomes <- outcome{st, err}
		}(uint32(idx+1), qos, halfRes(name))
	}
	wg.Wait()
	close(outcomes)

	downgrades, upgrades := 0, 0
	for o := range outcomes {
		if o.err != nil {
			t.Fatal(o.err)
		}
		st := o.st
		if st.answered != st.sent {
			t.Errorf("client %d (%v): %d of %d frames answered", st.id, st.qos, st.answered, st.sent)
		}
		prev := offload.ModeFull
		for k, ev := range st.modes {
			if ev.Mode > prev {
				downgrades++
			} else if ev.Mode < prev {
				upgrades++
			}
			if st.qos == offload.QoSHeadset && ev.Mode == offload.ModeShadow {
				t.Errorf("client %d: headset degraded to shadow", st.id)
			}
			// No flapping faster than the dwell, measured on the server's
			// send stamps: client apply times compress when the reader
			// drains queued downlinks. Small margin for the gap between
			// the controller's decision clock and the write stamp.
			if k > 0 {
				prevEv := st.modes[k-1]
				if ev.Epoch <= prevEv.Epoch {
					t.Errorf("client %d: epochs not increasing: %d then %d",
						st.id, prevEv.Epoch, ev.Epoch)
				}
				dt := time.Duration(ev.ServerNanos - prevEv.ServerNanos)
				if dt < hysteresis-50*time.Millisecond {
					t.Errorf("client %d: switches %d->%d only %v apart (hysteresis %v)",
						st.id, k-1, k, dt, hysteresis)
				}
			}
			prev = ev.Mode
		}
		t.Logf("client %d (%v): sent %d tracked %d shed %d, %d switches",
			st.id, st.qos, st.sent, st.tracked, st.shed, len(st.modes))
	}
	if downgrades == 0 {
		t.Error("load ramp forced no downgrades")
	}
	if upgrades == 0 {
		t.Error("recovery produced no upgrades")
	}
	waitNoSessions(t, srv)

	ns := srv.NetStats()
	if got := ns.SessionsDropped.Load(); got != 0 {
		t.Errorf("%d sessions dropped; adaptive degradation must replace eviction", got)
	}
	if got := ns.IdleEvicted.Load(); got != 0 {
		t.Errorf("%d connections evicted under the ramp", got)
	}
	if got := ns.ModeSwitches.Load(); got == 0 {
		t.Error("server recorded no mode switches")
	}
	rep := srv.Global().CheckInvariants()
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	t.Logf("mode-flap: %d downgrades, %d upgrades, %d switches pushed, %d split frames, %d sync pings, %d shed",
		downgrades, upgrades, ns.ModeSwitches.Load(), ns.FramesSplit.Load(),
		ns.SyncPings.Load(), ns.FramesShed.Load())
}

// rampServer starts a constrained adaptive server for the overload
// ramp and returns it with its listen address.
func rampServer(b *testing.B) (*server.Server, string) {
	b.Helper()
	cfg := cluster.HalfResConfig(false)
	cfg.TrackWorkers = 2
	// One of the two admission slots is headset-only: a QoS-0 frame
	// never waits out a whole lower-class frame at the gate.
	cfg.TrackReservedSlots = 1
	cfg.Overload.ShedBudget = 15 * time.Millisecond
	cfg.Offload = offload.Config{
		SplitLoad:  1,
		ShadowLoad: 2,
		SplitRTT:   time.Hour,
		Hysteresis: 300 * time.Millisecond,
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	go srv.Serve(l)
	b.Cleanup(func() { l.Close(); srv.Close() })
	return srv, l.Addr().String()
}

// BenchmarkOffloadAdaptiveRamp is the QoS-protection measurement: one
// headset session is benchmarked unloaded, then again while seven
// drone-class sessions ramp the same server into overload. The
// adaptive policy must push the drones toward shadow mode rather than
// evicting them, keeping the headset's end-to-end p99 close to its
// unloaded p99. Reported metrics: both p99s, their ratio, and how
// many sessions were degraded off full offload.
//
// The drones' full-mode uplinks are pre-encoded before the clock
// starts and their only degraded mode is shadow (CapShadow, no
// CapSplit — an upgrade back to full would invalidate the prebuilt
// encoder stream, so they stay bursting to the end): at send time a
// drone writes bytes or advances a cheap IMU sync. On a small CI box
// this matters — live drones spend more CPU encoding video and
// extracting keypoints than the server spends serving them, and with
// everything in one process that client-side cost timeslices against
// the headset's server work and drowns the signal. Prebuilding puts
// the overload where it belongs: on the server's queues, which is
// what the QoS policy manages.
func BenchmarkOffloadAdaptiveRamp(b *testing.B) {
	const nFrames, stride = 36, 2
	seq := dataset.HalfRes(mustSeq(b, "MH04"))
	// Pre-encode every drone's full-mode uplink stream (untimed; the
	// video codec is stateful, so each drone gets its own sequential
	// encode).
	prebuilt := make(map[uint32][][]byte)
	for id := uint32(2); id <= 8; id++ {
		enc := client.New(id, seq)
		frames := make([][]byte, nFrames)
		for k := 0; k < nFrames; k++ {
			frames[k] = enc.BuildFrame(k * stride).Encode()
		}
		prebuilt[id] = frames
	}
	for i := 0; i < b.N; i++ {
		// Unloaded baseline: the headset alone, camera-paced.
		_, addr := rampServer(b)
		solo, err := runAdaptiveFlapClient(addr, flapClient{
			id: 1, qos: offload.QoSHeadset, caps: offload.CapSplit | offload.CapShadow,
			seq: seq, nFrames: nFrames, stride: stride,
			slow: 60 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		baselineP99 := percentile(solo.lats, 0.99)

		// Loaded: the headset keeps the same camera pacing — it is the
		// victim, not a contributor — while 7 drones firehose from
		// frame 8 to the end of their runs.
		srv, addr := rampServer(b)
		var wg sync.WaitGroup
		outcomes := make(chan *flapStats, 8)
		errs := make(chan error, 8)
		for id := uint32(1); id <= 8; id++ {
			o := flapClient{
				id: id, qos: offload.QoSDrone, caps: offload.CapShadow,
				seq: seq, nFrames: nFrames, stride: stride,
				burstStart: 8, burstEnd: nFrames,
				slow: 60 * time.Millisecond, fast: 2 * time.Millisecond,
				prebuilt: prebuilt[id],
			}
			if id == 1 {
				o.qos, o.caps = offload.QoSHeadset, offload.CapSplit|offload.CapShadow
				o.burstStart, o.burstEnd = 0, 0
				o.prebuilt = nil
			}
			wg.Add(1)
			go func(o flapClient) {
				defer wg.Done()
				st, err := runAdaptiveFlapClient(addr, o)
				if err != nil {
					errs <- err
					return
				}
				outcomes <- st
			}(o)
		}
		wg.Wait()
		close(outcomes)
		close(errs)
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
		var loadedP99 time.Duration
		degraded := 0
		for st := range outcomes {
			if st.qos == offload.QoSHeadset {
				loadedP99 = percentile(st.lats, 0.99)
			} else if len(st.modes) > 0 {
				degraded++
			}
		}
		if got := srv.NetStats().SessionsDropped.Load(); got != 0 {
			b.Fatalf("%d sessions dropped under the ramp", got)
		}
		b.ReportMetric(float64(baselineP99.Microseconds())/1000, "unloaded-p99-ms")
		b.ReportMetric(float64(loadedP99.Microseconds())/1000, "hiqos-p99-ms")
		if baselineP99 > 0 {
			b.ReportMetric(float64(loadedP99)/float64(baselineP99), "p99-ratio")
		}
		b.ReportMetric(float64(degraded), "degraded-sessions")
	}
}

func mustSeq(b *testing.B, name string) *dataset.Sequence {
	b.Helper()
	s, err := dataset.ByName(name, camera.Stereo)
	if err != nil {
		b.Fatal(err)
	}
	return s
}
