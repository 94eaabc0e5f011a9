package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/offload"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
	"slamshare/internal/server"
)

var errLinkCut = errors.New("injected link failure")

// sentUplink is one frame or keypoint message a faultConn saw written
// in full.
type sentUplink struct {
	mt  byte
	idx uint32
}

// faultConn is a client-side link with a scripted fault: it cuts the
// socket on its dieAt-th write, or on the first message header written
// once dieIf holds; with hold set it withholds every downlink until the
// cut, so uplinks pile up unanswered. It also records the uplinks that
// got through. (WriteMessage writes a 5-byte header, then the payload:
// odd writes are headers; a hello costs 2 writes, each uplink 2 more.)
type faultConn struct {
	net.Conn
	dieAt int
	dieIf func() bool
	hold  bool

	dead    chan struct{}
	once    sync.Once
	writes  int
	hdr     byte
	uplinks []sentUplink
}

func (f *faultConn) cut() {
	f.once.Do(func() {
		close(f.dead)
		f.Conn.Close()
	})
}

func (f *faultConn) Close() error {
	f.cut()
	return nil
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.writes++
	header := f.writes%2 == 1
	if f.writes == f.dieAt || header && f.dieIf != nil && f.dieIf() {
		f.cut()
		return 0, errLinkCut
	}
	n, err := f.Conn.Write(p)
	switch {
	case err != nil:
	case header:
		f.hdr = p[0]
	case f.hdr == protocol.TypeFrame || f.hdr == protocol.TypeKeypoint:
		// Both uplink payloads open with client id, frame index.
		f.uplinks = append(f.uplinks, sentUplink{f.hdr, binary.LittleEndian.Uint32(p[4:8])})
	}
	return n, err
}

func (f *faultConn) Read(p []byte) (int, error) {
	if f.hold {
		<-f.dead
		return 0, errLinkCut
	}
	return f.Conn.Read(p)
}

// TestRun drives the one session loop against a real server through
// every combination the four old loops covered separately: a link that
// cannot be redialed, a mid-run link cut in each offload mode in closed
// and open loop, a server-commanded mode switch carried across a
// redial, and an exhausted retry budget.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	const nFrames = 15
	frames := make([]int, nFrames)
	for i := range frames {
		frames[i] = i
	}
	// Unbounded: a redial is refused (BadHello) until the server has
	// worked off the dead link's queue and closed the old session.
	retry := overload.Backoff{Base: 5, Factor: 2, Max: 50, Jitter: 0.2, Seed: 42}
	cutAt12 := func(*Client) *faultConn { return &faultConn{dieAt: 12} } // payload of the 5th uplink
	heldCutAt12 := func(*Client) *faultConn { return &faultConn{dieAt: 12, hold: true} }

	cases := []struct {
		name     string
		pace     time.Duration
		pin      offload.Mode // pinned with ForceMode unless adaptive
		adaptive bool         // the server commands split as soon as any RTT is reported
		connOnly bool         // ConnDialer over the first link: no redial possible
		noRoute  bool         // every dial fails
		pol      overload.Backoff
		first    func(*Client) *faultConn // fault script of the first link
		wantMt   byte                     // type of every uplink on the last link
		resumeAt uint32                   // first uplink on the last link: the oldest unanswered one
	}{
		{name: "conn-dialer/link-dies", connOnly: true, first: cutAt12},
		{name: "closed/full", pol: retry, first: cutAt12, wantMt: protocol.TypeFrame, resumeAt: 4},
		{name: "closed/split", pin: offload.ModeSplit, pol: retry, first: cutAt12, wantMt: protocol.TypeKeypoint, resumeAt: 4},
		{name: "closed/shadow", pin: offload.ModeShadow, pol: retry, first: cutAt12, wantMt: protocol.TypeKeypoint, resumeAt: 4},
		// Open loop with the downlink withheld: uplinks 0-3 written and
		// the 5th cut, so five are in flight and all are re-sent.
		{name: "open/full", pace: time.Millisecond, pol: retry, first: heldCutAt12, wantMt: protocol.TypeFrame},
		{name: "open/split", pace: time.Millisecond, pin: offload.ModeSplit, pol: retry, first: heldCutAt12, wantMt: protocol.TypeKeypoint},
		{name: "open/shadow", pace: time.Millisecond, pin: offload.ModeShadow, pol: retry, first: heldCutAt12, wantMt: protocol.TypeKeypoint},
		// The cut comes after the client applied the server's split
		// switch; the new server session starts in full mode again, but
		// the device must keep uplinking keypoints.
		{name: "adaptive+reconnect", adaptive: true, pol: retry, wantMt: protocol.TypeKeypoint, resumeAt: 8,
			first: func(c *Client) *faultConn {
				return &faultConn{dieIf: func() bool {
					return c.OffloadMode() == offload.ModeSplit && c.FramesSent() > 8
				}}
			}},
		{name: "budget-exhausted", noRoute: true,
			pol: overload.Backoff{Base: 0.1, Factor: 1, Max: 1, MaxAttempts: 3, Seed: 7}},
	}
	for id, tc := range cases {
		tc, id := tc, uint32(id+1)
		t.Run(tc.name, func(t *testing.T) {
			cfg := server.DefaultConfig()
			if tc.adaptive {
				cfg.Offload = offload.Config{SplitLoad: 1e6, ShadowLoad: 1e6, SplitRTT: time.Nanosecond, Hysteresis: time.Minute}
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

			c := New(id, dataset.V202(camera.Stereo))
			c.Pace = tc.pace
			if tc.adaptive {
				c.EnableAdaptive(offload.QoSDrone, offload.CapSplit)
			} else if tc.pin != offload.ModeFull {
				c.ForceMode(tc.pin)
			}
			var links []*faultConn
			dials := 0
			dial := Dialer(func() (net.Conn, error) {
				dials++
				if tc.noRoute {
					return nil, fmt.Errorf("no route")
				}
				nc, err := net.Dial("tcp", l.Addr().String())
				if err != nil {
					return nil, err
				}
				f := &faultConn{}
				if len(links) == 0 {
					f = tc.first(c)
				}
				f.Conn, f.dead = nc, make(chan struct{})
				links = append(links, f)
				return f, nil
			})
			if tc.connOnly {
				first, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				dial = ConnDialer(first)
			}
			err = c.Run(dial, frames, tc.pol)

			switch {
			case tc.noRoute:
				if err == nil {
					t.Fatal("unreachable server reported success")
				}
				if dials != tc.pol.MaxAttempts {
					t.Errorf("dials = %d, want exactly MaxAttempts = %d", dials, tc.pol.MaxAttempts)
				}
				return
			case tc.connOnly:
				if !errors.Is(err, errLinkCut) {
					t.Fatalf("err = %v, want the link's own error", err)
				}
				if dials != 1 || srv.NetStats().SessionsOpened.Load() != 1 {
					t.Errorf("%d dials, %d sessions opened: a conn-dialer session must not redial",
						dials, srv.NetStats().SessionsOpened.Load())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if dials < 2 {
				t.Fatalf("dials = %d, the injected failure never forced a reconnect", dials)
			}
			// Built once, answered once, nothing lost or refused: the
			// restarted video stream opened intra for the new decoders.
			if got := c.FramesSent(); got != nFrames {
				t.Errorf("FramesSent = %d, want %d (frames must be built exactly once)", got, nFrames)
			}
			if got := len(c.Trajectory()); got != nFrames {
				t.Errorf("trajectory has %d samples, want %d", got, nFrames)
			}
			counts := c.AnswerCounts()
			if len(counts) != nFrames {
				t.Errorf("%d distinct frames answered, want %d", len(counts), nFrames)
			}
			for idx, n := range counts {
				if n != 1 {
					t.Errorf("frame %d answered %d times", idx, n)
				}
			}
			if rej, failed := srv.NetStats().FramesRejected.Load(), srv.NetStats().FramesFailed.Load(); rej != 0 || failed != 0 {
				t.Errorf("server rejected %d and failed %d frames", rej, failed)
			}
			// The ledger went out again oldest first, then the rest of
			// the run, all in the session's mode.
			if tc.pace > 0 && len(links[0].uplinks) < 3 {
				t.Errorf("only %d uplinks in flight at the cut, want >= 3", len(links[0].uplinks))
			}
			last := links[len(links)-1].uplinks
			if len(last) != nFrames-int(tc.resumeAt) {
				t.Fatalf("last link carried %d uplinks, want %d", len(last), nFrames-int(tc.resumeAt))
			}
			for k, u := range last {
				if u.idx != tc.resumeAt+uint32(k) || u.mt != tc.wantMt {
					t.Errorf("last link uplink %d: type %d frame %d, want type %d frame %d",
						k, u.mt, u.idx, tc.wantMt, tc.resumeAt+uint32(k))
				}
			}
			if tc.adaptive {
				if log := c.ModeLog(); len(log) == 0 || log[0].Mode != offload.ModeSplit || c.OffloadMode() != offload.ModeSplit {
					t.Errorf("mode log %v, final mode %v: want the split switch applied and kept", log, c.OffloadMode())
				}
			}
			t.Logf("%d dials, %d uplinks on the first link", dials, len(links[0].uplinks))
		})
	}
}

// TestRunRedialFollowsNewSession: a server that is always overloaded
// switches an adaptive device to shadow; the link dies and the device
// redials an idle server. The new session starts in the device's mode
// and its switches start again at epoch 1, so the device is upgraded
// out of shadow and tracked again instead of being shed for good.
func TestRunRedialFollowsNewSession(t *testing.T) {
	if testing.Short() {
		t.Skip("full system test")
	}
	overloaded := server.DefaultConfig()
	overloaded.Offload = offload.Config{SplitLoad: -1, ShadowLoad: -1}
	var addrs []string
	for _, cfg := range []server.Config{overloaded, server.DefaultConfig()} {
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
		addrs = append(addrs, l.Addr().String())
	}

	c := New(1, dataset.V202(camera.Stereo))
	c.EnableAdaptive(offload.QoSDrone, offload.CapSplit|offload.CapShadow)
	// Run's goroutine dials and its reader calls OnAnswer, never both
	// at once, so links needs no lock.
	var links []net.Conn
	shadowed, tracked := false, 0
	c.OnAnswer = func(pm *protocol.PoseMsg) {
		switch {
		case len(links) == 1 && c.OffloadMode() == offload.ModeShadow:
			shadowed = true
			links[0].Close()
		case len(links) == 2 && pm.Tracked:
			tracked++
		}
	}
	dial := Dialer(func() (net.Conn, error) {
		if len(links) == len(addrs) {
			return nil, ErrNoRedial
		}
		conn, err := net.Dial("tcp", addrs[len(links)])
		if err == nil {
			links = append(links, conn)
		}
		return conn, err
	})
	frames := make([]int, 30)
	for i := range frames {
		frames[i] = i
	}
	if err := c.Run(dial, frames, overload.Backoff{Base: 5, Factor: 2, Max: 50, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !shadowed || len(links) != 2 {
		t.Fatalf("shadowed %v, %d links: the first server never shadowed the device before the cut", shadowed, len(links))
	}
	if tracked == 0 || c.OffloadMode() == offload.ModeShadow {
		t.Errorf("after the redial: %d tracked answers, final mode %v; mode log %v", tracked, c.OffloadMode(), c.ModeLog())
	}
	for idx, n := range c.AnswerCounts() {
		if n != 1 {
			t.Errorf("frame %d answered %d times", idx, n)
		}
	}
}

// TestRunPresentsTokenOnRedial plays a front that issues a session
// token and dies: on the redial the device must say hello (in the one
// shape: rig, QoS, CapResume), present the token, and only then resend
// what was unanswered.
func TestRunPresentsTokenOnRedial(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	token := (&protocol.SessionTokenMsg{ClientID: 9, Shard: 1, Epoch: 3}).Encode()

	type wireMsg struct {
		mt      byte
		payload []byte
	}
	var second []wireMsg
	frontErr := make(chan error, 1)
	go func() {
		frontErr <- func() error {
			// First life: hello, frame 0 answered with a token, frame 1
			// swallowed unanswered, death.
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			for k := 0; k < 3; k++ {
				mt, _, err := protocol.ReadMessage(conn)
				if err != nil {
					return err
				}
				if k == 1 {
					if mt != protocol.TypeFrame {
						return fmt.Errorf("first link message %d has type %d, want a frame", k, mt)
					}
					pm := protocol.PoseMsg{FrameIdx: 0, Pose: geom.IdentitySE3(), Token: token}
					if err := protocol.WriteMessage(conn, protocol.TypePose, pm.Encode()); err != nil {
						return err
					}
				}
			}
			conn.Close()
			// Second life: record everything, answer every frame.
			conn, err = l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			for {
				mt, payload, err := protocol.ReadMessage(conn)
				if err != nil {
					return err
				}
				second = append(second, wireMsg{mt, payload})
				switch mt {
				case protocol.TypeBye:
					return nil
				case protocol.TypeFrame:
					fm, err := protocol.DecodeFrameMsg(payload)
					if err != nil {
						return err
					}
					pm := protocol.PoseMsg{FrameIdx: fm.FrameIdx, Pose: geom.IdentitySE3()}
					if err := protocol.WriteMessage(conn, protocol.TypePose, pm.Encode()); err != nil {
						return err
					}
				}
			}
		}()
	}()

	c := New(9, dataset.V202(camera.Mono))
	pol := overload.Backoff{Base: 1, Factor: 2, Max: 20, MaxAttempts: 10, Seed: 1}
	if err := c.Run(AddrDialer(l.Addr().String()), []int{0, 1, 2, 3}, pol); err != nil {
		t.Fatal(err)
	}
	if err := <-frontErr; err != nil {
		t.Fatal(err)
	}
	want := []byte{protocol.TypeHello, protocol.TypeSessionToken,
		protocol.TypeFrame, protocol.TypeFrame, protocol.TypeFrame, protocol.TypeBye}
	var got []byte
	for _, m := range second {
		got = append(got, m.mt)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("message types after the redial = %v, want %v", got, want)
	}
	hello, err := protocol.DecodeHelloMsg(second[0].payload)
	if err != nil {
		t.Fatal(err)
	}
	if hello.Mode != c.Seq.Rig.Mode || hello.Intr != c.Seq.Rig.Intr || hello.Caps&offload.CapResume == 0 {
		t.Errorf("hello %+v: want the sequence's rig and CapResume", hello)
	}
	if !bytes.Equal(second[1].payload, token) {
		t.Error("presented token differs from the one the front issued")
	}
	if fm, err := protocol.DecodeFrameMsg(second[2].payload); err != nil || fm.FrameIdx != 1 {
		t.Errorf("first uplink after the token: %+v, %v; want the unanswered frame 1", fm, err)
	}
	for idx, n := range c.AnswerCounts() {
		if n != 1 {
			t.Errorf("frame %d answered %d times", idx, n)
		}
	}
}
