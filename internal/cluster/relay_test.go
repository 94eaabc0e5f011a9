package cluster

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"slamshare/internal/img"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
	"slamshare/internal/video"
)

const relayGOP = replayGOP

// relayRig is one hand-driven device behind a front behind a recording
// stub shard. It keeps every payload the device wrote and a decoder
// pair that followed the device's own stream, which is what a shard
// without a front in the path would have seen.
type relayRig struct {
	t     *testing.T
	dev   *deviceStream
	sh    *stubShard
	f     *Front
	conn  net.Conn
	sent  map[uint32][]byte
	seen  map[uint32][2]*img.Gray // the device stream's own reconstruction
	poses map[uint32]int
	refL  *video.Decoder
	refR  *video.Decoder
}

func newRelayRig(t *testing.T, gop int, onFrame func(conn int, idx uint32) (answer, hangUp bool)) *relayRig {
	r := &relayRig{
		t: t, dev: newDeviceStream(gop), sh: newStubShard(t),
		sent: map[uint32][]byte{}, seen: map[uint32][2]*img.Gray{}, poses: map[uint32]int{},
		refL: video.NewDecoder(), refR: video.NewDecoder(),
	}
	r.sh.record, r.sh.onFrame = true, onFrame
	r.f = stubFront(r.sh, FrontConfig{})
	r.conn = r.dev.dial(t, serveStub(t, r.sh, r.f))
	return r
}

// send writes the stream's next frame. edit, if not nil, changes the
// message after the device's encoders have moved on — what a fault on
// the wire does.
func (r *relayRig) send(i int, edit func(*protocol.FrameMsg)) {
	r.t.Helper()
	fm, _, _ := r.dev.frame(i)
	if edit != nil {
		edit(fm)
	}
	payload := fm.Encode()
	if left, err := r.refL.Decode(fm.Video); err == nil {
		if right, err := r.refR.Decode(fm.VideoRight); err == nil {
			r.seen[fm.FrameIdx] = [2]*img.Gray{left, right}
		}
	}
	r.sent[fm.FrameIdx] = payload
	if err := protocol.WriteMessage(r.conn, protocol.TypeFrame, payload); err != nil {
		r.t.Fatal(err)
	}
}

// await reads the downlink, counting every pose, until idx is answered.
func (r *relayRig) await(idx uint32) {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	for r.poses[idx] == 0 {
		got, err := nextPose(r.conn)
		if err != nil {
			r.t.Fatalf("awaiting pose %d: %v", idx, err)
		}
		r.poses[got]++
	}
}

// exactlyOnce waits out any straggling answer, then checks that every
// frame sent was answered once.
func (r *relayRig) exactlyOnce() {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	for {
		got, err := nextPose(r.conn)
		if err != nil {
			break
		}
		r.poses[got]++
	}
	for idx := range r.sent {
		if r.poses[idx] != 1 {
			r.t.Errorf("frame %d answered %d times", idx, r.poses[idx])
		}
	}
}

func decodeFrame(t *testing.T, payload []byte) *protocol.FrameMsg {
	t.Helper()
	fm, err := protocol.DecodeFrameMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

func isIntraPair(fm *protocol.FrameMsg) bool {
	return video.IsIntra(fm.Video) && video.IsIntra(fm.VideoRight)
}

// worstDiff is the largest per-pixel difference of two images.
func worstDiff(a, b *img.Gray) int {
	if a.W != b.W || a.H != b.H {
		return 255
	}
	worst := 0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// TestFrontRelaysBytes: with the shard connection alive, what the shard
// reads is what the device wrote, and the front's codec never runs.
func TestFrontRelaysBytes(t *testing.T) {
	r := newRelayRig(t, relayGOP, nil)
	const n = 2*relayGOP + 5
	for i := 0; i < n; i++ {
		r.send(i, nil)
		r.await(uint32(i))
	}
	got := r.sh.frames(0)
	if len(got) != n {
		t.Fatalf("shard read %d frames, want %d", len(got), n)
	}
	for i, payload := range got {
		if !bytes.Equal(payload, r.sent[uint32(i)]) {
			t.Errorf("frame %d: shard read %d bytes that are not the %d the device wrote", i, len(payload), len(r.sent[uint32(i)]))
		}
	}
	st := r.f.Stats()
	if tr, rel, rs := st.FramesTranscoded.Load(), st.FramesRelayed.Load(), st.Resyncs.Load(); tr != 0 || rel != n || rs != 0 {
		t.Errorf("transcoded %d, relayed %d, resyncs %d; want 0, %d, 0", tr, rel, rs, n)
	}
	r.exactlyOnce()
}

// TestFrontResyncWindow: a shard connection lost mid-GOP with three
// frames unanswered. The replacement opens on an intra, carries every
// frame until the device's next intra as a stream of its own that
// decodes to what the device's stream says, and is the device's bytes
// again from there.
func TestFrontResyncWindow(t *testing.T) {
	const lastAnswered, held, last = 10, 3, relayGOP + 5
	r := newRelayRig(t, relayGOP, func(conn int, idx uint32) (bool, bool) {
		return conn != 0 || idx <= lastAnswered, false
	})
	for i := 0; i <= lastAnswered; i++ {
		r.send(i, nil)
		r.await(uint32(i))
	}
	for i := lastAnswered + 1; i <= lastAnswered+held; i++ {
		r.send(i, nil)
	}
	r.sh.awaitFrames(t, 0, lastAnswered+1+held)
	r.sh.kill(0)
	for i := lastAnswered + 1; i <= lastAnswered+held; i++ {
		r.await(uint32(i))
	}
	for i := lastAnswered + held + 1; i <= last; i++ {
		r.send(i, nil)
		r.await(uint32(i))
	}
	r.exactlyOnce()

	got := r.sh.frames(1)
	if len(got) != last-lastAnswered {
		t.Fatalf("new connection carried %d frames, want %d", len(got), last-lastAnswered)
	}
	if !isIntraPair(decodeFrame(t, got[0])) {
		t.Error("the new connection does not open on an intra frame")
	}
	decL, decR := video.NewDecoder(), video.NewDecoder()
	for j, payload := range got {
		fm := decodeFrame(t, payload)
		idx := uint32(lastAnswered + 1 + j)
		if fm.FrameIdx != idx {
			t.Fatalf("new connection frame %d has index %d, want %d", j, fm.FrameIdx, idx)
		}
		left, errL := decL.Decode(fm.Video)
		right, errR := decR.Decode(fm.VideoRight)
		if errL != nil || errR != nil {
			t.Fatalf("frame %d does not decode on a fresh decoder pair: %v / %v", idx, errL, errR)
		}
		want := r.seen[idx]
		if dl, dr := worstDiff(left, want[0]), worstDiff(right, want[1]); dl > r.dev.encL.Deadzone || dr > r.dev.encR.Deadzone {
			t.Errorf("frame %d is %d / %d grey levels off the device's stream, deadzone %d", idx, dl, dr, r.dev.encL.Deadzone)
		}
		// From the device's intra on the bytes are the device's. Before it
		// they only decode like the device's, and may even equal them: two
		// encoders looking at a still scene write the same all-skip frame.
		if idx >= relayGOP && !bytes.Equal(payload, r.sent[idx]) {
			t.Errorf("frame %d: not the device's bytes; the window must end at the device's intra, frame %d", idx, relayGOP)
		}
	}
	// That the window did not end early is the counters' to say: every
	// frame between the last answered one and the device's intra went
	// through the front's encoders, and nothing else did.
	st := r.f.Stats()
	const transcoded, relayed = relayGOP - 1 - lastAnswered, lastAnswered + 1 + held + last - relayGOP + 1
	if tr, rel := st.FramesTranscoded.Load(), st.FramesRelayed.Load(); tr != transcoded || rel != relayed {
		t.Errorf("transcoded %d frames and relayed %d, want %d and %d", tr, rel, transcoded, relayed)
	}
	if rs := st.Resyncs.Load(); rs != 1 {
		t.Errorf("resyncs = %d, want 1", rs)
	}
}

// TestFrontCorruptFrame: a video payload damaged on the way is none of
// the front's business. It goes to the shard untouched — on a second
// connection too, when the first dies with it unanswered — and the
// session is on the device's bytes again at the next intra.
func TestFrontCorruptFrame(t *testing.T) {
	const bad, last = 5, relayGOP + 2
	r := newRelayRig(t, relayGOP, func(conn int, idx uint32) (bool, bool) {
		return conn != 0 || idx != bad, false
	})
	for i := 0; i < bad; i++ {
		r.send(i, nil)
		r.await(uint32(i))
	}
	r.send(bad, func(fm *protocol.FrameMsg) {
		fm.Video = append([]byte(nil), fm.Video...)
		for i := 9; i < len(fm.Video); i++ {
			fm.Video[i] ^= 0xa5
		}
	})
	if _, ok := r.seen[bad]; ok {
		t.Fatal("the damaged payload still decodes; the test damages too little")
	}
	first := r.sh.awaitFrames(t, 0, bad+1)
	if !bytes.Equal(first[bad], r.sent[bad]) {
		t.Error("the damaged frame was not forwarded as the device sent it")
	}
	r.sh.kill(0)
	r.await(bad)
	for i := bad + 1; i <= last; i++ {
		r.send(i, nil)
		r.await(uint32(i))
	}
	r.exactlyOnce()

	got := r.sh.frames(1)
	if len(got) != last-bad+1 {
		t.Fatalf("new connection carried %d frames, want %d", len(got), last-bad+1)
	}
	if !bytes.Equal(got[0], r.sent[bad]) {
		t.Error("the damaged frame was not re-sent as the device sent it")
	}
	if !isIntraPair(decodeFrame(t, got[1])) {
		t.Error("the first decodable frame on the new connection is not an intra")
	}
	for j := 1; j < len(got); j++ {
		if idx := uint32(bad + j); idx >= relayGOP && !bytes.Equal(got[j], r.sent[idx]) {
			t.Errorf("frame %d: not the device's bytes", idx)
		}
	}
	// The damaged frame is relayed twice and everything after it, up to
	// the device's intra, re-encoded: the counters say so, the bytes of a
	// re-encoded frame need not differ from the device's.
	st := r.f.Stats()
	const transcoded, relayed = relayGOP - 1 - bad, bad + 2 + last - relayGOP + 1
	if tr, rel := st.FramesTranscoded.Load(), st.FramesRelayed.Load(); tr != transcoded || rel != relayed {
		t.Errorf("transcoded %d frames and relayed %d, want %d and %d", tr, rel, transcoded, relayed)
	}
}

// TestFrontLogBounded drives a session by hand with a device that never
// sends a second intra: the log stops at its constant, the decoders take
// what falls off it in order, and a connection lost at frame 150 is
// still replaced by one that opens on an intra of the right picture.
func TestFrontLogBounded(t *testing.T) {
	const lost = 150
	dev := newDeviceStream(1000)
	sh := newStubShard(t)
	sh.record = true
	sh.serve()
	f := stubFront(sh, FrontConfig{})
	f.redial = overload.Backoff{}
	devEnd, frontEnd := net.Pipe()
	defer devEnd.Close()
	defer frontEnd.Close()
	go io.Copy(io.Discard, devEnd)
	s := f.newSession(frontEnd)
	s.clientID, s.helloRaw = streamClient, dev.hello()
	if !s.connectShard() {
		t.Fatal("cannot reach the stub shard")
	}
	defer s.closeShard()

	refL, refR := video.NewDecoder(), video.NewDecoder()
	step := func(i int) (left, right *img.Gray) {
		fm, _, _ := dev.frame(i)
		left, errL := refL.Decode(fm.Video)
		right, errR := refR.Decode(fm.VideoRight)
		if errL != nil || errR != nil {
			t.Fatal(errL, errR)
		}
		if !s.uplink(message{protocol.TypeFrame, fm.Encode()}) {
			t.Fatalf("frame %d: session ended", i)
		}
		if len(s.log) > maxStreamLog {
			t.Fatalf("frame %d: log holds %d frames, bound is %d", i, len(s.log), maxStreamLog)
		}
		if m, ok := <-s.down; !ok || !s.downlink(m) {
			t.Fatalf("frame %d: no answer", i)
		}
		return left, right
	}
	for i := 0; i < lost; i++ {
		step(i)
	}
	if len(s.log) != maxStreamLog {
		t.Errorf("log holds %d frames after %d without an intra, want %d", len(s.log), lost, maxStreamLog)
	}
	if tr := f.stats.FramesTranscoded.Load(); tr != 0 {
		t.Errorf("transcoded %d frames with the connection alive", tr)
	}
	sh.kill(0)
	if _, ok := <-s.down; ok {
		t.Fatal("downlink survived its connection")
	}
	if !s.reconnectShard() {
		t.Fatal("redial failed")
	}
	left, right := step(lost)
	if len(s.log) != 0 {
		t.Errorf("log holds %d frames inside a resync window, want 0", len(s.log))
	}
	fm := decodeFrame(t, sh.awaitFrames(t, 1, 1)[0])
	if !isIntraPair(fm) {
		t.Fatal("the new connection does not open on an intra frame")
	}
	gotL, errL := video.DecodeImage(fm.Video)
	gotR, errR := video.DecodeImage(fm.VideoRight)
	if errL != nil || errR != nil {
		t.Fatal(errL, errR)
	}
	// An intra is lossless, so the picture is exactly what 151 frames of
	// the device's stream decode to — the decoders missed none of them.
	if worstDiff(gotL, left) != 0 || worstDiff(gotR, right) != 0 {
		t.Error("the intra is not the device stream's picture of that frame")
	}
}

// TestFrontRelayAllocs: a relayed frame costs the front, the device end
// and the stub shard together a few dozen small allocations (message
// buffers, one parsed header) — nothing the size of a picture.
func TestFrontRelayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	sh := newStubShard(t)
	f := stubFront(sh, FrontConfig{})
	dev := &replayDevice{stream: prepareReplay(), conn: newDeviceStream(replayGOP).dial(t, serveStub(t, sh, f))}
	dev.step(t)
	allocs := testing.AllocsPerRun(2*replayGOP, func() { dev.step(t) })
	t.Logf("relay: %.1f allocs/frame", allocs)
	if allocs > 40 {
		t.Errorf("a relayed frame costs %.1f allocations, want <= 40", allocs)
	}
	if tr := f.Stats().FramesTranscoded.Load(); tr != 0 {
		t.Errorf("transcoded %d frames in steady state", tr)
	}
}

// TestFrontPumpsExit: a session's two pump goroutines end with it, also
// when it ends with their queues full.
func TestFrontPumpsExit(t *testing.T) {
	settled := func(t *testing.T, base int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines before the session, %d after it:\n%s", base, n, buf[:runtime.Stack(buf, true)])
		}
	}
	frame := func(i int) []byte {
		fm := protocol.FrameMsg{UplinkHeader: protocol.UplinkHeader{ClientID: streamClient, FrameIdx: uint32(i)}}
		return fm.Encode()
	}
	hello := newDeviceStream(relayGOP).hello()

	// The shard dies for good while the device keeps its window open: the
	// uplink pump fills its queue while the session is redialling and is
	// still offering the next frame when RedialBudget runs out.
	t.Run("uplink", func(t *testing.T) {
		base := runtime.NumGoroutine()
		sh := newStubShard(t)
		sh.record = true
		sh.onFrame = func(int, uint32) (bool, bool) { return false, false }
		sh.serve()
		f := stubFront(sh, FrontConfig{RedialBudget: 300 * time.Millisecond})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go f.Serve(ln)
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := protocol.WriteMessage(conn, protocol.TypeHello, hello); err != nil {
			t.Fatal(err)
		}
		if err := protocol.WriteMessage(conn, protocol.TypeFrame, frame(0)); err != nil {
			t.Fatal(err)
		}
		sh.awaitFrames(t, 0, 1)
		sh.close()
		for i := 1; i < 2*protocol.UplinkWindow; i++ {
			if err := protocol.WriteMessage(conn, protocol.TypeFrame, frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		// The front hangs up on the device once the budget is spent.
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		if _, _, err := protocol.ReadMessage(conn); err == nil {
			t.Fatal("an answer from a dead shard")
		}
		conn.Close()
		f.Close()
		settled(t, base)
	})

	// The shard answers more than the downlink queue holds and the
	// session drops the connection without reading any of it, as it does
	// when the device is gone.
	t.Run("downlink", func(t *testing.T) {
		base := runtime.NumGoroutine()
		const flood = 4 * 64
		wrote := make(chan struct{})
		sh := newStubShard(t)
		sh.onFrame = func(n int, _ uint32) (bool, bool) {
			sh.mu.Lock()
			c := sh.conns[n]
			sh.mu.Unlock()
			pm := protocol.PoseMsg{}
			for i := 0; i < flood; i++ {
				protocol.WriteMessage(c, protocol.TypePose, pm.Encode())
			}
			close(wrote)
			return false, false
		}
		sh.serve()
		s := stubFront(sh, FrontConfig{}).newSession(nil)
		s.helloRaw = hello
		if !s.connectShard() {
			t.Fatal("cannot reach the stub shard")
		}
		if !s.forward(protocol.TypeFrame, frame(0)) {
			t.Fatal("cannot write to the stub shard")
		}
		<-wrote
		s.closeShard()
		sh.close()
		settled(t, base)
	})
}
