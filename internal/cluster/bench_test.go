package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"slamshare/internal/camera"
	"slamshare/internal/client"
	"slamshare/internal/dataset"
	"slamshare/internal/geom"
	"slamshare/internal/img"
	"slamshare/internal/overload"
	"slamshare/internal/protocol"
	"slamshare/internal/video"
)

// dialShardPeer opens an authenticated shard-plane connection the way
// the front router does.
func dialShardPeer(tb testing.TB, addr string, role byte, sender uint32) net.Conn {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	hello := protocol.ShardHelloMsg{Role: role, SenderID: sender, Token: testToken}
	if err := protocol.WriteMessage(conn, protocol.TypeShardHello, hello.Encode()); err != nil {
		tb.Fatal(err)
	}
	return conn
}

// awaitShardReply reads until a message of the wanted type arrives.
func awaitShardReply(tb testing.TB, conn net.Conn, want byte) []byte {
	tb.Helper()
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	for i := 0; i < 16; i++ {
		mt, payload, err := protocol.ReadMessage(conn)
		if err != nil {
			tb.Fatalf("awaiting shard message %d: %v", want, err)
		}
		if mt == want {
			return payload
		}
	}
	tb.Fatalf("shard message %d never arrived", want)
	return nil
}

// buildSourceMap drives one session against the shard until it has a
// region worth handing off, and holds it open — an export needs the
// client's keyframes resident — by parking its last answer until the
// returned release is called.
func buildSourceMap(tb testing.TB, addr string, id uint32, frames int) (release func()) {
	tb.Helper()
	seq := dataset.HalfRes(dataset.CityRoute("bench-src", [][2]int{{1, 1}, {2, 1}}, 7, camera.Stereo, 921))
	cl := client.New(id, seq)
	built, hold := make(chan struct{}), make(chan struct{})
	cl.OnAnswer = func(pm *protocol.PoseMsg) {
		if pm.FrameIdx == uint32((frames-1)*4) {
			close(built)
			<-hold
		}
	}
	ran := make(chan error, 1)
	go func() {
		ran <- cl.Run(client.AddrDialer(addr), strideFrames(frames, 4), overload.Backoff{MaxAttempts: 1})
	}()
	select {
	case <-built:
	case err := <-ran:
		tb.Fatalf("source session ended before its last frame: %v", err)
	}
	return func() {
		close(hold)
		<-ran
	}
}

// BenchmarkClusterMerge measures one full cross-shard merge: boundary
// export on the source shard, the region's trip over the wire, and
// the transactional import (rebuild, merge/adopt, undo-log commit) on
// a fresh target shard. The handoff is never committed, so the source
// keeps its region and every iteration moves the same workload.
func BenchmarkClusterMerge(b *testing.B) {
	const clientID = 31
	srcLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	src := startShard(b, 0, srcLn)
	defer src.Close()
	defer srcLn.Close()
	defer buildSourceMap(b, srcLn.Addr().String(), clientID, 48)()

	front := dialShardPeer(b, srcLn.Addr().String(), protocol.ShardRoleFront, 0)
	defer front.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tgtLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		tgt := startShard(b, 1, tgtLn)
		b.StartTimer()

		begin := protocol.HandoffMsg{Phase: protocol.HandoffBegin, ClientID: clientID, Epoch: uint64(i + 1)}
		if err := protocol.WriteMessage(front, protocol.TypeHandoff, begin.Encode()); err != nil {
			b.Fatal(err)
		}
		region := awaitShardReply(b, front, protocol.TypeBoundaryRegion)
		peer := dialShardPeer(b, tgtLn.Addr().String(), protocol.ShardRolePeer, 0)
		if err := protocol.WriteMessage(peer, protocol.TypeBoundaryRegion, region); err != nil {
			b.Fatal(err)
		}
		ack, err := protocol.DecodeHandoffMsg(awaitShardReply(b, peer, protocol.TypeHandoff))
		if err != nil {
			b.Fatal(err)
		}
		if ack.Phase != protocol.HandoffAck {
			b.Fatalf("import nacked: %s", ack.Reason)
		}

		b.StopTimer()
		peer.Close()
		tgtLn.Close()
		tgt.Close()
		b.StartTimer()
	}
}

// BenchmarkClusterScale drives one session per shard through the
// front at 1, 2 and 4 shards over the same world, reporting aggregate
// tracked-frame throughput. Sessions stay inside their own slab so the
// numbers measure sharding's parallelism, not handoff traffic.
func BenchmarkClusterScale(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			const rounds, stride = 24, 4
			part := Partition{Min: 0, Max: 240, N: n, Hysteresis: 5}
			clu := startCluster(b, n, part)
			slabW := 240 / n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < n; s++ {
					s := s
					wg.Add(1)
					go func() {
						defer wg.Done()
						gx := s * slabW / 60 // vertical street on the slab's west edge
						seq := dataset.HalfRes(dataset.CityRoute(
							fmt.Sprintf("bench-scale-%d-%d", n, s),
							[][2]int{{gx, 1}, {gx, 2}}, 7, camera.Stereo, int64(931+s)))
						cl := client.New(uint32(21+s), seq)
						if err := cl.Run(client.AddrDialer(clu.addr), strideFrames(rounds, stride), overload.Backoff{MaxAttempts: 1}); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*n*rounds)/elapsed.Seconds(), "frames/s")
			}
		})
	}
}

// stubShard stands in for a shard's device plane: it keeps what every
// front connection delivers and answers each frame with a pose at once,
// unless onFrame says otherwise. What the front costs, and what bytes
// it puts on a shard connection, can then be read without a SLAM
// pipeline behind it.
type stubShard struct {
	ln net.Listener
	// record keeps every frame payload, per connection in accept order.
	record bool
	// onFrame, if set, decides for frame idx on connection conn whether
	// it is answered and whether the shard hangs up after it.
	onFrame func(conn int, idx uint32) (answer, hangUp bool)
	// resumeEpoch is what the stub answers a front's resume probe with.
	resumeEpoch uint64

	mu    sync.Mutex
	conns []net.Conn
	got   [][][]byte
}

func newStubShard(tb testing.TB) *stubShard {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	sh := &stubShard{ln: ln}
	tb.Cleanup(sh.close)
	return sh
}

// serve accepts front connections until close; call it once onFrame
// and record are set.
func (sh *stubShard) serve() {
	go func() {
		for {
			c, err := sh.ln.Accept()
			if err != nil {
				return
			}
			sh.mu.Lock()
			n := len(sh.conns)
			sh.conns = append(sh.conns, c)
			sh.got = append(sh.got, nil)
			sh.mu.Unlock()
			go sh.serveConn(n, c)
		}
	}()
}

func (sh *stubShard) serveConn(n int, c net.Conn) {
	defer c.Close()
	for {
		mt, payload, err := protocol.ReadMessage(c)
		if err != nil || mt == protocol.TypeBye {
			return
		}
		if mt == protocol.TypeShardControl {
			st := protocol.ShardStatusMsg{Op: protocol.ShardOpResume, OK: true, ResumeEpoch: sh.resumeEpoch}
			if protocol.WriteMessage(c, protocol.TypeShardStatus, st.Encode()) != nil {
				return
			}
			continue
		}
		if !isFrame(mt) {
			continue
		}
		idx, _ := protocol.PeekFrameIdx(mt, payload)
		if sh.record {
			sh.mu.Lock()
			sh.got[n] = append(sh.got[n], payload)
			sh.mu.Unlock()
		}
		answer, hangUp := true, false
		if sh.onFrame != nil {
			answer, hangUp = sh.onFrame(n, idx)
		}
		if answer {
			if protocol.WriteMessage(c, protocol.TypePose, stubPose(idx)) != nil {
				return
			}
		}
		if hangUp {
			return
		}
	}
}

// stubPose is the stub shard's answer to frame idx.
func stubPose(idx uint32) []byte {
	return (&protocol.PoseMsg{FrameIdx: idx, Pose: geom.IdentitySE3(), Tracked: true}).Encode()
}

func (sh *stubShard) addr() string { return sh.ln.Addr().String() }

// frames returns the frame payloads connection n has delivered so far.
func (sh *stubShard) frames(n int) [][]byte {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n >= len(sh.got) {
		return nil
	}
	return append([][]byte(nil), sh.got[n]...)
}

// awaitFrames blocks until connection n has delivered want frames.
func (sh *stubShard) awaitFrames(tb testing.TB, n, want int) [][]byte {
	tb.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got := sh.frames(n); len(got) >= want {
			return got
		}
	}
	tb.Fatalf("stub shard connection %d: %d frames, want %d", n, len(sh.frames(n)), want)
	return nil
}

// kill hangs up connection n from the shard's side.
func (sh *stubShard) kill(n int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.conns[n].Close()
}

// close stops the listener and hangs up every connection.
func (sh *stubShard) close() {
	sh.ln.Close()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, c := range sh.conns {
		c.Close()
	}
}

// stubFront returns a front over the one stub shard, not yet serving.
func stubFront(sh *stubShard, cfg FrontConfig) *Front {
	cfg.Shards = []string{sh.addr()}
	return NewFront(cfg)
}

// serveStub starts the stub shard and the front over it, and returns
// the address devices dial.
func serveStub(tb testing.TB, sh *stubShard, f *Front) string {
	tb.Helper()
	sh.serve()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go f.Serve(ln)
	tb.Cleanup(f.Close)
	return ln.Addr().String()
}

// deviceStream is a full-offload device's uplink built by hand — MH04
// at half resolution on its own encoder pair — so that a test holds the
// images behind the bytes and picks the GOP.
type deviceStream struct {
	seq        *dataset.Sequence
	encL, encR *video.Encoder
}

const streamClient = 7

func newDeviceStream(gop int) *deviceStream {
	d := &deviceStream{
		seq:  dataset.HalfRes(dataset.MH04(camera.Stereo)),
		encL: video.NewEncoder(), encR: video.NewEncoder(),
	}
	d.encL.GOP, d.encR.GOP = gop, gop
	return d
}

// frame encodes the stream's next frame from sequence frame i and
// returns the message with the images it carries.
func (d *deviceStream) frame(i int) (fm *protocol.FrameMsg, left, right *img.Gray) {
	left, right = d.seq.StereoFrame(i)
	fm = &protocol.FrameMsg{UplinkHeader: protocol.UplinkHeader{
		ClientID: streamClient, FrameIdx: uint32(i), Stamp: d.seq.FrameTime(i),
		HasPrior: true, Prior: geom.IdentitySE3(),
	}}
	fm.Delta.RotDelta = geom.IdentityQuat()
	fm.Video, fm.VideoRight = video.EncodeStereo(d.encL, d.encR, left, right)
	return fm, left, right
}

// hello is the device's opening message.
func (d *deviceStream) hello() []byte {
	hello := protocol.HelloMsg{
		ClientID: streamClient, Mode: d.seq.Rig.Mode,
		Intr: d.seq.Rig.Intr, Baseline: d.seq.Rig.Baseline,
	}
	return hello.Encode()
}

// dial opens a device connection to a front and says hello.
func (d *deviceStream) dial(tb testing.TB, addr string) net.Conn {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	if err := protocol.WriteMessage(conn, protocol.TypeHello, d.hello()); err != nil {
		tb.Fatal(err)
	}
	return conn
}

// nextPose reads a device's downlink up to the next pose and returns
// the frame it answers.
func nextPose(conn net.Conn) (uint32, error) {
	for {
		mt, payload, err := protocol.ReadMessage(conn)
		if err != nil {
			return 0, err
		}
		if idx, ok := protocol.PeekFrameIdx(mt, payload); mt == protocol.TypePose && ok {
			return idx, nil
		}
	}
}

// replayDevice is a closed-loop device that costs next to nothing: it
// replays two prepared GOPs of MH04 stereo over and over (the second
// wraps onto the first's intra), patching only the frame index, so
// what a step costs is the front's and the stub shard's.
type replayDevice struct {
	stream [][]byte
	conn   net.Conn
	next   uint32
}

const replayGOP = 30

func prepareReplay() [][]byte {
	dev := newDeviceStream(replayGOP)
	stream := make([][]byte, 2*replayGOP)
	for i := range stream {
		fm, _, _ := dev.frame(i)
		stream[i] = fm.Encode()
	}
	return stream
}

// step sends the next frame and waits for its pose.
func (d *replayDevice) step(tb testing.TB) {
	payload := d.stream[int(d.next)%len(d.stream)]
	binary.LittleEndian.PutUint32(payload[4:], d.next) // FrameIdx
	if err := protocol.WriteMessage(d.conn, protocol.TypeFrame, payload); err != nil {
		tb.Fatal(err)
	}
	d.conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	for {
		idx, err := nextPose(d.conn)
		if err != nil {
			tb.Fatalf("awaiting pose %d: %v", d.next, err)
		}
		if idx == d.next {
			break
		}
	}
	d.next++
}

// BenchmarkFrontRelay is the front alone on the ruler: one replayDevice
// through a front whose shard answers at once, so ns/op, allocs/op and
// B/op are per frame. steady never loses the shard; resync-every-30 has
// the shard hang up in the middle of every GOP, so half of all frames
// go through a resync window. Redials do not sleep here: the window is
// measured, not the backoff before it.
func BenchmarkFrontRelay(b *testing.B) {
	stream := prepareReplay()
	for _, bc := range []struct {
		name   string
		hangUp int // position in the GOP after which the shard hangs up
	}{{"steady", -1}, {"resync-every-30", replayGOP / 2}} {
		b.Run(bc.name, func(b *testing.B) {
			sh := newStubShard(b)
			sh.onFrame = func(_ int, idx uint32) (bool, bool) { return true, int(idx%replayGOP) == bc.hangUp }
			f := stubFront(sh, FrontConfig{})
			f.redial = overload.Backoff{}
			dev := &replayDevice{stream: stream, conn: newDeviceStream(replayGOP).dial(b, serveStub(b, sh, f))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.step(b)
			}
		})
	}
}
