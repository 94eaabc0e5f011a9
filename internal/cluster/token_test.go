package cluster

import (
	"bytes"
	"net"
	"testing"
	"time"

	"slamshare/internal/offload"
	"slamshare/internal/protocol"
)

// dialResumable opens a resume-capable device connection to a front,
// presenting token after the hello when it is not nil.
func dialResumable(t *testing.T, d *deviceStream, addr string, token []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, err := protocol.DecodeHelloMsg(d.hello())
	if err != nil {
		t.Fatal(err)
	}
	hello.Caps = offload.CapResume
	if err := protocol.WriteMessage(conn, protocol.TypeHello, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if token != nil {
		if err := protocol.WriteMessage(conn, protocol.TypeSessionToken, token); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// poseBytes sends frames 0..n-1 one at a time and returns each answer's
// payload as the device read it.
func poseBytes(t *testing.T, d *deviceStream, conn net.Conn, n int) [][]byte {
	t.Helper()
	var got [][]byte
	for i := 0; i < n; i++ {
		fm, _, _ := d.frame(i)
		if err := protocol.WriteMessage(conn, protocol.TypeFrame, fm.Encode()); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		for {
			mt, payload, err := protocol.ReadMessage(conn)
			if err != nil {
				t.Fatalf("awaiting pose %d: %v", i, err)
			}
			if mt == protocol.TypePose {
				got = append(got, payload)
				break
			}
		}
	}
	return got
}

// checkFirstPose asserts that the session's first answer is the shard's
// pose carrying want as its token.
func checkFirstPose(t *testing.T, payload []byte, want protocol.SessionTokenMsg) {
	t.Helper()
	pm, err := protocol.DecodePoseMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := protocol.DecodeSessionTokenMsg(pm.Token)
	if err != nil {
		t.Fatalf("first pose carries no usable token: %v", err)
	}
	if *tok != want {
		t.Errorf("first pose token %+v, want %+v", *tok, want)
	}
	pm.Token = nil
	if !bytes.Equal(pm.Encode(), stubPose(pm.FrameIdx)) {
		t.Errorf("first pose differs from the shard's beyond its token")
	}
}

// TestFrontForwardsPoseBytes: the token changes only with the owning
// shard or the handoff epoch, so over a session that does not hand off
// the first pose carries it and every later pose reaches the device as
// the bytes the shard wrote.
func TestFrontForwardsPoseBytes(t *testing.T) {
	sh := newStubShard(t)
	d := newDeviceStream(relayGOP)
	conn := dialResumable(t, d, serveStub(t, sh, stubFront(sh, FrontConfig{})), nil)
	poses := poseBytes(t, d, conn, 6)
	checkFirstPose(t, poses[0], protocol.SessionTokenMsg{ClientID: streamClient})
	for i, p := range poses[1:] {
		if !bytes.Equal(p, stubPose(uint32(i+1))) {
			t.Errorf("pose %d re-encoded by the front: %d bytes, shard wrote %d", i+1, len(p), len(stubPose(uint32(i+1))))
		}
	}
}

// TestFrontAdoptedTokenBumped: when the resume probe reports a newer
// epoch than the presented token, the adopted session's first pose
// carries the bumped token, and later poses are the shard's bytes.
func TestFrontAdoptedTokenBumped(t *testing.T) {
	sh := newStubShard(t)
	sh.resumeEpoch = 5
	f := stubFront(sh, FrontConfig{})
	d := newDeviceStream(relayGOP)
	presented := (&protocol.SessionTokenMsg{ClientID: streamClient, Epoch: 2}).Encode()
	conn := dialResumable(t, d, serveStub(t, sh, f), presented)
	poses := poseBytes(t, d, conn, 3)
	checkFirstPose(t, poses[0], protocol.SessionTokenMsg{ClientID: streamClient, Epoch: 5})
	for i, p := range poses[1:] {
		if !bytes.Equal(p, stubPose(uint32(i+1))) {
			t.Errorf("pose %d re-encoded by the front", i+1)
		}
	}
	if got := f.Stats().SessionsAdopted.Load(); got != 1 {
		t.Errorf("sessions adopted = %d, want 1", got)
	}
}
