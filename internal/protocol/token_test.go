package protocol

import (
	"bytes"
	"testing"

	"slamshare/internal/geom"
)

func TestSessionTokenRoundTrip(t *testing.T) {
	for _, m := range []*SessionTokenMsg{
		{ClientID: 1},
		{ClientID: 7, Shard: 1, Epoch: 5},
		{ClientID: ^uint32(0), Shard: 63, Epoch: ^uint64(0)},
	} {
		data := m.Encode()
		if len(data) != sessionTokenLen {
			t.Fatalf("token encodes to %d bytes, want %d", len(data), sessionTokenLen)
		}
		got, err := DecodeSessionTokenMsg(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if *got != *m {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
	}
}

// TestSessionTokenRejects pins the strict 16-byte form: every proper
// prefix and one extra byte are refused.
func TestSessionTokenRejects(t *testing.T) {
	valid := (&SessionTokenMsg{ClientID: 3, Shard: 1, Epoch: 2}).Encode()
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeSessionTokenMsg(valid[:n]); err == nil {
			t.Errorf("decoder accepted the %d-byte prefix %x", n, valid[:n])
		}
	}
	if _, err := DecodeSessionTokenMsg(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Error("decoder accepted a trailing byte")
	}
}

// TestPoseMsgTokenTail pins the wire shape of the token, the pose's
// last field: a u32 length (0 for no token) and the blob. A tokened
// answer decodes the same blob back, and forged lengths are refused.
func TestPoseMsgTokenTail(t *testing.T) {
	token := (&SessionTokenMsg{ClientID: 2, Shard: 1, Epoch: 4}).Encode()
	m := &PoseMsg{FrameIdx: 30, Pose: geom.IdentitySE3(), Tracked: true, Token: token}
	data := m.Encode()
	if want := poseMsgLen + len(token); len(data) != want {
		t.Fatalf("tokened pose encodes to %d bytes, want %d", len(data), want)
	}
	got, err := DecodePoseMsg(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Token, token) {
		t.Fatalf("token corrupted: %x -> %x", token, got.Token)
	}
	tok, err := DecodeSessionTokenMsg(got.Token)
	if err != nil || tok.Shard != 1 || tok.Epoch != 4 {
		t.Fatalf("embedded token unusable: %+v (%v)", tok, err)
	}

	// Shed, echo and token share the one layout.
	full := &PoseMsg{FrameIdx: 31, Pose: geom.IdentitySE3(), Shed: true, EchoNanos: 77, Token: token}
	gf, err := DecodePoseMsg(full.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !gf.Shed || gf.EchoNanos != 77 || !bytes.Equal(gf.Token, token) {
		t.Errorf("tokened shed answer wrong: %+v", gf)
	}

	// A token-less answer carries a zero length and decodes a nil token.
	bare := (&PoseMsg{FrameIdx: 3, Pose: geom.IdentitySE3(), Tracked: true}).Encode()
	if gb, err := DecodePoseMsg(bare); err != nil || len(bare) != poseMsgLen || gb.Token != nil {
		t.Fatalf("token-less pose: %d bytes, %+v, %v", len(bare), gb, err)
	}

	// A truncated token and a length past the payload or past the bound
	// are refused.
	if _, err := DecodePoseMsg(data[:len(data)-1]); err == nil {
		t.Error("truncated token accepted")
	}
	over := append([]byte(nil), data...)
	over[poseMsgLen-1] = 0xFF // token length beyond payload
	if _, err := DecodePoseMsg(over); err == nil {
		t.Error("forged token length accepted")
	}
	long := (&PoseMsg{FrameIdx: 3, Pose: geom.IdentitySE3(), Token: make([]byte, maxPoseTokenLen+1)}).Encode()
	if _, err := DecodePoseMsg(long); err == nil {
		t.Error("token past the bound accepted")
	}
}
