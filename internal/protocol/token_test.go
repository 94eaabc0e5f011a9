package protocol

import (
	"bytes"
	"testing"

	"slamshare/internal/geom"
)

func TestSessionTokenRoundTrip(t *testing.T) {
	for _, m := range []*SessionTokenMsg{
		{ClientID: 1},
		{ClientID: 7, Shard: 1, Epoch: 5, Mode: 1, ModeEpoch: 3, PosX: 88.5,
			Marks: []ShardMark{{Shard: 0, MaxFrame: 41}, {Shard: 1, MaxFrame: 12}}},
		{ClientID: ^uint32(0), Shard: 63, Epoch: ^uint64(0), Mode: 2,
			ModeEpoch: ^uint32(0), PosX: -1e9},
	} {
		got, err := DecodeSessionTokenMsg(m.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ClientID != m.ClientID || got.Shard != m.Shard || got.Epoch != m.Epoch ||
			got.Mode != m.Mode || got.ModeEpoch != m.ModeEpoch || got.PosX != m.PosX ||
			len(got.Marks) != len(m.Marks) {
			t.Fatalf("round trip: got %+v want %+v", got, m)
		}
		for i := range m.Marks {
			if got.Marks[i] != m.Marks[i] {
				t.Fatalf("mark %d: got %+v want %+v", i, got.Marks[i], m.Marks[i])
			}
		}
	}
}

func TestSessionTokenRejects(t *testing.T) {
	valid := (&SessionTokenMsg{ClientID: 3, Shard: 1, Epoch: 2, Mode: 1,
		Marks: []ShardMark{{Shard: 1, MaxFrame: 9}}}).Encode()
	badMode := append([]byte(nil), valid...)
	badMode[16] = 3 // mode byte past shard+epoch
	forgedCount := append([]byte(nil), valid...)
	forgedCount[29] = 0xFF // mark count beyond payload
	for name, data := range map[string][]byte{
		"empty":        {},
		"short":        valid[:len(valid)-1],
		"trailing":     append(append([]byte(nil), valid...), 0),
		"bad mode":     badMode,
		"forged count": forgedCount,
	} {
		if _, err := DecodeSessionTokenMsg(data); err == nil {
			t.Errorf("%s: decoder accepted %x", name, data)
		}
	}
}

func TestSessionTokenMarks(t *testing.T) {
	m := &SessionTokenMsg{ClientID: 1}
	m.SetMark(0, 5)
	m.SetMark(1, 9)
	m.SetMark(0, 3) // stale: marks never regress
	m.SetMark(0, 7)
	if got := m.Mark(0); got != 7 {
		t.Errorf("mark 0 = %d, want 7", got)
	}
	if got := m.Mark(1); got != 9 {
		t.Errorf("mark 1 = %d, want 9", got)
	}
	if got := m.Mark(2); got != 0 {
		t.Errorf("unvisited mark = %d, want 0", got)
	}
}

// TestPoseMsgTokenTail pins the wire shape of the token, the pose's
// last field: a u32 length (0 for no token) and the blob. A tokened
// answer decodes the same blob back, and forged lengths are refused.
func TestPoseMsgTokenTail(t *testing.T) {
	token := (&SessionTokenMsg{ClientID: 2, Shard: 1, Epoch: 4, Mode: 1,
		Marks: []ShardMark{{Shard: 1, MaxFrame: 30}}}).Encode()
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
	if err != nil || tok.Mark(1) != 30 {
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
