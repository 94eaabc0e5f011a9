package protocol

import (
	"fmt"

	"slamshare/internal/codec"
)

// TypeSessionToken carries a resumable session token: downlink from a
// front piggybacked on poses (see PoseMsg.Token), uplink from a
// reconnecting client presenting its newest token to whichever front
// replica answers the dial. Clients without CapResume never send or
// receive it.
const TypeSessionToken = byte(14)

// maxTokenMarks bounds the per-shard watermark list; far above any
// deployable shard count, low enough that a forged count cannot force
// a large allocation.
const maxTokenMarks = 64

// ShardMark is one shard's answered-frame watermark: the highest
// FrameIdx whose pose answer the client has actually received from
// that shard. Because the token carrying mark=i rides on answer i
// itself, possession of the token proves receipt up to the mark —
// which is exactly the dedup floor an adopting front needs.
type ShardMark struct {
	Shard    uint32
	MaxFrame uint32
}

// SessionTokenMsg is the resumable session token. It is everything a
// replacement front needs to adopt the session mid-stream: who the
// session is, which shard owns it at what handoff epoch, the answered
// watermark per shard it has visited, the negotiated offload mode
// (+ mode epoch so a stale ModeSwitch can still be discarded after
// failover), and the last routed partition position.
type SessionTokenMsg struct {
	ClientID  uint32
	Shard     uint32 // current owning shard index
	Epoch     uint64 // session's newest handoff epoch
	Mode      byte   // offload.Mode: 0 full, 1 split, 2 shadow
	ModeEpoch uint32
	PosX      float64 // last routed partition coordinate
	Marks     []ShardMark
}

// Encode serializes the token.
func (m *SessionTokenMsg) Encode() []byte {
	w := codec.Writer{B: make([]byte, 0, 4+4+8+1+4+8+4+len(m.Marks)*8)}
	w.U32(m.ClientID)
	w.U32(m.Shard)
	w.U64(m.Epoch)
	w.U8(m.Mode)
	w.U32(m.ModeEpoch)
	w.F64(m.PosX)
	w.U32(uint32(len(m.Marks)))
	for _, mk := range m.Marks {
		w.U32(mk.Shard)
		w.U32(mk.MaxFrame)
	}
	return w.B
}

// DecodeSessionTokenMsg reverses Encode. Strict: the mark count is
// gated against both the payload and maxTokenMarks, the mode must be
// a defined offload mode, and trailing bytes are an error.
func DecodeSessionTokenMsg(data []byte) (*SessionTokenMsg, error) {
	r := codec.NewReader(data)
	m := &SessionTokenMsg{}
	m.ClientID = r.U32()
	m.Shard = r.U32()
	m.Epoch = r.U64()
	m.Mode = r.U8()
	m.ModeEpoch = r.U32()
	m.PosX = r.F64()
	if r.Err() != nil {
		return nil, errShort
	}
	if m.Mode > 2 {
		return nil, fmt.Errorf("protocol: bad token mode %d", m.Mode)
	}
	n := r.Count(8)
	if r.Err() != nil || n > maxTokenMarks {
		return nil, fmt.Errorf("protocol: token mark count %d exceeds payload", n)
	}
	if n > 0 {
		m.Marks = make([]ShardMark, n)
	}
	for i := range m.Marks {
		m.Marks[i].Shard = r.U32()
		m.Marks[i].MaxFrame = r.U32()
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("protocol: %d trailing bytes in session token", r.Len())
	}
	return m, nil
}

// Mark returns the answered watermark for a shard (0 if unvisited).
func (m *SessionTokenMsg) Mark(shard uint32) uint32 {
	for _, mk := range m.Marks {
		if mk.Shard == shard {
			return mk.MaxFrame
		}
	}
	return 0
}

// SetMark records a shard's answered watermark, keeping it monotone.
func (m *SessionTokenMsg) SetMark(shard, frame uint32) {
	for i := range m.Marks {
		if m.Marks[i].Shard == shard {
			if frame > m.Marks[i].MaxFrame {
				m.Marks[i].MaxFrame = frame
			}
			return
		}
	}
	if len(m.Marks) < maxTokenMarks {
		m.Marks = append(m.Marks, ShardMark{Shard: shard, MaxFrame: frame})
	}
}
